"""Canonical encodings for monoid element values.

Element values are nested tuples of non-negative integers (matrix entry
patterns, transformation tables, wreath tables, pairs).  Equality and
hashing are structural; the byte encoding below is the canonical form
used in exports, so identical values are byte-identical across runs.
"""

from __future__ import annotations

Value = int | tuple


def key_bytes(value: Value) -> bytes:
    """Deterministic, decodable byte encoding of a nested int/tuple value."""
    if isinstance(value, int):
        return b"%d" % value
    return b"(" + b",".join(key_bytes(v) for v in value) + b")"


def key_hex(value: Value) -> str:
    return key_bytes(value).hex()


def decode_key(data: bytes) -> Value:
    value, rest = _parse(data)
    if rest:
        raise ValueError(f"trailing bytes in key: {rest[:16]!r}")
    return value


def _parse(data: bytes) -> tuple[Value, bytes]:
    if data[:1] == b"(":
        items = []
        rest = data[1:]
        if rest[:1] == b")":
            return (), rest[1:]
        while True:
            item, rest = _parse(rest)
            items.append(item)
            head, rest = rest[:1], rest[1:]
            if head == b")":
                return tuple(items), rest
            if head != b",":
                raise ValueError("malformed key")
    end = 0
    while end < len(data) and data[end : end + 1] not in (b",", b")"):
        end += 1
    return int(data[:end]), data[end:]


def value_json(value: Value):
    """JSON form: ints stay ints, tuples become lists."""
    if isinstance(value, int):
        return value
    return [value_json(v) for v in value]


def value_from_json(obj) -> Value:
    if isinstance(obj, int):
        return obj
    if not isinstance(obj, list):
        raise ValueError(f"not an element value: {obj!r}")
    return tuple(value_from_json(v) for v in obj)
