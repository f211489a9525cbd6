"""Finite semirings with identity, given by explicit operation tables."""

from __future__ import annotations

from dataclasses import dataclass, field

from semidec.errors import AxiomViolation, BoundExceeded, InvalidSpec, NotPrime

PRIME_FIELD_BOUND = 13


@dataclass(frozen=True)
class SemiringTable:
    """A finite semiring on indices 0..size-1.

    ``zero`` and ``one`` are element indices and need not be 0 and 1; user
    tables may order elements arbitrarily.  ``is_field`` records that every
    element has an additive inverse and every element other than ``zero``
    has a two-sided multiplicative inverse.
    """

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    label: str
    is_field: bool = field(default=False, compare=False)

    def descriptor(self) -> dict:
        if self.label == f"Z_{self.size}" and _is_prime(self.size) and self.size <= PRIME_FIELD_BOUND:
            std = make_prime_field(self.size)
            if (self.add, self.mul, self.zero, self.one) == (std.add, std.mul, std.zero, std.one):
                return {"builtin": "zp", "p": self.size}
        if self.label == "Bool":
            std = make_boolean_semiring()
            if (self.add, self.mul, self.zero, self.one) == (std.add, std.mul, std.zero, std.one):
                return {"builtin": "bool"}
        return {"table": to_json(self)}


def _as_table(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


def verify_axioms(add, mul, zero: int, one: int) -> None:
    """Check every semiring law; raise AxiomViolation with a counterexample."""
    n = len(add)
    rng = range(n)
    for a in rng:
        if add[zero][a] != a or add[a][zero] != a:
            raise AxiomViolation("additive-identity", (zero, a))
        if mul[zero][a] != zero or mul[a][zero] != zero:
            raise AxiomViolation("annihilator", (zero, a))
        if mul[one][a] != a or mul[a][one] != a:
            raise AxiomViolation("multiplicative-identity", (one, a))
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                raise AxiomViolation("additive-commutativity", (a, b))
    for law, table in (("additive-associativity", add), ("multiplicative-associativity", mul)):
        for a in rng:
            for b in rng:
                for c in rng:
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise AxiomViolation(law, (a, b, c))
    for a in rng:
        for b in rng:
            for c in rng:
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AxiomViolation("left-distributivity", (a, b, c))
                if mul[add[a][b]][c] != add[mul[a][c]][mul[b][c]]:
                    raise AxiomViolation("right-distributivity", (a, b, c))


def _field_flag(add, mul, zero: int, one: int) -> bool:
    n = len(add)
    for a in range(n):
        if not any(add[a][b] == zero for b in range(n)):
            return False
        if a != zero and not any(mul[a][b] == one and mul[b][a] == one for b in range(n)):
            return False
    return True


def make_from_tables(add, mul, zero: int, one: int, label: str = "custom") -> SemiringTable:
    add = _as_table(add)
    mul = _as_table(mul)
    n = len(add)
    if len(mul) != n or any(len(r) != n for r in add) or any(len(r) != n for r in mul):
        raise ValueError("operation tables must be square and of equal size")
    for row in add + mul:
        for x in row:
            if not 0 <= x < n:
                raise ValueError(f"table entry {x} out of range")
    if not (0 <= zero < n and 0 <= one < n):
        raise ValueError("zero/one index out of range")
    verify_axioms(add, mul, zero, one)
    return SemiringTable(n, add, mul, zero, one, label, _field_flag(add, mul, zero, one))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def make_prime_field(p: int, bound: int = PRIME_FIELD_BOUND) -> SemiringTable:
    """The field Z_p with element i at index i."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p > bound:
        raise BoundExceeded(f"p={p} exceeds bound {bound}")
    add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
    mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    return SemiringTable(p, add, mul, 0, 1, f"Z_{p}", True)


def make_boolean_semiring() -> SemiringTable:
    """The two-element semiring with 1 + 1 = 1 (or / and)."""
    # 1 has no additive inverse, so this is not a field
    return SemiringTable(2, ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1, "Bool", False)


def units(ring: SemiringTable) -> set[int]:
    """Elements with a two-sided multiplicative inverse."""
    out = set()
    for a in range(ring.size):
        for b in range(ring.size):
            if ring.mul[a][b] == ring.one and ring.mul[b][a] == ring.one:
                out.add(a)
                break
    return out


def to_json(ring: SemiringTable) -> dict:
    return {
        "size": ring.size,
        "add": [list(row) for row in ring.add],
        "mul": [list(row) for row in ring.mul],
        "zero": ring.zero,
        "one": ring.one,
        "label": ring.label,
    }


def from_json(obj: dict) -> SemiringTable:
    return make_from_tables(obj["add"], obj["mul"], obj["zero"], obj["one"], obj.get("label", "custom"))


def parse_ring_spec(spec: str) -> SemiringTable:
    """Ring grammar used by the CLI: ``zp:<p>`` | ``bool`` | ``table:<path>``.

    A spec outside the grammar raises ``InvalidSpec``; ``zp:<p>`` with ``p``
    not a prime, ``NotPrime``; a ring file that is not a semiring table,
    including one nested past the recursion limit or not UTF-8 text,
    ``InvalidSpec`` or ``AxiomViolation``."""
    if spec == "bool":
        return make_boolean_semiring()
    if spec.startswith("zp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise InvalidSpec(f"ring spec {spec!r}: {spec[3:]!r} is not an integer") from None
        return make_prime_field(p)
    if spec.startswith("table:"):
        import json

        with open(spec[6:], encoding="utf-8") as handle:
            try:
                obj = json.load(handle)
            except RecursionError:
                raise InvalidSpec(f"ring file {spec[6:]!r} nests past the recursion limit") from None
            except UnicodeDecodeError:
                raise InvalidSpec(f"ring file {spec[6:]!r} is not UTF-8 text") from None
        try:
            return from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"ring file {spec[6:]!r}: {type(exc).__name__}: {exc}") from None
    raise InvalidSpec(f"unknown ring spec {spec!r} (expected zp:<p>, bool, or table:<path>)")
