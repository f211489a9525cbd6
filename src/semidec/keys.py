"""The JSON encoding of monoid element values.

Element values are nested tuples of non-negative integers (matrix entry
patterns, transformation tables, wreath tables, pairs).  In a monoid
file's elements, a ``transformation_close`` descriptor's generators and
the ``quotient_central`` subgroup and ``h_class_group`` idempotent fields,
a value is its nested int lists: ints stay ints and tuples become lists.
Identical values encode identically, so exports are byte-deterministic.
Certificate pairs and ``"close"`` descriptors write carrier rows instead
(``carriers.carrier_rows``).
"""

from __future__ import annotations

Value = int | tuple


def value_json(value: Value):
    """JSON form: ints stay ints, tuples become lists."""
    if isinstance(value, int):
        return value
    return [value_json(v) for v in value]


def value_from_json(obj) -> Value:
    """The value of a JSON form; ``ValueError`` for anything but ints and lists of them."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    if not isinstance(obj, list):
        raise ValueError(f"not an element value: {obj!r}")
    return tuple(value_from_json(v) for v in obj)
