"""Wreath products with lazy multiplication over enumerated bases.

An element of ``top wr base`` is a pair ``(table, b)`` where ``table`` is a
dense tuple of top values indexed by the base monoid's canonical order and
``b`` is a base value.  The product shifts the right table's argument by
the left base part:

    (f, a) (g, b) = (t -> f[t] * g[t a],  a b)

Full enumeration is guarded; the pipelines instead multiply inside wreath
products over *restricted* bases (sub-monoids holding just the traced
elements), recording a restriction step that the restricted product is a
quotient of the corresponding subsemigroup of the full one.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from semidec.errors import ContextMismatch, NotClosed, SizeLimitExceeded
from semidec.monoid import DEFAULT_LIMIT, Monoid, from_elements


class WreathContext:
    """Multiplication context for top wr base.

    ``top`` is anything with mul_value / identity_value / label /
    descriptor (a Monoid, a ProductCarrier, or another WreathContext);
    ``base`` must be an enumerated Monoid since tables index into it.
    """

    def __init__(self, top, base: Monoid):
        self.top = top
        self.base = base
        self.label = f"({top.label} wr {base.label})"
        # index-space fast path when both sides carry materialized tables
        self._fast = isinstance(top, Monoid) and top._table is not None and base._table is not None
        self._enc: dict[tuple, object] = {}

    @property
    def identity_value(self):
        e = self.top.identity_value
        return (tuple(e for _ in range(len(self.base))), self.base.identity_value)

    def _encode(self, table: tuple):
        enc = self._enc.get(table)
        if enc is None:
            idx = self.top.index
            enc = np.fromiter((idx[v] for v in table), dtype=np.int32, count=len(table))
            self._enc[table] = enc
        return enc

    def mul_value(self, x, y):
        ftab, fbase = x
        gtab, gbase = y
        base = self.base
        if len(ftab) != len(base) or len(gtab) != len(base):
            raise ContextMismatch("table length does not match base order")
        a = base.index[fbase]
        top = self.top
        if self._fast:
            fi = self._encode(ftab)
            gi = self._encode(gtab)
            out = top._table[fi, gi[base._table[:, a]]]
            elements = top.elements
            table = tuple(elements[k] for k in out)
            self._enc.setdefault(table, out)
        else:
            table = tuple(
                top.mul_value(ftab[t], gtab[base.mul(t, a)]) for t in range(len(base))
            )
        return (table, base.elements[base.mul(a, base.index[gbase])])

    def descriptor(self) -> dict:
        return {"kind": "wreath_ctx", "top": self.top.descriptor(), "base": self.base.descriptor()}


def enumerate_wreath(ctx: WreathContext, limit: int = DEFAULT_LIMIT) -> Monoid:
    """The full wreath product as a Monoid; requires |top|^|base| * |base| <= limit."""
    top = ctx.top
    if not isinstance(top, Monoid):
        raise ContextMismatch("full enumeration needs an enumerated top monoid")
    b = len(ctx.base)
    total = len(top) ** b * b
    if total > limit:
        raise SizeLimitExceeded(limit, f"wreath enumeration of {ctx.label} ({total} elements)")
    elements = [
        (tuple(top.elements[i] for i in tab), base_val)
        for tab in product(range(len(top)), repeat=b)
        for base_val in ctx.base.elements
    ]
    return from_elements(
        elements,
        ctx.mul_value,
        ctx.identity_value,
        label=ctx.label,
        provenance={"kind": "wreath_enum", "top": top.descriptor(), "base": ctx.base.descriptor()},
    )


def restrict_base(ctx: WreathContext, sub: Monoid) -> tuple[WreathContext, dict]:
    """Context over a sub-monoid of the base, plus the formal restriction step.

    Sound because mapping (f, b) to (f restricted to the sub-base, b), for b
    in the sub-base, is a surjective homomorphism from a subsemigroup of the
    full product onto the restricted product.
    """
    base = ctx.base
    for v in sub.elements:
        if v not in base.index:
            raise NotClosed(f"{v!r} is not an element of the base")
    for a in sub.elements:
        for b in sub.elements:
            if base.mul_value(a, b) not in sub.index:
                raise NotClosed("sub-base is not closed under multiplication")
            if sub.mul_value(a, b) != base.mul_value(a, b):
                raise NotClosed("sub-base multiplication disagrees with the base")
    step = {
        "kind": "restrict_base",
        "top": ctx.top.descriptor(),
        "base_from": base.descriptor(),
        "base_to": sub.descriptor(),
    }
    return WreathContext(ctx.top, sub), step


def constant_table(ctx: WreathContext, top_value):
    return tuple(top_value for _ in range(len(ctx.base)))
