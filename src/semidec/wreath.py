"""Wreath products with lazy multiplication over enumerated bases.

Both sides of ``top wr base`` are enumerated monoids, with or without
tables.  An element is a pair ``(f, a)`` of indices: ``f`` is a dense
tuple of top indices indexed by the base monoid's canonical order, and
``a`` is a base index; in JSON it is ``[[f_0, ..., f_{|B|-1}], a]``.  The
product shifts the right table's argument by the left base part:

    (f, a) (g, b) = (t -> f[t] * g[t a],  a b)

In a closure the value is the int row ``[f_0, ..., f_{|B|-1}, a]``, and a
block of rows times a block of rows is one ``Monoid.mul_indices`` a side.

Full enumeration is guarded; the pipelines instead multiply inside wreath
products over *restricted* bases (sub-monoids holding just the traced
elements), recording a restriction step that the restricted product is a
quotient of the corresponding subsemigroup of the full one.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from semidec.errors import ContextMismatch, NotClosed, SizeLimitExceeded
from semidec.monoid import DEFAULT_LIMIT, Monoid, generating_set, product_value


class WreathContext:
    """Multiplication context for top wr base; ``top`` and ``base`` must be
    Monoids, else ``ContextMismatch``."""

    def __init__(self, top: Monoid, base: Monoid):
        for side, m in (("top", top), ("base", base)):
            if not isinstance(m, Monoid):
                raise ContextMismatch(f"wreath {side} {m.label} is not a monoid")
        self.top = top
        self.base = base
        self.label = f"({top.label} wr {base.label})"

        self.width = len(base) + 1

    @property
    def identity_value(self):
        return ((self.top.identity,) * len(self.base), self.base.identity)

    def to_row(self, value) -> tuple:
        """The row ``[f_0, ..., f_{|B|-1}, a]`` of a value ``(f, a)``."""
        f, a = value
        if len(f) != len(self.base):
            raise ContextMismatch("table length does not match base order")
        return (*f, a)

    def from_row(self, row):
        return (tuple(row[:-1]), row[-1])

    def mul_rows(self, x, y) -> np.ndarray:
        """Products of every row of ``x`` with every row of ``y``, ``out[i, j]
        = x[i] * y[j]``: ``f[t] * g[t a]`` for the whole block at once, each
        side multiplying by its own ``mul_indices``."""
        base, b = self.base, len(self.base)
        a = x[:, b]
        shifted = y[:, :b][:, base.products(np.arange(b), a).T]  # shifted[j, i, t] = g_j[t a_i]
        out = np.empty((len(x), len(y), b + 1), dtype=x.dtype)
        out[:, :, :b] = self.top.mul_indices(x[:, None, :b], shifted.transpose(1, 0, 2))
        out[:, :, b] = base.products(a, y[:, b])
        return out

    def mul_value(self, x, y):
        return product_value(self, x, y)

    def descriptor(self) -> dict:
        return {"kind": "wreath_ctx", "top": self.top.descriptor(), "base": self.base.descriptor()}


def enumerate_wreath(ctx: WreathContext, limit: int = DEFAULT_LIMIT) -> Monoid:
    """The full wreath product as a Monoid; requires |top|^|base| * |base| <= limit.

    Its elements are the index pairs ``(f, a)``: ``f`` runs over every
    table of top indices in ``product`` order, and ``a`` over the base
    indices.  The monoid multiplies through ``ctx.mul_rows`` in blocks,
    as any monoid over a carrier does.  Its generators are the point
    functions (a top generator ``x`` at one base point, the top identity
    elsewhere, base part the base identity), for each ``x`` in
    ``generating_set(top)`` and each point, then the identity table with
    each base generator: products of point functions give every table, and
    the base part then every base index.
    """
    top, base = ctx.top, ctx.base
    b = len(base)
    total = len(top) ** b * b
    if total > limit:
        raise SizeLimitExceeded(limit, f"wreath enumeration of {ctx.label} ({total} elements)")
    elements = [(f, a) for f in product(range(len(top)), repeat=b) for a in range(b)]
    place = [len(top) ** (b - 1 - s) * b for s in range(b)]  # place[s]: index step of one top index at point s
    unit = top.identity * sum(place)  # index of (identity table, 0)
    gens = [unit + (x - top.identity) * place[s] + base.identity for x in generating_set(top) for s in range(b)]
    gens += [unit + y for y in generating_set(base)]
    return Monoid(elements, ctx.identity_value, carrier=ctx, label=ctx.label, generators=gens,
                  provenance={"kind": "wreath_enum", "top": top.descriptor(), "base": base.descriptor()})


def restrict_base(ctx: WreathContext, sub: Monoid) -> tuple[WreathContext, dict]:
    """Context over a sub-monoid of the base, plus the formal restriction step.

    Sound because mapping (f, b) to (f restricted to the sub-base, b), for b
    in the sub-base and indices read in the sub-base's order, is a surjective
    homomorphism from a subsemigroup of the full product onto the restricted
    product.
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


def constant_table(ctx: WreathContext, top_index: int) -> tuple:
    return (top_index,) * len(ctx.base)
