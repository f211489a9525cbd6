"""Constructors for the named monoid families.

Matrix kinds (T, UT, PT and their unit groups) have entry-pattern tuples as
element values.  Affine kinds (A, AT, AS and unit groups) are transformation
monoids on R^n: element values are extensional tables over the points of
R^n in lexicographic order, so two presentations inducing the same map are
the same element.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from semidec.errors import (
    DimensionTooSmall,
    FieldRequired,
    InvalidSpec,
    SizeLimitExceeded,
)
from semidec.monoid import (
    _BLOCK_CELLS,
    DEFAULT_LIMIT,
    ROW,
    TABLE,
    Monoid,
    check_table_bound,
    maximal_subgroup,
    product_value,
    quotient_by_central_units,
)
from semidec.semiring import SemiringTable, units

FAMILY_KINDS = (
    "T", "UT", "PT", "T*", "UT*", "PT*",
    "A", "AT", "AS", "A*", "AT*", "AS*",
    "Xtilde", "U1", "augmented",
)


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: int
    ring: SemiringTable

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidSpec(f"unknown family kind {self.kind!r}")
        if self.kind in ("PT", "PT*") and not self.ring.is_field:
            raise FieldRequired(f"{self.kind} needs a field, got {self.ring.label}")
        if self.n < 1 and self.kind not in ("U1",):
            raise DimensionTooSmall(f"{self.kind} needs degree >= 1, got {self.n}")

    def label(self) -> str:
        if self.kind == "U1":
            return "U_1"
        if self.kind == "Xtilde":
            return f"({self.ring.label}^{self.n})~"
        return f"{self.kind}_{self.n}({self.ring.label})"

    def descriptor(self) -> dict:
        return {
            "kind": "family",
            "family": self.kind,
            "n": self.n,
            "ring": self.ring.descriptor(),
        }


def identity_entries(ring: SemiringTable, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def point_grid(ring: SemiringTable, n: int) -> np.ndarray:
    """The points of R^n, one per row, in lexicographic order."""
    return np.indices((ring.size,) * n, dtype=ROW).reshape(n, -1).T


def point_codes(ring: SemiringTable, vectors: np.ndarray) -> np.ndarray:
    """The row in ``point_grid`` of each vector along the last axis: its mixed-radix value."""
    return vectors @ ring.size ** np.arange(vectors.shape[-1] - 1, -1, -1)


class TransformationCarrier:
    """Transformation tables on ``points`` points under right-action
    composition, ``f`` first, then ``g``; a table is its own row, and a
    block product is one gather."""

    def __init__(self, points: int):
        self.width = points

    def to_row(self, value) -> tuple:
        if len(value) != self.width:
            raise ValueError(f"{value!r} is not a table on {self.width} points")
        return tuple(value)

    def from_row(self, row):
        return tuple(row)

    def mul_rows(self, x, y) -> np.ndarray:
        return y[:, x].transpose(1, 0, 2)  # out[i, j, p] = y[j, x[i, p]]

    def mul_value(self, f, g):
        return product_value(self, f, g)


# -- matrix families ----------------------------------------------------------


def _semiring_dot(add: np.ndarray, mul: np.ndarray, zero: int, rows, mats) -> np.ndarray:
    """Row vectors times matrices over a semiring's tables, broadcast over blocks of each.

    ``out[..., c]`` folds ``add`` over k ascending, starting from ``zero``,
    over ``mul[rows[..., k], mats[..., k, c]]``: the order of a per-pair
    product, so every semiring table gets the same entries.  It is the
    package's one sum of products:
    matrix products (``MatrixCarrier``, whose closures build the matrix
    family tables), affine maps (``affine_tables``), the splitting step's ``X v``
    (``decomp.induction_step``) and, through ``T*_n``'s products, the
    scaling-group embedding check all run on it.
    """
    acc = zero
    for k in range(rows.shape[-1]):
        acc = add[acc, mul[rows[..., k, None], mats[..., k, :]]]
    return acc


class MatrixCarrier:
    """Square entry patterns over a semiring as a carrier.

    A matrix's row is its n*n entries, row-major, and a block product is
    one ``_semiring_dot`` of every left matrix's rows with every right
    matrix: the kernel of affine tables too, so matrix products and
    affine maps agree entry for entry.
    """

    def __init__(self, ring: SemiringTable, n: int):
        self.ring, self.n, self.width = ring, n, n * n
        self._add = np.array(ring.add, dtype=ROW)
        self._mul = np.array(ring.mul, dtype=ROW)

    def to_row(self, value) -> tuple:
        row = tuple(chain.from_iterable(value))
        if len(row) != self.width:
            raise ValueError(f"{value!r} is not a {self.n}x{self.n} matrix")
        return row

    def from_row(self, row):
        return tuple(tuple(row[i * self.n : (i + 1) * self.n]) for i in range(self.n))

    def mul_rows(self, x, y) -> np.ndarray:
        n = self.n
        out = _semiring_dot(self._add, self._mul, self.ring.zero,
                            x.reshape(len(x), 1, n, n), y.reshape(1, len(y), 1, n, n))
        return out.reshape(len(x), len(y), self.width)

    def mul_value(self, a, b):
        return product_value(self, a, b)


def _matrix_elements(kind: str, n: int, ring: SemiringTable) -> list[tuple]:
    all_vals = list(range(ring.size))
    unit_vals = sorted(units(ring))
    diag_choices = {
        "T": all_vals,
        "UT": sorted({ring.zero, ring.one}),
        "T*": unit_vals,
        "UT*": [ring.one],
    }[kind]
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    choices = [diag_choices if i == j else all_vals for (i, j) in positions]
    out = []
    for combo in product(*choices):
        ent = [[ring.zero] * n for _ in range(n)]
        for (i, j), v in zip(positions, combo):
            ent[i][j] = v
        out.append(tuple(tuple(row) for row in ent))
    return out


def _matrix_monoid(kind: str, n: int, ring: SemiringTable, limit: int) -> Monoid:
    count_positions = n * (n + 1) // 2
    if ring.size ** count_positions > limit:
        raise SizeLimitExceeded(limit, f"{kind}_{n}({ring.label}) enumeration")
    elements = _matrix_elements(kind, n, ring)
    spec = FamilySpec(kind, n, ring)
    # these generate: M = C_n...C_1, C_j = I with M's column j = (I with m_jj at jj) prod_(i<j) (I + m_ij E_ij)
    gens = np.flatnonzero(np.count_nonzero(np.array(elements) != identity_entries(ring, n), axis=(1, 2)) == 1)
    return Monoid(elements, identity_entries(ring, n), carrier=MatrixCarrier(ring, n),
                  label=spec.label(), provenance=spec.descriptor(), generators=gens.tolist())


# -- affine families ----------------------------------------------------------


def affine_matrices(kind: str, n: int, ring: SemiringTable) -> np.ndarray:
    """The matrices X of the presentations ``v -> v @ X + c`` of ``kind``, an
    ``(count, n, n)`` array in lexicographic order: ``AS`` the scalings
    ``diag(lam)``, ``AT`` the upper triangular matrices, ``A`` all of them."""
    if kind == "AS":
        mats = np.full((ring.size, n, n), ring.zero, dtype=ROW)
        mats[:, np.arange(n), np.arange(n)] = np.arange(ring.size, dtype=ROW)[:, None]
        return mats
    if kind == "AT":
        return np.array(_matrix_elements("T", n, ring), dtype=ROW)
    return point_grid(ring, n * n).reshape(-1, n, n)


def affine_tables(ring: SemiringTable, mats: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row q is the transformation table of ``v -> v @ mats[q] + shifts[q]``
    over ``point_grid``: each image point ``_semiring_dot``'s fold plus the
    shift, entry by entry, given by its ``point_codes``.  A scaling
    ``diag(lam)`` gives ``v * lam + c`` exactly, because the ring's zero is
    an additive identity and an annihilator."""
    add, mul = np.array(ring.add, dtype=ROW), np.array(ring.mul, dtype=ROW)
    pts = point_grid(ring, shifts.shape[-1])
    return point_codes(ring, add[_semiring_dot(add, mul, ring.zero, pts, mats[:, None]), shifts[:, None]])


def _affine_monoid(kind: str, n: int, ring: SemiringTable, limit: int) -> Monoid:
    """The transformations of R^n that the presentations of ``kind`` induce,
    in the order each first appears: matrix-major, then shift, both
    lexicographic.  Presentations are evaluated by ``affine_tables`` in
    blocks of at most ``_BLOCK_CELLS`` image entries (one presentation at
    least), so memory stays bounded however many there are."""
    pattern_count = {
        "AS": ring.size ** (n + 1),
        "AT": ring.size ** (n * (n + 1) // 2 + n),
        "A": ring.size ** (n * n + n),
    }[kind]
    if pattern_count > limit or ring.size**n > limit:
        raise SizeLimitExceeded(limit, f"{kind}_{n}({ring.label}) enumeration")
    mats, pts = affine_matrices(kind, n, ring), point_grid(ring, n)
    count, step = len(mats) * len(pts), max(1, _BLOCK_CELLS // (len(pts) * n))
    seen: dict[tuple, None] = {}
    for start in range(0, count, step):
        q = np.arange(start, min(start + step, count))
        tables = affine_tables(ring, mats[q // len(pts)], pts[q % len(pts)])
        seen.update(dict.fromkeys(map(tuple, tables.tolist())))
    elements = list(seen)
    # v -> v X + c is v -> v X, then the shift by c, a sum of shifts along
    # one coordinate: so the maps (X, 0) of matrices that generate, and (I, c)
    # of those shifts, generate.  The matrices one entry from the identity
    # generate T_n(R) and, over a field, M_n(R); AS takes every scaling, and
    # A over another semiring every matrix.
    away = np.count_nonzero(mats != identity_entries(ring, n), axis=(1, 2))
    linear = np.flatnonzero((away <= 1) | (kind == "AS") | (kind == "A" and not ring.is_field))
    shifts = np.flatnonzero(np.count_nonzero(pts != ring.zero, axis=1) <= 1)
    q = np.concatenate([linear * len(pts) + point_codes(ring, np.full(n, ring.zero)),
                        np.flatnonzero(away == 0) * len(pts) + shifts])
    index = dict(zip(elements, range(len(elements))))
    gens = [index[t] for t in map(tuple, affine_tables(ring, mats[q // len(pts)], pts[q % len(pts)]).tolist())]
    spec = FamilySpec(kind, n, ring)
    return Monoid(elements, tuple(range(len(pts))), carrier=TransformationCarrier(len(pts)), label=spec.label(),
                  provenance=spec.descriptor(), generators=gens)


# -- simple families ----------------------------------------------------------


def u1() -> Monoid:
    """The two-element semilattice {1, e} with e^2 = e."""
    return Monoid([0, 1], 0, table=[[0, 1], [1, 1]], label="U_1", provenance={"kind": "family", "family": "U1"})


def transformation_closure(gens: list[tuple[int, ...]], label: str = "",
                           limit: int = DEFAULT_LIMIT) -> Monoid:
    """Closure of transformation tables under right-action composition; a
    table is its own carrier row, so ``gens`` go to ``close_generators`` as they are."""
    from semidec.keys import value_json
    from semidec.monoid import close_generators

    point_count = len(gens[0])
    ident = tuple(range(point_count))
    return close_generators(
        gens,
        TransformationCarrier(point_count),
        ident,
        limit=limit,
        label=label,
        provenance={
            "kind": "transformation_close",
            "points": point_count,
            "generators": [value_json(g) for g in gens],
            "label": label,
        },
    )


CONSTANTS_IDENTITY = (1, 0)


def constant_at(x: int) -> tuple[int, int]:
    return (0, x)


def constants_monoid(point_count: int, label: str = "", provenance: dict | None = None) -> Monoid:
    """The identity plus one constant per point, as a formal monoid.

    Elements are tagged pairs rather than transformation tables: on a
    one-point set the identity and the constant coincide extensionally,
    but this monoid always has order point_count + 1.  Its table is always
    built, so an order past ``TABLE_BOUND`` raises ``SizeLimitExceeded``
    before anything is allocated.
    """
    if point_count < 1:
        raise ValueError("need a non-empty point set")
    check_table_bound(point_count + 1, label or f"~{point_count}")
    elements = [CONSTANTS_IDENTITY] + [constant_at(x) for x in range(point_count)]
    index = np.arange(len(elements), dtype=TABLE)
    table = np.where(index > 0, index, index[:, None])  # a constant on the right wins
    return Monoid(elements, CONSTANTS_IDENTITY, table=table, label=label or f"~{point_count}",
                  provenance=provenance or {"kind": "family", "family": "constants", "points": point_count})


def augmented_monoid(acting: Monoid, limit: int = DEFAULT_LIMIT) -> Monoid:
    """Closure of a transformation monoid together with all constant maps.

    ``acting`` must consist of transformation tables; its elements are
    distinct, so it acts faithfully.
    """
    tables = list(acting.elements)
    point_count = len(tables[0])
    ident = tuple(range(point_count))
    constants = [tuple(x for _ in range(point_count)) for x in range(point_count)]
    from semidec.monoid import close_generators

    return close_generators(
        [ident] + tables + constants,
        TransformationCarrier(point_count),
        ident,
        limit=limit,
        label=f"aug({acting.label})",
        provenance={"kind": "augmented", "base": acting.descriptor()},
    )


# -- dispatcher ---------------------------------------------------------------


_FAMILIES: dict[tuple[FamilySpec, int], Monoid] = {}


def build_family(spec: FamilySpec, limit: int = DEFAULT_LIMIT) -> Monoid:
    """The monoid ``spec`` names, built once per (spec, limit) and shared.

    Every later call returns the same object, so callers must not mutate it.
    """
    key = (spec, limit)
    m = _FAMILIES.get(key)
    if m is None:
        m = _FAMILIES[key] = _build(spec, limit)
    return m


def _build(spec: FamilySpec, limit: int) -> Monoid:
    kind, n, ring = spec.kind, spec.n, spec.ring
    if kind == "U1":
        return u1()
    if kind == "Xtilde":
        if ring.size**n > limit:
            raise SizeLimitExceeded(limit, "point set enumeration")
        return constants_monoid(ring.size**n, label=spec.label(), provenance=spec.descriptor())
    if kind in ("T", "UT", "T*", "UT*"):
        return _matrix_monoid(kind, n, ring, limit)
    if kind in ("PT", "PT*"):
        base = build_family(FamilySpec(kind[1:], n, ring), limit)
        scalars = _scalar_unit_indices(base, ring)
        quotient, _ = quotient_by_central_units(base, scalars)
        quotient.label = spec.label()
        quotient.provenance = spec.descriptor()
        return quotient
    if kind in ("A", "AT", "AS"):
        return _affine_monoid(kind, n, ring, limit)
    if kind in ("A*", "AT*", "AS*"):
        base = build_family(FamilySpec(kind[:-1], n, ring), limit)
        group = maximal_subgroup(base, base.identity)
        group.label = spec.label()
        group.provenance = spec.descriptor()
        return group
    if kind == "augmented":
        star = build_family(FamilySpec("AS*", n, ring), limit)
        return augmented_monoid(star, limit=limit)
    raise ValueError(f"unknown family kind {kind!r}")


def family(kind: str, n: int, ring: SemiringTable, limit: int = DEFAULT_LIMIT) -> Monoid:
    return build_family(FamilySpec(kind, n, ring), limit)


def _scalar_unit_indices(matrix_monoid: Monoid, ring: SemiringTable) -> list[int]:
    n = len(matrix_monoid.elements[0])
    out = []
    for lam in sorted(units(ring)):
        ent = tuple(
            tuple(lam if i == j else ring.zero for j in range(n)) for i in range(n)
        )
        out.append(matrix_monoid.index[ent])
    return out
