"""Upper triangular matrices over a SemiringTable, and affine maps of row vectors.

Entry patterns are tuples of tuples of ring element indices; all values are
immutable.  Vectors are row vectors acted on from the right, so a map is
applied as ``v -> v @ X + c`` and composition reads left to right.
"""

from __future__ import annotations

from dataclasses import dataclass

from semidec.errors import DimensionMismatch
from semidec.semiring import SemiringTable

Entries = tuple[tuple[int, ...], ...]


def is_triangular_entries(ring: SemiringTable, entries: Entries) -> bool:
    return all(entries[i][j] == ring.zero for i in range(len(entries)) for j in range(i))


@dataclass(frozen=True)
class TriMatrix:
    n: int
    entries: Entries
    ring: SemiringTable

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DimensionMismatch(f"expected {self.n}x{self.n} entries")
        if not is_triangular_entries(self.ring, self.entries):
            raise ValueError("entries below the diagonal must all be zero")

    def __getitem__(self, pos):
        i, j = pos
        return self.entries[i][j]


def identity_entries(ring: SemiringTable, n: int) -> Entries:
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def mul_entries(ring: SemiringTable, a: Entries, b: Entries) -> Entries:
    n = len(a)
    mul, s = ring.mul, ring.sum_of
    return tuple(
        tuple(s(mul[a[i][k]][b[k][j]] for k in range(n)) for j in range(n))
        for i in range(n)
    )


# -- affine maps -------------------------------------------------------------

Vector = tuple[int, ...]


@dataclass(frozen=True)
class AffineMap:
    """``v -> v @ X + c`` with X upper triangular, or ``v -> v*lam + c``.

    Exactly one of ``x`` (matrix entries) and ``scaling`` (a ring index) is
    set.  This is the formal presentation; over degenerate semirings two
    presentations may induce the same transformation of R^dim.
    """

    dim: int
    ring: SemiringTable
    c: Vector
    x: Entries | None = None
    scaling: int | None = None

    def __post_init__(self):
        assert (self.x is None) != (self.scaling is None)
        if len(self.c) != self.dim:
            raise DimensionMismatch("shift vector length must equal dim")

    def matrix_entries(self) -> Entries:
        if self.x is not None:
            return self.x
        lam, ring = self.scaling, self.ring
        return tuple(
            tuple(lam if i == j else ring.zero for j in range(self.dim))
            for i in range(self.dim)
        )

    def apply(self, v: Vector) -> Vector:
        ring = self.ring
        if self.scaling is not None:
            return tuple(ring.add[ring.mul[v[i]][self.scaling]][self.c[i]] for i in range(self.dim))
        x = self.x
        return tuple(
            ring.add[ring.sum_of(ring.mul[v[i]][x[i][j]] for i in range(self.dim))][self.c[j]]
            for j in range(self.dim)
        )

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Right-action composition: apply self first, then other."""
        ring = self.ring
        if self.scaling is not None and other.scaling is not None:
            lam = ring.mul[self.scaling][other.scaling]
            c = tuple(
                ring.add[ring.mul[self.c[i]][other.scaling]][other.c[i]]
                for i in range(self.dim)
            )
            return AffineMap(self.dim, ring, c, scaling=lam)
        x = mul_entries(ring, self.matrix_entries(), other.matrix_entries())
        c = other.apply(self.c)
        return AffineMap(self.dim, ring, c, x=x)


def scaling_map(ring: SemiringTable, dim: int, lam: int, shift: Vector) -> AffineMap:
    return AffineMap(dim, ring, tuple(shift), scaling=lam)


def affine_to_matrix(f: AffineMap) -> TriMatrix:
    """Corner embedding: the (dim+1)-square matrix [[1, c], [0, X]].

    Identifying v with the row (1, v), one has (1, v) @ M_f = (1, f(v)),
    and M on formal maps is injective and multiplicative.
    """
    ring, m = f.ring, f.dim
    x = f.matrix_entries()
    rows = [(ring.one,) + tuple(f.c)]
    for i in range(m):
        rows.append((ring.zero,) + tuple(x[i]))
    out = TriMatrix(m + 1, tuple(rows), ring)
    assert is_triangular_entries(ring, out.entries)
    return out
