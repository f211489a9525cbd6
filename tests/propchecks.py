"""Structure cross-checks run exhaustively on small monoids.

Each check compares an independent characterization against the library's
Green's-relation machinery, element by element, and returns the number of
violations (expected to be zero everywhere); ``small_monoids`` draws
random transformation monoids for the checks to run on.  The library
computes each answer one way; the second ways live here.
"""

import numpy as np
from hypothesis import strategies as st

from oracles import (ElementaryOp, classify, columns, elementary_matrix, isomorphic_by_table, matrix,
                     multiplicative_by_table, rows, span_membership)
from semidec.families import MatrixCarrier, constants_monoid, identity_entries, transformation_closure
from semidec.monoid import (ROW, greens, is_aperiodic, is_group, isomorphic, maximal_subgroup, multiplicative,
                            quotient_by_central_units)


@st.composite
def small_monoids(draw):
    """A transformation monoid on one to four points, closed from one to three random maps."""
    points = draw(st.integers(1, 4))
    maps = st.tuples(*[st.integers(0, points - 1)] * points)
    return transformation_closure(draw(st.lists(maps, min_size=1, max_size=3)))


def greens_vs_multiplication_orbits(m) -> int:
    """L/R/J by mutual reachability under one-sided multiplication."""
    rep = greens(m)
    n = len(m)
    left = [frozenset(m.mul(u, x) for u in range(n)) for x in range(n)]
    right = [frozenset(m.mul(x, u) for u in range(n)) for x in range(n)]
    two = [
        frozenset(m.mul(u, m.mul(x, v)) for u in range(n) for v in range(n))
        for x in range(n)
    ]
    bad = 0
    for x in range(n):
        for y in range(n):
            l_orbit = y in left[x] and x in left[y]
            r_orbit = y in right[x] and x in right[y]
            j_orbit = y in two[x] and x in two[y]
            if (rep.l[x] == rep.l[y]) != l_orbit:
                bad += 1
            if (rep.r[x] == rep.r[y]) != r_orbit:
                bad += 1
            if (rep.j[x] == rep.j[y]) != j_orbit:
                bad += 1
    return bad


def elementary_row_orbits_match_l_classes(m, ring) -> int:
    """Row-operation sequences generate exactly the L-classes.

    The operation matrices are the elementary ones: add a multiple of a row
    to a row above (left factor with one off-diagonal entry) and scale a
    row by any ring element (diagonal left factor).
    """
    from semidec.monoid import close_generators

    n = len(m.elements[0])
    gens = []
    for target in range(n):
        for scalar in range(ring.size):
            gens.append(elementary_matrix(ring, n, ElementaryOp("scale", target, scalar), True).entries)
        for source in range(target + 1, n):
            for scalar in range(ring.size):
                gens.append(
                    elementary_matrix(ring, n, ElementaryOp("add", target, scalar, source), True).entries
                )
    carrier = MatrixCarrier(ring, n)
    ops = close_generators([carrier.to_row(g) for g in gens], carrier, carrier.to_row(identity_entries(ring, n)))
    rep = greens(m)
    size = len(m)
    reach = [frozenset(m.index[ops.mul_value(e, m.elements[x])] for e in ops.elements) for x in range(size)]
    bad = 0
    for x in range(size):
        for y in range(size):
            mutually = y in reach[x] and x in reach[y]
            if (rep.l[x] == rep.l[y]) != mutually:
                bad += 1
    return bad


def regularity_three_ways(m, ring) -> int:
    """Regular iff J-related to a subidentity iff row/column span conditions."""
    rep = greens(m)
    subid_classes = {
        rep.j[i]
        for i, v in enumerate(m.elements)
        if classify(matrix(ring, v))["subidentity"]
    }
    bad = 0
    for i, v in enumerate(m.elements):
        cols = columns(v)
        rws = rows(v)
        n = len(v)
        good_cols = [cols[j] for j in range(n) if v[j][j] != ring.zero]
        good_rows = [rws[j] for j in range(n) if v[j][j] != ring.zero]
        col_cond = all(span_membership(ring, good_cols, c) for c in cols)
        row_cond = all(span_membership(ring, good_rows, r) for r in rws)
        j_cond = rep.j[i] in subid_classes
        if not (rep.regular[i] == j_cond == col_cond == row_cond):
            bad += 1
    return bad


def projective_quotient_respects_structure(t_monoid, scalar_indices) -> int:
    """Regularity and L/R/J correspond along the scalar-class projection."""
    quotient, proj = quotient_by_central_units(t_monoid, scalar_indices)
    rep = greens(t_monoid)
    rep_q = greens(quotient)
    n = len(t_monoid)
    bad = 0
    for x in range(n):
        if rep.regular[x] != rep_q.regular[proj[x]]:
            bad += 1
        for y in range(n):
            for kind in ("l", "r", "j"):
                up = getattr(rep, kind)
                down = getattr(rep_q, kind)
                if (up[x] == up[y]) != (down[proj[x]] == down[proj[y]]):
                    bad += 1
    return bad


def greens_refinement_and_regularity(m) -> int:
    """H refines L and R, L and R refine J, and x is regular iff x in xSx."""
    rep = greens(m)
    table = m.table_array()
    bad = 0
    for finer, coarser in (("h", "l"), ("h", "r"), ("l", "j"), ("r", "j")):
        seen: dict[int, int] = {}
        fine, coarse = getattr(rep, finer), getattr(rep, coarser)
        for x in range(len(m)):
            if seen.setdefault(fine[x], coarse[x]) != coarse[x]:
                bad += 1
    for x in range(len(m)):
        if rep.regular[x] != any(table[table[x, y], x] == x for y in range(len(m))):
            bad += 1
    return bad


def aperiodic_by_h_classes(m) -> int:
    """Aperiodic iff the H-class of every idempotent is trivial."""
    rep = greens(m)
    h_sizes: dict[int, int] = {}
    for h in rep.h:
        h_sizes[h] = h_sizes.get(h, 0) + 1
    by_subgroups = all(h_sizes[rep.h[e]] == 1 for e in rep.idempotents)
    return int(is_aperiodic(m) != by_subgroups)


def maximal_subgroups_not_groups(m) -> int:
    """The H-class of each idempotent, as a monoid, must be a group."""
    return sum(not is_group(maximal_subgroup(m, e)) for e in greens(m).idempotents)


def projection_not_homomorphic(m, scalar_indices) -> int:
    """Pairs on which the quotient projection fails to be multiplicative."""
    quotient, proj = quotient_by_central_units(m, scalar_indices)
    n = len(m)
    return sum(
        proj[m.mul(x, y)] != quotient.mul(proj[x], proj[y]) for x in range(n) for y in range(n)
    )


def constants_monoids_not_aperiodic(point_counts) -> int:
    """Constants monoids are aperiodic, by both criteria."""
    bad = 0
    for k in point_counts:
        m = constants_monoid(k)
        bad += (not is_aperiodic(m)) + aperiodic_by_h_classes(m)
    return bad


def multiplicativity_two_ways(m, n, f) -> int:
    """Verdicts of ``multiplicative`` and ``isomorphic``, along Cayley graphs,
    that differ from the whole-table checks on the index map ``f``."""
    return (int(multiplicative(m, n, f) != multiplicative_by_table(m, n, f))
            + int(isomorphic(m, n, f) != isomorphic_by_table(m, n, f)))


class OrbitCarrier:
    """The orbits of a matrix monoid's elements under a central subgroup as
    a carrier: an orbit's row is its first member's matrix row, and a block
    of rows multiplies as matrices, each product then going to its orbit's
    first member."""

    def __init__(self, base, matrices, projection, orbits):
        self.base, self.matrices, self.projection, self.orbits = base, matrices, projection, orbits
        self.width = matrices.width

    def to_row(self, orbit) -> tuple:
        return self.matrices.to_row(self.base.elements[orbit[0]])

    def from_row(self, row):
        return self.orbits[self.projection[self.base.index[self.matrices.from_row(row)]]]

    def mul_rows(self, x, y):
        products = self.matrices.mul_rows(x, y)
        leaders = [self.to_row(self.from_row(row)) for row in products.reshape(-1, self.width).tolist()]
        return np.array(leaders, dtype=products.dtype).reshape(products.shape)


def traced_products_off_the_carrier(m, carrier, xs, ys) -> int:
    """How many products ``xs[i] * ys[j]`` of a table-less monoid, traced
    along its right Cayley graph, differ from ``carrier.mul_rows`` on the
    factors' carrier rows."""

    def encoded(indices):
        return np.array([carrier.to_row(m.elements[i]) for i in indices], dtype=ROW).reshape(len(indices), -1)

    through = carrier.mul_rows(encoded(xs), encoded(ys))
    traced = encoded(m.products(xs, ys).ravel()).reshape(through.shape)
    return int((through != traced).any(axis=2).sum())
