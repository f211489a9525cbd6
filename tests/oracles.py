"""Naive reference implementations used only to check the library.

Everything here recomputes results by definition-level brute force,
independently of the package's algorithms: Green's relations by pairwise
ideal comparison, pair and target closures by plain dict and set loops,
matrix and carrier tables by one product per pair, spans by enumerating
all linear combinations.
"""

from itertools import product


def greens_j_classes(elements, mul):
    """Partition into J-classes via two-sided ideals, pairwise."""

    def ideal(x):
        out = set()
        for u in elements:
            for v in elements:
                out.add(mul(u, mul(x, v)))
        return frozenset(out)

    ideals = {}
    for x in elements:
        ideals.setdefault(ideal(x), []).append(x)
    return list(ideals.values())


def is_regular(x, elements, mul):
    return any(mul(mul(x, y), x) == x for y in elements)


def pair_closure(pairs, mul_target, mul_source):
    """Close (t, s) pairs under componentwise products; dict-based, no order."""
    closure = dict(pairs)
    if len(closure) != len(set(pairs)):
        raise AssertionError("ambiguous generator pairs")
    changed = True
    while changed:
        changed = False
        items = list(closure.items())
        for t1, s1 in items:
            for t2, s2 in items:
                t = mul_target(t1, t2)
                s = mul_source(s1, s2)
                if t in closure:
                    if closure[t] != s:
                        return None  # not functional
                else:
                    closure[t] = s
                    changed = True
    return closure


def target_closure(gens, mul):
    """Set of all products of ``gens``, closed two-sided frontier by frontier."""
    closure = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for a in frontier:
            for b in closure:
                new.add(mul(a, b))
                new.add(mul(b, a))
        frontier = new - closure
        closure |= frontier
    return closure


def matrix_product(ring, a, b):
    """Entry (i, j) folds ring.add over ring.mul[a[i][k]][b[k][j]], k ascending, from zero."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = ring.zero
            for k in range(n):
                total = ring.add[total][ring.mul[a[i][k]][b[k][j]]]
            row.append(total)
        out.append(tuple(row))
    return tuple(out)


def pairwise_matrix_table(ring, elements):
    """Multiplication table of matrix entry patterns: one product and one dict lookup per pair."""
    index = {v: i for i, v in enumerate(elements)}
    return [[index[matrix_product(ring, a, b)] for b in elements] for a in elements]


def value_product_table(elements, mul):
    """Multiplication table of a carrier's elements: one value product and one
    dict lookup per pair, the fill derived monoids once did themselves."""
    index = {v: i for i, v in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def span_membership(ring, vectors, target):
    """Is target a linear combination of the vectors?  Enumerates all
    coefficient tuples, so only usable for tiny instances."""
    if not vectors:
        return all(x == ring.zero for x in target)
    width = len(target)
    for coeffs in product(range(ring.size), repeat=len(vectors)):
        acc = [ring.zero] * width
        for c, vec in zip(coeffs, vectors):
            for i in range(width):
                acc[i] = ring.add[acc[i]][ring.mul[c][vec[i]]]
        if tuple(acc) == tuple(target):
            return True
    return False


def columns(entries):
    n = len(entries)
    return [tuple(entries[i][j] for i in range(n)) for j in range(n)]


def rows(entries):
    return [tuple(row) for row in entries]
