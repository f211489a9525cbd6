"""Naive reference implementations used only to check the library.

Everything here recomputes results by definition-level brute force,
independently of the package's algorithms: Green's relations by pairwise
ideal comparison and by one ideal mask per row and column of the table
(``greens_by_rows``, with its depth report ``depth_by_rows``), pair and
target closures by plain dict and set loops, the Froidure-Pin closure one
product at a time, the greedy generating set by exact row-image ranking
(``greedy_generating_set``), matrix and carrier tables by one product per pair
(``table_monoid`` builds a monoid from such a table), the tables of
direct products, H-classes and central quotients read off the factors'
or the base's table (``product_table``, ``class_table``,
``projection_table``), the group and
aperiodic predicates by inverses and powers, wreath products on decoded
values, spans by enumerating all linear combinations.  ``CyclicCarrier``
is a carrier for cyclic groups too large for a per-pair table.  The
triangular-matrix helpers below (explicit
matrices, row and column operations, block decomposition) and the
per-point affine maps with their corner embedding serve only the tests:
the library computes every sum of products with one numpy kernel
(``families._semiring_dot``), and these are the per-pair Python
references it is checked against.  ``isomorphic`` decides whether two
monoids are isomorphic with no map given, by backtracking over generator
images pruned by element profiles; the library only checks explicit
maps, along Cayley graphs (``monoid.multiplicative`` and
``monoid.isomorphic``), which ``multiplicative_by_table`` and
``isomorphic_by_table`` check against whole tables, and ``relabelled``
renames a monoid's elements by a permutation.  ``every_element_pairing``
makes certificates pair every source element, not a generating set.
``pair_rows`` encodes (target value, source index) pairs as a witness's
pair rows, ``pair_values`` and ``closure_pairs`` decode a witness's pair
rows and closure rows back into such pairs, and ``preimage_table`` gives
each source element's first closure pair's target value.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from semidec.errors import DimensionMismatch, DimensionTooSmall, SemidecError, SizeLimitExceeded
from semidec.families import identity_entries
from semidec.monoid import DepthReport, GreensReport, Monoid, generating_set, index_closure
from semidec.semiring import SemiringTable


def compose_tables(f, g):
    """Right-action composition of transformation tables: apply f first, then g."""
    return tuple(g[x] for x in f)


def table_monoid(elements, identity, mul, label=""):
    """A monoid whose table is ``value_product_table`` of ``mul``: one value product per pair."""
    elements = list(elements)
    return Monoid(elements, identity, table=value_product_table(elements, mul), label=label)


class CyclicCarrier:
    """The integers mod ``order`` under addition as a carrier; a value is its own one-column row."""

    width = 1

    def __init__(self, order: int):
        self.order = order

    def to_row(self, value) -> tuple:
        return (value,)

    def from_row(self, row):
        return row[0]

    def mul_rows(self, x, y):
        return (x[:, None, :] + y[None, :, :]) % self.order


def is_group_by_inverses(m) -> bool:
    """Every element has a two-sided inverse, pair by pair."""
    e = m.identity
    return all(any(m.mul(x, y) == e and m.mul(y, x) == e for y in range(len(m))) for x in range(len(m)))


def is_aperiodic_by_powers(m) -> bool:
    """Every element's powers settle, ``x^k = x^(k+1)``: each cyclic period is 1."""
    for x in range(len(m)):
        seen, cur = {x}, x
        while (cur := m.mul(cur, x)) not in seen:
            seen.add(cur)
        if m.mul(cur, x) != cur:
            return False
    return True


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


def _mask(values) -> int:
    out = 0
    for v in values:
        out |= 1 << int(v)
    return out


def _partition_ids(keys) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def greens_by_rows(m) -> GreensReport:
    """Green's relations from the table: the ideals of each row and column
    through ``np.unique``, masks set bit by bit, and the J-order as the
    classes whose masks each class's mask contains."""
    table = m.table_array()
    n = len(m)
    r_ids = _partition_ids(_mask(np.unique(table[x, :])) for x in range(n))
    l_ids = _partition_ids(_mask(np.unique(table[:, x])) for x in range(n))
    j_of_lclass: dict[int, int] = {}  # S x S is constant on L-classes
    j_keys = []
    for x in range(n):
        if l_ids[x] not in j_of_lclass:
            j_of_lclass[l_ids[x]] = _mask(np.unique(table[np.unique(table[:, x]), :]))
        j_keys.append(j_of_lclass[l_ids[x]])
    j_ids = _partition_ids(j_keys)
    idempotents = tuple(x for x in range(n) if table[x, x] == x)
    j_has_idem = {j_ids[e] for e in idempotents}
    masks = [0] * (max(j_ids) + 1)
    for x in range(n):
        masks[j_ids[x]] = j_keys[x]
    ideals = [frozenset(b for b, mask in enumerate(masks) if masks[a] | mask == masks[a]) for a in range(len(masks))]
    return GreensReport(
        tuple(l_ids),
        tuple(r_ids),
        tuple(j_ids),
        tuple(_partition_ids(zip(l_ids, r_ids))),
        tuple(j in j_has_idem for j in j_ids),
        idempotents,
        tuple(ideals),
    )


def is_regular(x, elements, mul):
    return any(mul(mul(x, y), x) == x for y in elements)


def pair_rows(target, pairs):
    """(target value, source index) pairs as the rows a ``DivisionWitness`` holds."""
    return [(*target.to_row(t), s) for t, s in pairs]


def _decoded(target, rows):
    width = target.width
    return [(target.from_row(row[:width]), row[width]) for row in rows.tolist()]


def pair_values(w):
    """A witness's generator pairs as (target value, source index) pairs."""
    return _decoded(w.target, w.pairs)


def closure_pairs(w):
    """A verified witness's closure as (target value, source index) pairs, in closure order."""
    return _decoded(w.target, w._rows)


def preimage_table(w):
    """The target value of each source element's first pair in a verified
    witness's closure, by a scan of ``closure_pairs``."""
    first: dict = {}
    for t, s in closure_pairs(w):
        first.setdefault(s, t)
    return [first[s] for s in range(len(w.source))]


def pair_closure(pairs, mul_target, mul_source):
    """Close (t, s) pairs under componentwise products; dict-based, no order."""
    closure, _ = _close_pairs(pairs, mul_target, mul_source)
    return closure


def pair_closure_conflict(pairs, mul_target, mul_source):
    """The first clash of ``pair_closure``'s scan as ``(target, stored source,
    new source)``, or ``None`` when the closure is functional."""
    _, clash = _close_pairs(pairs, mul_target, mul_source)
    return clash


def _close_pairs(pairs, mul_target, mul_source):
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
                        return None, (t, closure[t], s)  # not functional
                else:
                    closure[t] = s
                    changed = True
    return closure, None


def depth_by_rows(m) -> DepthReport:
    """``monoid.depth_report`` over ``greens_by_rows``: the strict J-order
    pair by pair, and each essential class's depth by recursion over the
    essential classes above it."""
    rep = greens_by_rows(m)
    classes = rep.classes("j")
    k = len(classes)
    pairs = tuple((a, b) for a in range(k) for b in range(k) if a != b and b in rep.j_ideals[a])
    h_sizes = [rep.h.count(h) for h in rep.h]
    orders = {}
    for c, members in enumerate(classes):
        best = max([h_sizes[e] for e in members if e in rep.idempotents], default=0)
        if best > 1:
            orders[c] = best
    memo: dict = {}

    def depth_of(c):
        if c not in memo:
            memo[c] = max([depth_of(a) + 1 for a, b in pairs if b == c and a in orders], default=0)
        return memo[c]

    class_depth = {c: depth_of(c) for c in orders}
    depth = 1 + max(class_depth.values(), default=-1)
    k_terms = tuple(tuple(c for c in orders if class_depth[c] == i) for i in range(depth))
    return DepthReport(k, tuple(map(tuple, classes)), pairs, tuple(orders), class_depth, depth,
                       tuple(map(len, k_terms)), orders, k_terms)

def scan_closure(gens, mul, key=None):
    """Froidure-Pin closure one product at a time: the distinct generators in
    input order, then each element, in discovery order, times each generator
    in order.  Returns ``(elements, edges, right)`` with ``right`` nested
    lists; elements sharing a key must be equal, else ``None``."""
    key = key or (lambda v: v)
    elements, lookup = [], {}
    for g in gens:
        if lookup.setdefault(key(g), len(elements)) == len(elements):
            elements.append(g)
        elif elements[lookup[key(g)]] != g:
            return None
    generators = list(elements)
    edges, right = [None] * len(elements), []
    for i, x in enumerate(elements):  # the list grows while it is scanned
        row = []
        for j, g in enumerate(generators):
            value = mul(x, g)
            found = lookup.setdefault(key(value), len(elements))
            if found == len(elements):
                elements.append(value)
                edges.append((i, j))
            elif elements[found] != value:
                return None
            row.append(found)
        right.append(row)
    return elements, edges, right


def _image_sizes(table) -> list[int]:
    """Number of distinct entries in each row of a square table."""
    return [len(set(row)) for row in table.tolist()]


def greedy_generating_set(m: Monoid) -> list[int]:
    """The greedy generating set by exact ranking: elements by the number of
    distinct entries of their table row, largest first, then by index, each
    added when the closure of the identity and the generators so far, redone
    by ``scan_closure``, misses it."""
    sizes = _image_sizes(m.table_array())
    gens: list[int] = []
    closure = {m.identity}
    for x in sorted(range(len(m)), key=lambda x: (-sizes[x], x)):
        if x not in closure:
            gens.append(x)
            closure = set(scan_closure(gens, m.mul)[0]) | {m.identity}
    return gens


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


mul_entries = matrix_product  # the name the triangular-matrix helpers below use


def sum_of(ring, items) -> int:
    """``ring.add`` folded over ``items`` from the ring's zero."""
    total = ring.zero
    for x in items:
        total = ring.add[total][x]
    return total


def pairwise_matrix_table(ring, elements):
    """Multiplication table of matrix entry patterns: one product and one dict lookup per pair."""
    index = {v: i for i, v in enumerate(elements)}
    return [[index[matrix_product(ring, a, b)] for b in elements] for a in elements]


def value_product_table(elements, mul):
    """Multiplication table of a carrier's elements: one value product and one
    dict lookup per pair, the fill derived monoids once did themselves."""
    index = {v: i for i, v in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def wreath_decode(ctx, value):
    """A wreath value ``(top indices, base index)`` as ``(top values, base value)``."""
    table, a = value
    return (tuple(ctx.top.elements[i] for i in table), ctx.base.elements[a])


def wreath_value_product(ctx, x, y):
    """``ctx``'s product on ``(top values, base value)`` elements, the way
    ``WreathContext`` once multiplied them: encode each table as top indices,
    gather ``f[t] * g[t a]`` from the top table, decode the result."""
    (ftab, fbase), (gtab, gbase) = x, y
    top, base = ctx.top, ctx.base
    f = np.array([top.index[v] for v in ftab])
    g = np.array([top.index[v] for v in gtab])
    a = base.index[fbase]
    out = top.table_array()[f, g[base.table_array()[:, a]]]
    return (tuple(top.elements[k] for k in out), base.elements[base.mul(a, base.index[gbase])])


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


def every_element_pairing(monkeypatch):
    """Make ``mapped_witness`` pair every source element, not a generating set.

    A pipeline built under this patch checks, at each mapped step, that the
    every-element relation is functional and onto, a check that pairing a
    generating set does not make at build time.
    """
    import semidec.witness

    def every_other_element(m):
        return [x for x in range(len(m)) if x != m.identity]

    monkeypatch.setattr(semidec.witness, "generating_set", every_other_element)


# -- derived tables from their factors' or base's table --------------------------


def product_table(a: Monoid, b: Monoid) -> np.ndarray:
    """The table of ``a x b`` in row-major order, broadcast from the
    factors' tables: ``(x1, y1) (x2, y2)`` is ``ta[x1, x2] * |b| + tb[y1, y2]``."""
    ta, tb = a.table_array().astype(np.intp), b.table_array().astype(np.intp)
    return (ta[:, None, :, None] * len(b) + tb[None, :, None, :]).reshape(len(a) * len(b), -1)


def class_table(m: Monoid, members: list[int]) -> np.ndarray:
    """The block of ``m``'s table on ``members``, relabelled by position in
    ``members``; a product outside them raises ``ValueError``."""
    position = np.full(len(m), -1)
    position[members] = np.arange(len(members))
    block = position[m.table_array()[np.ix_(members, members)]]
    if (block < 0).any():
        raise ValueError("the class is not closed under products")
    return block


def projection_table(m: Monoid, z: list[int]) -> np.ndarray:
    """The table of ``m``'s quotient by the central units ``z``, the orbits
    ``xZ`` numbered in first-seen order: the orbit of the product of two
    orbits' least members."""
    table = m.table_array()
    projection = np.full(len(m), -1)
    reps: list[int] = []
    for x in range(len(m)):
        if projection[x] < 0:
            projection[table[x, z]] = len(reps)
            reps.append(int(table[x, z].min()))
    return projection[table[np.ix_(reps, reps)]]


# -- isomorphism search, used only by tests -------------------------------------


def _cyclic_profile(rows: list[list[int]], x: int) -> tuple[int, int]:
    seen = {x: 1}
    cur, k = x, 1
    while True:
        cur = rows[cur][x]
        k += 1
        if cur in seen:
            return (seen[cur], k - seen[cur])  # (index, period)
        seen[cur] = k


def _element_profiles(table: np.ndarray, rows: list[list[int]]) -> list[tuple]:
    """Per element: (index, period, idempotent, row-image size, column-image size)."""
    row_sizes, col_sizes = _image_sizes(table), _image_sizes(table.T)
    return [(*_cyclic_profile(rows, x), int(rows[x][x] == x), row_sizes[x], col_sizes[x])
            for x in range(len(rows))]


def multiplicative_by_table(m: Monoid, n: Monoid, f) -> bool:
    """Whether the index map ``f`` from ``m`` to ``n`` keeps the identity and
    every product: ``n``'s products of ``f`` with ``f`` against ``f`` of
    ``m``'s whole table, as one block."""
    f = np.asarray(f, dtype=np.intp)
    return bool(f[m.identity] == n.identity and (n.products(f, f) == f[m.table_array()]).all())


def isomorphic_by_table(m: Monoid, n: Monoid, f) -> bool:
    """Whether ``f`` is a bijection of ``m`` onto ``n`` that ``multiplicative_by_table`` accepts."""
    f = np.asarray(f, dtype=np.intp)
    return (len(m) == len(n) == len(f) and np.array_equal(np.sort(f), np.arange(len(n)))
            and multiplicative_by_table(m, n, f))


def relabelled(m: Monoid, perm) -> Monoid:
    """``m`` with element ``x`` renamed ``perm[x]``; its elements are ``0..N-1``."""
    perm = np.asarray(perm)
    table = np.empty_like(m.table_array())
    table[np.ix_(perm, perm)] = perm[m.table_array()]
    return Monoid(list(range(len(m))), int(perm[m.identity]), table=table, label=f"relabelled {m.label}")


def isomorphic(m: Monoid, n: Monoid, limit: int = 64) -> bool:
    """Monoid isomorphism by backtracking over generator images."""
    if len(m) != len(n):
        return False
    if len(m) > limit or len(n) > limit:
        raise SizeLimitExceeded(limit, "isomorphism search")
    if len(m) == 1:
        return True
    if m.elements == n.elements and np.array_equal(m.table_array(), n.table_array()):
        return True
    table_m, table_n = m.table_array(), n.table_array()
    rows_m, rows_n = table_m.tolist(), table_n.tolist()
    prof_m = _element_profiles(table_m, rows_m)
    prof_n = _element_profiles(table_n, rows_n)
    if sorted(prof_m) != sorted(prof_n):
        return False

    gens = generating_set(m)
    # every element is the identity, a generator, or a derived element times
    # a generator
    derived, edges, _ = index_closure(m, gens, "isomorphism search")

    candidates = [
        [y for y in range(len(n)) if prof_n[y] == prof_m[g]] for g in gens
    ]
    size = len(m)

    def extend(assignment: list[int]) -> bool:
        img: dict[int, int] = {m.identity: n.identity}
        for g, y in zip(gens, assignment):
            if img.setdefault(g, y) != y:
                return False
        for x, edge in zip(derived, edges):
            if edge is not None:
                parent, g = edge
                y = rows_n[img[derived[parent]]][assignment[g]]
                if img.setdefault(x, y) != y:
                    return False
        if len(set(img.values())) != size:
            return False
        f = np.array([img[x] for x in range(size)])
        return bool((f[table_m] == table_n[f[:, None], f[None, :]]).all())

    def backtrack(pos: int, assignment: list[int]) -> bool:
        if pos == len(gens):
            return extend(assignment)
        for y in candidates[pos]:
            if y in assignment:
                continue
            assignment.append(y)
            # cheap partial consistency: products of assigned generators must
            # land on elements with matching profiles
            ok = True
            for i, g in enumerate(gens[: pos + 1]):
                p = rows_m[g][gens[pos]]
                q = rows_n[assignment[i]][y]
                if prof_m[p] != prof_n[q]:
                    ok = False
                    break
            if ok and backtrack(pos + 1, assignment):
                return True
            assignment.pop()
        return False

    return backtrack(0, [])


# -- triangular matrices, used only by tests ------------------------------------

Entries = tuple[tuple[int, ...], ...]


class RingMismatch(SemidecError):
    pass


class IllegalDirection(SemidecError):
    pass


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



def matrix(ring: SemiringTable, rows) -> TriMatrix:
    entries = tuple(tuple(int(x) for x in row) for row in rows)
    return TriMatrix(len(entries), entries, ring)


def identity(ring: SemiringTable, n: int) -> TriMatrix:
    return TriMatrix(n, identity_entries(ring, n), ring)


def zero_matrix(ring: SemiringTable, n: int) -> TriMatrix:
    z = ring.zero
    return TriMatrix(n, tuple(tuple(z for _ in range(n)) for _ in range(n)), ring)


def mat_mul(a: TriMatrix, b: TriMatrix) -> TriMatrix:
    if a.ring is not b.ring and a.ring != b.ring:
        raise RingMismatch(f"{a.ring.label} vs {b.ring.label}")
    if a.n != b.n:
        raise DimensionMismatch(f"{a.n} vs {b.n}")
    entries = mul_entries(a.ring, a.entries, b.entries)
    assert is_triangular_entries(a.ring, entries)
    return TriMatrix(a.n, entries, a.ring)


def classify(m: TriMatrix) -> dict:
    """Flags: triangular (always), unitriangular, subidentity."""
    ring = m.ring
    unitri = all(m.entries[i][i] in (ring.zero, ring.one) for i in range(m.n))
    subid = unitri and all(
        m.entries[i][j] == ring.zero for i in range(m.n) for j in range(m.n) if i != j
    )
    return {"triangular": True, "unitriangular": unitri, "subidentity": subid}


@dataclass(frozen=True)
class ElementaryOp:
    """``add``: add scalar * (row/column ``source``) to row/column ``target``.
    ``scale``: multiply row/column ``target`` by scalar."""

    kind: str  # "add" | "scale"
    target: int
    scalar: int
    source: int | None = None


def elementary_matrix(ring: SemiringTable, n: int, op: ElementaryOp, rows: bool) -> TriMatrix:
    ent = [list(row) for row in identity_entries(ring, n)]
    if op.kind == "scale":
        ent[op.target][op.target] = op.scalar
    elif op.kind == "add":
        if rows:
            # row target += scalar * row source; as left multiplication the
            # factor has `scalar` at (target, source), triangular iff target < source
            if not op.target < op.source:
                raise IllegalDirection("rows may only receive multiples of rows below them")
            ent[op.target][op.source] = op.scalar
        else:
            if not op.target > op.source:
                raise IllegalDirection("columns may only receive multiples of columns to their left")
            ent[op.source][op.target] = op.scalar
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")
    return TriMatrix(n, tuple(tuple(r) for r in ent), ring)


def apply_row_op(m: TriMatrix, op: ElementaryOp) -> TriMatrix:
    """Apply a row operation; equals left multiplication by a triangular matrix."""
    left = elementary_matrix(m.ring, m.n, op, rows=True)
    out = mat_mul(left, m)
    ent = [list(row) for row in m.entries]
    if op.kind == "scale":
        ent[op.target] = [m.ring.mul[op.scalar][x] for x in ent[op.target]]
    else:
        ent[op.target] = [
            m.ring.add[ent[op.target][j]][m.ring.mul[op.scalar][ent[op.source][j]]]
            for j in range(m.n)
        ]
    assert out.entries == tuple(tuple(r) for r in ent)
    return out


def apply_col_op(m: TriMatrix, op: ElementaryOp) -> TriMatrix:
    """Apply a column operation; equals right multiplication by a triangular matrix."""
    right = elementary_matrix(m.ring, m.n, op, rows=False)
    out = mat_mul(m, right)
    ent = [list(row) for row in m.entries]
    if op.kind == "scale":
        for i in range(m.n):
            ent[i][op.target] = m.ring.mul[ent[i][op.target]][op.scalar]
    else:
        for i in range(m.n):
            ent[i][op.target] = m.ring.add[ent[i][op.target]][
                m.ring.mul[ent[i][op.source]][op.scalar]
            ]
    assert out.entries == tuple(tuple(r) for r in ent)
    return out


@dataclass(frozen=True)
class BlockParts:
    """Top-left block, top-right column, bottom-right scalar of a matrix."""

    M: TriMatrix
    v: tuple[int, ...]
    c: int

    def reassemble(self) -> TriMatrix:
        ring, m = self.M.ring, self.M.n
        rows = [tuple(self.M.entries[i]) + (self.v[i],) for i in range(m)]
        rows.append(tuple(ring.zero for _ in range(m)) + (self.c,))
        return TriMatrix(m + 1, tuple(rows), ring)


def block_decompose(s: TriMatrix) -> BlockParts:
    if s.n < 2:
        raise DimensionTooSmall("block decomposition needs dimension >= 2")
    m = s.n - 1
    top = TriMatrix(m, tuple(tuple(s.entries[i][:m]) for i in range(m)), s.ring)
    v = tuple(s.entries[i][m] for i in range(m))
    parts = BlockParts(top, v, s.entries[m][m])
    assert parts.reassemble().entries == s.entries
    return parts


# -- affine maps, one point at a time -------------------------------------------

Vector = tuple[int, ...]


@dataclass(frozen=True)
class AffineMap:
    """``v -> v @ X + c`` with X upper triangular, or ``v -> v*lam + c``.

    Exactly one of ``x`` (matrix entries) and ``scaling`` (a ring index) is
    set.  This is the formal presentation; over degenerate semirings two
    presentations may induce the same transformation of R^dim.  Vectors
    are row vectors acted on from the right, so composition reads left to
    right.
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
            ring.add[sum_of(ring, (ring.mul[v[i]][x[i][j]] for i in range(self.dim)))][self.c[j]]
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


def identity_affine(ring: SemiringTable, dim: int) -> AffineMap:
    return scaling_map(ring, dim, ring.one, tuple(ring.zero for _ in range(dim)))


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


def points(ring: SemiringTable, n: int) -> list[tuple[int, ...]]:
    return list(product(range(ring.size), repeat=n))


def point_index(ring: SemiringTable, n: int) -> dict[tuple[int, ...], int]:
    return {p: i for i, p in enumerate(points(ring, n))}


def transformation_of_affine(f: AffineMap) -> tuple[int, ...]:
    """The table of ``f`` over the points of R^dim in lexicographic order, one point at a time."""
    idx = point_index(f.ring, f.dim)
    return tuple(idx[f.apply(p)] for p in points(f.ring, f.dim))


def affine_presentations(kind: str, dim: int, ring: SemiringTable) -> list[AffineMap]:
    """The presentations of ``kind`` ("AS", "AT" or "A") in lexicographic
    pattern order: matrix-major, then shift."""
    shifts = points(ring, dim)
    if kind == "AS":
        return [scaling_map(ring, dim, lam, c) for lam in range(ring.size) for c in shifts]
    mats = [x for x in product(shifts, repeat=dim) if kind == "A" or is_triangular_entries(ring, x)]
    return [AffineMap(dim, ring, c, x=x) for x in mats for c in shifts]


def affine_elements(kind: str, dim: int, ring: SemiringTable) -> list[tuple[int, ...]]:
    """The tables the presentations of ``kind`` induce, each where it first
    appears, one point at a time; a starred kind keeps only the
    permutations among them, its unit group."""
    tables = dict.fromkeys(transformation_of_affine(f) for f in affine_presentations(kind.rstrip("*"), dim, ring))
    return [t for t in tables if not kind.endswith("*") or len(set(t)) == len(t)]
