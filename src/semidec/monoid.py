"""Generic finite-monoid engine.

A Monoid is an immutable list of opaque element values (nested int tuples)
in a deterministic canonical order, an identity index, and one product,
``Monoid.mul_indices``: a gather from a uint16 index table up to a size
bound (``TABLE_BOUND``, below 2**16), past it the word-tracing product of
Froidure and Pin along the monoid's right Cayley graph.  A monoid given a
carrier builds that graph once, by closing its identity and generators
through the carrier; a closure becomes a monoid through ``closure_monoid``,
which hands over the graph ``close_rows`` built.  Derived monoids
(H-classes, central quotients, direct products) give the constructor a
carrier and generators, never a table, so it alone decides whether they
get one, and a monoid's size decides only that, never how it multiplies.
Closures run on fixed-width int rows: every carrier (a Monoid, whose row is
one index column, a wreath context, a product carrier, transformation
tables) converts values with ``to_row``/``from_row`` and multiplies blocks
of rows with ``mul_rows``; ``close_rows`` is the one closure kernel.  All
structure analyses (Green's relations, regularity, subgroups, depth,
quotients, products, the isomorphism check of an explicit index map) work
on indices against that product.  Green's relations read only the right
and left Cayley graphs over a generating set, and so does
``multiplicative``, the one check that an index map is a morphism, so
they are computed the same way on either side of the bound.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest
from operator import ne
from types import SimpleNamespace

import numpy as np

from semidec.errors import (
    InvalidMonoid,
    NotCentral,
    NotClosed,
    NotFunctional,
    NotIdempotent,
    SemidecError,
    SizeLimitExceeded,
)
from semidec.keys import value_from_json, value_json

DEFAULT_LIMIT = 100_000
TABLE_BOUND = 4096
_SPOT_SIDE = 4  # the spot check tries every triple of three seeded sets of this size
ROW = np.int32  # dtype of carrier rows
TABLE = np.uint16  # dtype of Cayley tables: every index below TABLE_BOUND < 2**16 fits
_TABLE_ORDER = int(np.iinfo(TABLE).max) + 1  # most elements a TABLE can index
_BLOCK_CELLS = 1 << 16  # cells per block in ``close_rows`` and the ``generating_set`` row sorts; bounds their working memory


def check_table_order(size: int, what: str) -> None:
    """``SizeLimitExceeded`` unless a ``TABLE`` can index ``size`` elements."""
    if size > _TABLE_ORDER:
        raise SizeLimitExceeded(_TABLE_ORDER, f"table of {what or 'a monoid'} ({size} elements)")


def within_table_bound(size: int) -> bool:
    """Whether a monoid of ``size`` elements gets a table; reads ``TABLE_BOUND`` at call time."""
    return size <= TABLE_BOUND


def check_table_bound(size: int, what: str) -> None:
    """``SizeLimitExceeded`` unless a monoid of ``size`` elements gets a table."""
    if not within_table_bound(size):
        raise SizeLimitExceeded(TABLE_BOUND, f"table of {what or 'a monoid'} ({size} elements)")


class Monoid:
    """A finite monoid: element values, an identity, and one product,
    ``mul_indices``.  Given a ``carrier`` (``width``, ``to_row``, ``from_row``
    and ``mul_rows`` over the element values) and no table, it closes its
    identity and generators through the carrier once (``_close``) and keeps
    the table read off the closure within ``TABLE_BOUND`` elements
    (``_build_table``), else the graph and the closure tree.  ``generators``,
    set by a constructor that knows them, are indices that generate it with
    its identity; a monoid given none records those it finds.  Tables hold
    ``TABLE`` (uint16) indices, so a table for more than 2**16 elements,
    given or built, raises ``SizeLimitExceeded`` before it is converted or
    multiplied; ``mul_rows`` hands indices on as ``ROW`` rows.
    """

    def __init__(
        self,
        elements: list,
        identity_value,
        carrier=None,
        table=None,
        label: str = "",
        provenance: dict | None = None,
        generators=(),
    ):
        self._start(elements, identity_value, label, provenance, generators)
        if table is not None:
            check_table_order(len(self.elements), label)
            self._table = np.asarray(table, dtype=TABLE)
        elif carrier is None:
            raise ValueError("need a multiplication table or carrier")
        else:
            self._multiply_along(*self._close(carrier))
        self._spot_check(carrier)

    def _start(self, elements, identity_value, label, provenance, generators):
        """The element bookkeeping of the constructor and of ``closure_monoid``."""
        self.elements = list(elements)
        self.generators = list(generators)
        self.index = {v: i for i, v in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("element values must be distinct")
        if identity_value not in self.index:
            raise ValueError("identity value missing from element list")
        self.identity = self.index[identity_value]
        self.label = label
        self.provenance = provenance or {"kind": "opaque"}
        self._table = None
        self._graph = None  # past TABLE_BOUND: (right Cayley graph with a fixing last column, tree parents, letters)
        self._greens = None

    def _close(self, carrier):
        """``close_rows`` of the identity and the generators' carrier rows:
        ``(edges, right, at)``, ``at[k]`` the element at closure position
        ``k``.  A row that decodes (``from_row``) to no element raises
        ``NotClosed`` naming its factors, unless the closure outgrows
        ``DEFAULT_LIMIT`` rows first.  Recorded generators that miss
        elements raise ``InvalidMonoid``; without any, the elements not yet
        reached join in index order, closing again each time, and are kept."""
        n, gens = len(self.elements), list(self.generators)
        while True:
            rows = np.array([carrier.to_row(self.elements[x]) for x in [self.identity, *gens]], dtype=ROW)
            closed, edges, right = close_rows(rows.reshape(-1, carrier.width), carrier.mul_rows,
                                              max(n, DEFAULT_LIMIT), f"closure of {self.label or 'a monoid'}")
            at = [self.index.get(v) for v in map(carrier.from_row, closed.tolist())]
            if None in at:
                parent, g = edges[at.index(None)]
                raise NotClosed.product(self.label, at[parent], at[g], self.elements)
            missing = np.flatnonzero(np.bincount(at, minlength=n) == 0)
            if not len(missing):
                self.generators = gens
                return edges, right, np.array(at)
            if self.generators:
                raise InvalidMonoid(self.label, f"its generators reach {n - len(missing)} of {n} elements")
            gens.append(int(missing[0]))

    def _multiply_along(self, edges, right, at):
        """Take the product of a ``close_rows`` closure ``(edges, right)``
        whose position ``k`` is element ``at[k]``: the table within
        ``TABLE_BOUND``, else the graph, with a column ``g`` that fixes every
        element, and the closure tree of each element's parent and last
        letter, whose root ``n`` has the letter ``g``.  The one element
        ``at`` may miss is an identity the closure never produced: it fixes
        every generator and hangs from the root with the empty word."""
        n, g = len(self.elements), right.shape[1]
        graph = np.empty((n, g + 1), dtype=ROW)
        graph[at, :g] = at[right]
        graph[:, g] = np.arange(n)
        if len(at) < n:
            graph[self.identity, :g] = at[:g]
        if within_table_bound(n):
            self._table = self._build_table(edges, graph, at)
            return
        tree = np.array([(-1, k) if edge is None else edge for k, edge in enumerate(edges)], dtype=np.intp)
        parent, letter = np.full(n + 1, n, dtype=ROW), np.full(n + 1, g, dtype=np.min_scalar_type(g))
        parent[at] = np.where(tree[:, 0] < 0, n, at[tree[:, 0]])
        letter[at] = tree[:, 1]
        self._graph = graph, parent, letter

    def _build_table(self, edges, graph, at):
        """The closure's table, column-major: a generator's column is its
        column of the graph, and that of ``y = p * g`` is ``graph[table[:, p],
        g]``, since ``x y = (x p) g``; parents precede their children, so
        each column is one gather, and an identity outside the closure fixes
        every element."""
        n, labels = len(self.elements), at.tolist()
        columns = np.ascontiguousarray(graph.T)  # columns[g]: the graph's column of generator g
        table = np.empty((n, n), dtype=TABLE, order="F")
        table[:, self.identity] = columns[-1]
        for y, edge in enumerate(edges):
            if edge is None:
                table[:, labels[y]] = columns[y]
            else:
                parent, g = edge
                table[:, labels[y]] = columns[g].take(table[:, labels[parent]])
        return table

    def _spot_check(self, carrier):
        """The identity on both sides of every element; then, over three
        seeded sets of ``_SPOT_SIDE`` elements, associativity on every
        triple, and, given a carrier, each ``a_i b_i`` of the first two sets
        against its ``mul_rows``, since traced products meet the carrier
        only along the generators: one that is no element raises
        ``NotClosed``, one that is another element ``InvalidMonoid``."""
        n = len(self.elements)
        e = self.identity
        everything = np.arange(n)
        if self._graph is None:
            fixed = self._table[e] == everything
        else:  # e x = (e p) l = p l = x down the tree once e fixes each generator
            graph, parent, letter = self._graph
            fixed = (parent[:n] != n) | (graph[e, letter[:n]] == everything)
        bad = np.flatnonzero(~fixed | (self.mul_indices(everything, e) != everything))
        if len(bad):
            raise InvalidMonoid(self.label, f"identity is not two-sided at element {bad[0]}")
        k = _SPOT_SIDE
        draws = np.frombuffer(random.Random(0x5EED).randbytes(12 * k), dtype=np.uint32) % n
        a, b, c = draws.reshape(3, k).astype(np.intp)
        # left[i, j, l] = (a_i b_j) c_l and right[i, j, l] = a_i (b_j c_l)
        ab = self.products(a, b)
        left = self.products(ab.ravel(), c).reshape(k, k, k)
        right = self.products(a, self.products(b, c).ravel()).reshape(k, k, k)
        bad = np.argwhere(left != right)
        if len(bad):
            i, j, l = bad[0].tolist()
            raise InvalidMonoid(self.label, f"product not associative at {(int(a[i]), int(b[j]), int(c[l]))}")
        if carrier is None:
            return
        rows = np.array([carrier.to_row(self.elements[x]) for x in [*a, *b, *ab.diagonal()]], dtype=ROW)
        rows = rows.reshape(3 * k, -1)
        through = carrier.mul_rows(rows[:k], rows[k : 2 * k])[np.arange(k), np.arange(k)]  # a_i b_i
        bad = np.flatnonzero((through != rows[2 * k :]).any(axis=1))
        if len(bad):
            x, y = int(a[bad[0]]), int(b[bad[0]])
            if carrier.from_row(through[bad[0]].tolist()) not in self.index:
                raise NotClosed.product(self.label, x, y, self.elements)
            raise InvalidMonoid(self.label, f"the product of elements {x} and {y} is not its carrier's")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Monoid({self.label or 'anonymous'}, order {len(self)})"

    def mul_indices(self, x, y) -> np.ndarray:
        """Elementwise products ``x * y`` of broadcastable index arrays: a
        gather from the table, or ``x`` traced along ``y``'s word, read up
        the tree a level at a time for the whole block, then followed down
        the graph a gather per letter.  An index past the elements raises
        ``IndexError`` either way."""
        if self._table is not None:
            return self._table[x, y]
        graph, parent, letter = self._graph
        x, y = np.broadcast_arrays(graph[x, -1], graph[y, -1])
        path = []
        while (y != len(graph)).any():
            path.append(letter[y])
            y = parent[y]
        for letters in reversed(path):
            x = graph[x, letters]
        return x

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_indices(i, j))

    def mul_value(self, a, b):
        """Product of two element values; anything else raises ``KeyError``."""
        return self.elements[self.mul(self.index[a], self.index[b])]

    @property
    def identity_value(self):
        return self.elements[self.identity]

    # a monoid is a carrier whose row is one index column
    width = 1

    def to_row(self, value) -> tuple:
        return (self.index[value],)

    def from_row(self, row):
        return self.elements[row[0]]

    def mul_rows(self, x, y) -> np.ndarray:
        """Products of index rows, ``out[i, j] = [x[i, 0] * y[j, 0]]``, as ``ROW``
        rows: closures key rows by their bytes, so products must have the
        generators' dtype."""
        return self.products(x[:, 0], y[:, 0]).astype(ROW)[:, :, None]

    def products(self, rows, cols) -> np.ndarray:
        """Block of product indices ``rows[i] * cols[j]``."""
        return self.mul_indices(np.asarray(rows)[:, None], cols)

    def table_array(self) -> np.ndarray:
        """The table; past ``TABLE_BOUND`` every product traced, built on each call and not kept."""
        if self._table is not None:
            return self._table
        check_table_order(len(self), self.label)
        everything = np.arange(len(self))
        return self.products(everything, everything).astype(TABLE)

    def descriptor(self) -> dict:
        return self.provenance


def product_value(carrier, x, y):
    """``x * y`` in a carrier, as a one-row call of its ``mul_rows``: the
    ``mul_value`` of every carrier but ``Monoid``, whose ``mul_value``
    reads its own table, so each carrier keeps one product formula."""
    rows = np.array([carrier.to_row(x), carrier.to_row(y)], dtype=ROW)
    return carrier.from_row(carrier.mul_rows(rows[:1], rows[1:])[0, 0].tolist())


def _row_bytes(rows: np.ndarray) -> list[bytes]:
    """Each row as one bytes object."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _merge(block: np.ndarray, n: int, lookup: dict, key_width: int, tails: list | None, room: int):
    """Index of each row of ``block`` among the ``n`` elements so far, in row order.

    A row whose key (its first ``key_width`` columns) ``lookup`` lacks
    becomes element ``n``, ``n + 1``, ...; only ``room`` new elements fit,
    and the scan stops at the row that would be one too many.  Returns
    ``(found, fresh, stopped)``: the indices of the scanned rows, the
    positions of the new ones, and whether the scan stopped early.  With
    ``tails``, the bytes of each element's columns past the key, extended
    here, the first scanned row whose tail differs from that of the
    element under its key raises ``NotFunctional(index, stored row, new
    row)``, with the rows as int lists.
    """
    keys = _row_bytes(block[:, :key_width])
    rest = None if tails is None else _row_bytes(block[:, key_width:])
    found = list(map(lookup.get, keys))
    fresh: list[int] = []
    stop = len(keys)
    for p in [p for p, f in enumerate(found) if f is None]:
        f = lookup.get(keys[p])
        if f is None:
            if len(fresh) == room:
                stop = p
                break
            f = lookup[keys[p]] = n + len(fresh)
            fresh.append(p)
            if tails is not None:
                tails.append(rest[p])
        found[p] = f
    del found[stop:]
    if tails is not None:
        clash = list(map(ne, map(tails.__getitem__, found), rest))
        if True in clash:
            q = clash.index(True)
            new = block[q].tolist()
            stored = np.frombuffer(tails[found[q]], dtype=block.dtype).tolist()
            raise NotFunctional(found[q], new[:key_width] + stored, new)
    return found, fresh, stop < len(keys)


def close_rows(gens: np.ndarray, mul_rows, limit: int, what: str, key_width: int | None = None):
    """Semigroup generated by the int rows ``gens``, enumerated along its right Cayley graph.

    This is the enumeration of Froidure and Pin ("Algorithms for computing
    finite semigroups", 1997): the distinct generators in input order, then
    each element, in discovery order, times each generator in order.  It
    runs a frontier block at a time: the unexpanded elements are cut into
    blocks of at most ``_BLOCK_CELLS`` product cells, ``mul_rows(block,
    generators)`` multiplies a block by every generator at once, and the
    products are deduped by row bytes in element-major order, which is the
    discovery order of the one-product-at-a-time scan.

    Returns ``(rows, edges, right)``: ``rows`` is the elements' int array,
    which holds no slack of the buffer that grew by doubling, ``edges[i]``
    is ``(parent, generator)`` with ``rows[i]`` the product of
    ``rows[parent]`` and generator ``generator``, or ``None`` for a
    generator, and ``right`` is the right Cayley graph, an int32 array with
    ``right[i, j]`` the index of element ``i`` times generator ``j``.  The
    distinct generators are elements ``0..g-1``.  With ``key_width``,
    elements are keyed by their first ``key_width`` columns, and rows
    sharing a key must be equal: the first product, in scan order, that
    breaks this raises ``NotFunctional(index, stored row, new row)`` with
    the rows as int lists.  By induction on word length, every product of
    generators is checked against the element stored under its key.
    Raises ``SizeLimitExceeded`` past ``limit`` elements.
    """
    width = gens.shape[1]
    tails = None if key_width is None else []
    key_width = width if key_width is None else key_width
    lookup: dict = {}
    _, distinct, _ = _merge(gens, 0, lookup, key_width, tails, len(gens))
    if len(distinct) > limit:
        raise SizeLimitExceeded(limit, what)
    g = n = len(distinct)
    generators = gens[distinct]
    store = np.empty((max(n, 64), width), dtype=ROW)
    store[:n] = generators
    edges: list = [None] * n
    right = array("i")
    step = max(1, _BLOCK_CELLS // max(1, g * width))
    i = 0
    while i < n:
        end = min(n, i + step)
        block = mul_rows(store[i:end], generators).reshape(-1, width)
        found, fresh, stopped = _merge(block, n, lookup, key_width, tails, limit - n)
        if stopped:
            raise SizeLimitExceeded(limit, what)
        right.extend(found)
        if fresh:
            if n + len(fresh) > len(store):
                grown = np.empty((max(n + len(fresh), 2 * len(store)), width), dtype=ROW)
                grown[:n] = store[:n]
                store = grown
            store[n : n + len(fresh)] = block[fresh]
            edges.extend((i + p // g, p % g) for p in fresh)
            n += len(fresh)
        i = end
    graph = np.frombuffer(right, dtype=np.int32).reshape(n, g)
    return store if n == len(store) else store[:n].copy(), edges, graph


def close_generators(
    gens,
    carrier,
    identity,
    limit: int = DEFAULT_LIMIT,
    label: str = "",
    provenance: dict | None = None,
) -> Monoid:
    """Multiplicative closure of the generator rows ``gens`` of a carrier
    (``width``, ``from_row``, ``mul_rows``), in ``close_rows`` order, with
    the identity row ``identity``: the fields of a ``"close"`` descriptor.

    The carrier's ``mul_rows`` on frontier blocks makes the carrier
    products; ``closure_monoid`` turns the closure into the monoid.
    """
    gens = np.asarray(gens, dtype=ROW).reshape(-1, carrier.width)
    if not len(gens):
        raise ValueError("need at least one generator")
    rows, edges, right = close_rows(gens, carrier.mul_rows, limit, f"closure of {label or 'generators'}")
    return closure_monoid(carrier, rows, edges, right, identity, limit, label,
                          provenance or {"kind": "close", "generators": gens.tolist()})


def closure_monoid(carrier, rows, edges, right, identity, limit: int = DEFAULT_LIMIT, label: str = "",
                   provenance: dict | None = None) -> Monoid:
    """The monoid of a ``close_rows`` closure ``(rows, edges, right)`` of
    ``carrier`` rows, with the identity row ``identity``: the rows decode
    once, into the elements in closure order, the closure's generators
    (elements ``0..g-1``) are the monoid's, and its graph is the monoid's
    product, so no carrier product is made again but the spot check's
    sample.  An identity the closure never produces is appended at the end
    once it fixes itself and every generator on both sides, checked by two
    one-row ``mul_rows`` blocks of ``2g + 1`` products; otherwise
    ``InvalidMonoid``."""
    e = np.asarray(identity, dtype=ROW).reshape(1, carrier.width)
    identity_value = carrier.from_row(e[0].tolist())
    elements = [carrier.from_row(row) for row in rows.tolist()]
    if not (rows == e).all(axis=1).any():
        distinct = rows[: right.shape[1]]
        fixed = np.concatenate([e, distinct])
        if not ((carrier.mul_rows(e, fixed)[0] == fixed).all()  # e e and each e g
                and (carrier.mul_rows(distinct, e)[:, 0] == distinct).all()):  # each g e
            raise InvalidMonoid(label, "identity outside the closure does not fix itself and every generator")
        elements.append(identity_value)
        if len(elements) > limit:
            raise SizeLimitExceeded(limit, "closure plus identity")
    m = Monoid.__new__(Monoid)  # the constructor would close the generators again
    m._start(elements, identity_value, label, provenance, range(right.shape[1]))
    m._multiply_along(edges, right, np.arange(len(rows)))
    m._spot_check(carrier)
    return m


def check_associativity(m: Monoid) -> None:
    """Check every triple of ``m``'s table; ``InvalidMonoid`` names the first that fails."""
    n = len(m)
    table = m.table_array()
    step = max(1, (1 << 22) // max(1, n * n))
    for start in range(0, n, step):
        block = table[start : start + step]  # rows for x in this chunk
        left = table[block, :]  # left[i,j,k] = (x_i x_j) x_k
        right = np.take(block, table, axis=1)  # right[i,j,k] = x_i (x_j x_k)
        bad = np.argwhere(left != right)
        if len(bad):
            a, b, c = (int(x) for x in bad[0])
            raise InvalidMonoid(m.label, f"product not associative at {(start + a, b, c)}")


# -- Green's relations -------------------------------------------------------


@dataclass(frozen=True)
class GreensReport:
    l: tuple[int, ...]
    r: tuple[int, ...]
    j: tuple[int, ...]
    h: tuple[int, ...]
    regular: tuple[bool, ...]
    idempotents: tuple[int, ...]
    j_ideals: tuple[frozenset, ...] = field(repr=False)  # j_ideals[c]: the J-classes in the ideal of class c

    def classes(self, kind: str) -> list[list[int]]:
        ids = getattr(self, kind)
        out: list[list[int]] = [[] for _ in range(max(ids) + 1)]
        for x, c in enumerate(ids):
            out[c].append(x)
        return out

    def j_class_count(self) -> int:
        return max(self.j) + 1


def _partition_ids(keys) -> list[int]:
    """Ids numbered by first occurrence: equal keys share one."""
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def _components(graph: np.ndarray) -> list[int]:
    """Strongly connected components of the graph with edges ``x -> graph[x, j]``.

    Tarjan's algorithm (1972), iterative: each node's successors are an
    iterator that a deeper call leaves half read.  Components are numbered
    in the order they complete, which is reverse topological: an edge
    leaves a component only for one with a smaller number.
    """
    succ = graph.tolist()
    order = [-1] * len(succ)  # discovery number
    low = [0] * len(succ)
    comp = [-1] * len(succ)
    stack: list[int] = []
    count = seen = 0
    for root in range(len(succ)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        calls = [(root, iter(succ[root]))]
        while calls:
            v, edges = calls[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    calls.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is on the stack
                    low[v] = order[w]
            else:
                calls.pop()
                if low[v] == order[v]:
                    while comp[v] < 0:
                        comp[stack.pop()] = count
                    count += 1
                if calls and low[v] < low[calls[-1][0]]:
                    low[calls[-1][0]] = low[v]
    return comp


def greens(m: Monoid) -> GreensReport:
    """L/R/J/H partitions from the Cayley graphs, plus regularity.

    The method of Froidure and Pin (1997): over ``gens = generating_set(m)``
    the right Cayley graph has edges ``x -> x g`` and the left one ``x ->
    g x``, N g products read through ``products``, so no table is needed.
    ``xS`` is what ``x`` reaches in the right graph, so the R-classes are
    its strongly connected components; the L-classes are those of the left
    graph, and the J-classes (J = D in a finite monoid) those of both
    graphs together.  The J-order is reachability in that condensation,
    one pass over its K classes in completion order.  Class ids are
    numbered by first occurrence.  Computed once per monoid and kept on
    it, like its table.  An element is regular iff its J-class holds an
    idempotent; the idempotents are the fixed points of ``x -> x x``.
    """
    if m._greens is not None:
        return m._greens
    n = len(m)
    everything = np.arange(n)
    gens = np.array(generating_set(m), dtype=np.intp)
    right = m.products(everything, gens)  # right[x, j] = x g_j
    both = np.hstack([right, m.products(gens, everything).T])  # then the left graph, g_j x
    l_ids = _partition_ids(_components(both[:, len(gens):]))
    r_ids = _partition_ids(_components(right))
    comp = _components(both)
    j_ids = _partition_ids(comp)
    ids = np.array(j_ids)
    below: list[set] = [set() for _ in range(max(j_ids) + 1)]  # below[j]: the classes one edge from class j
    for a, b in set(zip(np.repeat(ids, both.shape[1]).tolist(), ids[both].ravel().tolist())):
        below[a].add(b)
    # Tarjan completes each component after every component it reaches
    ideals: dict[int, frozenset] = {}
    for j in dict(sorted(zip(comp, j_ids))).values():
        ideals[j] = frozenset({j}.union(*(ideals[d] for d in below[j] if d != j)))
    idempotents = tuple(np.flatnonzero(m.mul_indices(everything, everything) == everything).tolist())
    j_has_idem = {j_ids[e] for e in idempotents}
    m._greens = GreensReport(tuple(l_ids), tuple(r_ids), tuple(j_ids), tuple(_partition_ids(zip(l_ids, r_ids))),
                             tuple(j in j_has_idem for j in j_ids), idempotents,
                             tuple(ideals[j] for j in range(len(ideals))))
    return m._greens


def maximal_subgroup(m: Monoid, e: int) -> Monoid:
    """The H-class of an idempotent ``e`` as a group with identity ``e``,
    read off ``greens``, closed through ``m`` as its carrier (a member's row
    is its index in ``m``) from the generators the constructor's scan
    finds; a product outside the class raises ``NotClosed``."""
    if m.mul(e, e) != e:
        raise NotIdempotent(f"element {e} is not idempotent")
    h = greens(m).h
    values = [m.elements[x] for x in range(len(m)) if h[x] == h[e]]
    return Monoid(values, m.elements[e], carrier=m, label=f"H({m.label}, {e})",
                  provenance={"kind": "h_class_group", "base": m.descriptor(), "idempotent": value_json(m.elements[e])})


def is_group(m: Monoid) -> bool:
    """A finite monoid is a group iff it is one H-class (read off ``greens``)."""
    return max(greens(m).h) == 0


def is_aperiodic(m: Monoid) -> bool:
    """No non-trivial subgroups: a finite monoid is aperiodic iff every H-class
    is one element (read off ``greens``)."""
    return max(greens(m).h) + 1 == len(m)


# -- depth -------------------------------------------------------------------


@dataclass(frozen=True)
class DepthReport:
    j_class_count: int
    class_members: tuple[tuple[int, ...], ...]
    order_pairs: tuple[tuple[int, int], ...]  # (above, below), strict J-order
    essential: tuple[int, ...]  # essential class ids
    class_depth: dict  # essential class id -> depth
    depth: int  # monoid depth
    census: tuple[int, ...]  # essential class count per depth
    subgroup_orders: dict  # essential class id -> maximal subgroup order
    k_terms: tuple[tuple[int, ...], ...]  # per depth, essential class ids whose groups multiply

    def to_json(self) -> dict:
        return {
            "j_class_count": self.j_class_count,
            "class_sizes": [len(c) for c in self.class_members],
            "order_pairs": [list(p) for p in self.order_pairs],
            "essential": list(self.essential),
            "class_depth": {str(k): v for k, v in sorted(self.class_depth.items())},
            "depth": self.depth,
            "census": list(self.census),
            "subgroup_orders": {str(k): v for k, v in sorted(self.subgroup_orders.items())},
            "k_terms": [list(t) for t in self.k_terms],
        }


def depth_report(m: Monoid) -> DepthReport:
    """The J-order, the essential classes (those holding a non-trivial
    subgroup) and each one's depth: the longest chain of essential classes
    strictly above it."""
    rep = greens(m)
    classes = rep.classes("j")
    ideals = rep.j_ideals
    order_pairs = tuple((a, b) for a in range(len(classes)) for b in sorted(ideals[a]) if a != b)
    h_sizes = Counter(rep.h)
    idempotents = set(rep.idempotents)
    subgroup_orders: dict[int, int] = {}
    for c, members in enumerate(classes):
        # a class contains a non-trivial subgroup iff some idempotent's H-class is non-trivial
        best = max((h_sizes[rep.h[e]] for e in members if e in idempotents), default=0)
        if best > 1:
            subgroup_orders[c] = best
    essential = tuple(subgroup_orders)
    # a class strictly above another has the larger ideal, so larger ideals go first
    class_depth: dict[int, int] = {}
    for c in sorted(essential, key=lambda c: -len(ideals[c])):
        class_depth[c] = max((class_depth[a] + 1 for a in class_depth if c in ideals[a]), default=0)
    class_depth = dict(sorted(class_depth.items()))
    depth = 1 + max(class_depth.values()) if essential else 0
    k_terms = tuple(tuple(c for c in essential if class_depth[c] == i) for i in range(depth))
    return DepthReport(len(classes), tuple(map(tuple, classes)), order_pairs, essential, class_depth, depth,
                       tuple(map(len, k_terms)), subgroup_orders, k_terms)


# -- quotients and products --------------------------------------------------


def quotient_by_central_units(m: Monoid, z: list[int]) -> tuple[Monoid, list[int]]:
    """Quotient by a central subgroup of units; returns (quotient, projection).

    Quotient element values are the sorted index tuples of the orbits, in
    first-seen order of the base monoid.  The quotient multiplies through a
    carrier of representatives: an orbit's row is its first member, and
    rows multiply in the base, then go to their orbit's first member.  Its
    generators are the projections of ``m.generators``, else of
    ``generating_set(m)``, so a table costs one closure of base products.
    """
    zset = set(z)
    e = m.identity
    if e not in zset:
        raise ValueError("subgroup must contain the identity")
    for a in z:
        for b in z:
            if m.mul(a, b) not in zset:
                raise ValueError("subgroup not closed under multiplication")
        if not any(m.mul(a, b) == e and m.mul(b, a) == e for b in z):
            raise ValueError("subgroup element without inverse in subgroup")
    everything = range(len(m))
    times_z = m.products(everything, z)  # times_z[x, i] = x z_i
    clash = np.argwhere(m.products(z, everything) != times_z.T)
    if len(clash):
        a, x = (int(v) for v in clash[0])
        raise NotCentral((m.elements[z[a]], m.elements[x]))

    orbit_of: dict[int, int] = {}
    orbits: list[tuple[int, ...]] = []
    for x in range(len(m)):
        if x in orbit_of:
            continue
        members = sorted({int(y) for y in times_z[x]})
        oid = len(orbits)
        orbits.append(tuple(members))
        for y in members:
            orbit_of[y] = oid
    projection = [orbit_of[x] for x in range(len(m))]
    label = f"{m.label}/central" if m.label else "quotient"
    gens = dict.fromkeys(projection[g] for g in (m.generators or generating_set(m)))
    leader = np.asarray([orbit[0] for orbit in orbits], dtype=ROW)[projection]  # leader[x]: x's orbit's first member
    carrier = SimpleNamespace(width=1, to_row=lambda orbit: (orbit[0],),
                              from_row=lambda row: orbits[projection[row[0]]],
                              mul_rows=lambda x, y: leader[m.products(x[:, 0], y[:, 0])][:, :, None])
    quotient = Monoid(orbits, orbits[orbit_of[e]], carrier=carrier, label=label, generators=gens,
                      provenance={"kind": "quotient_central", "base": m.descriptor(),
                                  "subgroup": [value_json(m.elements[a]) for a in sorted(zset)]})
    return quotient, projection


def direct_product(a: Monoid, b: Monoid, limit: int = DEFAULT_LIMIT) -> Monoid:
    """``a x b`` in row-major order, multiplied by the product carrier, with
    generators ``gens(a) x {e_b}`` and ``{e_a} x gens(b)`` (``generating_set``).
    More than ``limit`` elements raise ``SizeLimitExceeded`` before any is listed."""
    from semidec.carriers import ProductCarrier

    if len(a) * len(b) > limit:
        raise SizeLimitExceeded(limit, f"direct product of {a.label} and {b.label} ({len(a) * len(b)} elements)")
    elements = [(x, y) for x in a.elements for y in b.elements]
    gens = [x * len(b) + b.identity for x in generating_set(a)]
    gens += [a.identity * len(b) + y for y in generating_set(b)]
    return Monoid(elements, (a.identity_value, b.identity_value), carrier=ProductCarrier(a, b),
                  label=f"({a.label} x {b.label})", generators=gens,
                  provenance={"kind": "product", "left": a.descriptor(), "right": b.descriptor()})


# -- generating sets and isomorphisms -----------------------------------------


def index_closure(m: Monoid, gens, what: str):
    """``close_rows`` of element indices of ``m``: ``(indices, edges, right)``."""
    rows, edges, right = close_rows(np.array(gens, dtype=ROW).reshape(-1, 1), m.mul_rows, len(m), what)
    return rows[:, 0].tolist(), edges, right


def generating_set(m: Monoid) -> list[int]:
    """Greedy generating set of ``m`` with its identity (Froidure and Pin, 1997).

    Scans elements in one order, adding each one the closure so far misses:
    the closure so far times it, then each new element times every generator,
    until no product is new.  With a table, the order is by image size (the
    distinct entries of a row, one sort per row), largest first, then index;
    without, it is ``m.generators``, which the constructor has checked
    generate, so the only products are the closure's."""
    n = len(m)
    if m._table is None:
        order = m.generators
    else:
        everything, step = np.arange(n), max(1, _BLOCK_CELLS // n)
        blocks = (np.sort(m.products(everything[s : s + step], everything), axis=1) for s in range(0, n, step))
        sizes = np.concatenate([np.count_nonzero(np.diff(b, axis=1), axis=1) for b in blocks])
        order = np.argsort(-sizes, kind="stable").tolist()
    gens: list[int] = []
    members = [m.identity]  # the closure so far, with the identity
    inside = np.zeros(n, dtype=bool)
    inside[m.identity] = True
    for x in order:
        if inside[x]:
            continue
        gens.append(x)
        fresh = m.products(members, [x]).ravel()
        while True:
            fresh = list(dict.fromkeys(fresh[~inside[fresh]].tolist()))
            if not fresh:
                break
            inside[fresh] = True
            members.extend(fresh)
            fresh = m.products(fresh, gens).ravel()
        if len(members) == n:
            break
    return gens


def multiplicative(m: Monoid, n: Monoid, f) -> bool:
    """Whether the index map ``f`` (``f[x]`` is the image in ``n`` of element
    ``x`` of ``m``) is a monoid morphism, checked along ``m``'s right Cayley
    graph (Froidure and Pin, 1997): ``f`` keeps the identity, and ``f(x g) =
    f(x) f(g)`` for every element ``x`` and every ``g`` in ``gens =
    generating_set(m)``, two blocks of N g products and no table.  By
    induction on the word length of ``y``, ``f(x y) = f(x) f(y)`` for every
    pair; this is sound only because ``generating_set`` always returns a set
    that generates ``m`` with its identity."""
    f = np.asarray(f, dtype=np.intp)
    gens = np.array(generating_set(m), dtype=np.intp)
    return bool(f[m.identity] == n.identity
                and (n.products(f, f[gens]) == f[m.products(np.arange(len(m)), gens)]).all())


def isomorphic(m: Monoid, n: Monoid, f) -> bool:
    """Whether the index map ``f`` (``f[x]`` is the image in ``n`` of element
    ``x`` of ``m``) is an isomorphism of ``m`` onto ``n``: a bijection whose
    inverse is ``multiplicative``, checked along ``n``'s generators."""
    f = np.asarray(f, dtype=np.intp)
    if not (len(m) == len(n) == len(f) and np.array_equal(np.sort(f), np.arange(len(n)))):
        return False
    inverse = np.empty(len(n), dtype=np.intp)
    inverse[f] = np.arange(len(m))
    return multiplicative(n, m, inverse)


# -- exports -------------------------------------------------------------------


def to_json(m: Monoid) -> dict:
    out = {
        "label": m.label,
        "size": len(m),
        "identity": m.identity,
        "elements": [value_json(v) for v in m.elements],
        "provenance": m.descriptor(),
    }
    if within_table_bound(len(m)):
        out["table"] = m.table_array().tolist()
    return out


def rebuilt(provenance, label: str) -> Monoid:
    """The monoid ``provenance`` names, rebuilt as ``verify`` rebuilds
    descriptors; one that does not rebuild raises ``InvalidMonoid``."""
    from semidec.carriers import rebuild  # carriers imports this module

    try:
        return rebuild(provenance)
    except (LookupError, TypeError, ValueError, OverflowError, RecursionError, SemidecError) as exc:
        raise InvalidMonoid(label, f"provenance does not rebuild: {type(exc).__name__}: {exc}") from None


def from_json(obj) -> Monoid:
    """Rebuild a monoid from its JSON form, checking the untrusted file in full.

    The file must be an object whose ``elements`` are distinct values in
    the ``value_json`` encoding, whose ``identity`` is an element index,
    and whose table is a square array of element indices with that
    identity on both sides, and associative; otherwise ``InvalidMonoid``.
    Past ``TABLE_BOUND``, where ``to_json`` writes no table, a file without
    one is rebuilt from its ``provenance`` instead, and must list the
    rebuilt monoid's elements and identity.
    """
    if not isinstance(obj, dict):
        raise InvalidMonoid("", "monoid file is not a JSON object")
    label, elements, e = obj.get("label", ""), obj.get("elements"), obj.get("identity")
    if not isinstance(elements, list):
        raise InvalidMonoid(label, "elements is missing or not a list")
    try:
        elements = [value_from_json(v) for v in elements]
    except ValueError as exc:
        raise InvalidMonoid(label, str(exc)) from None
    except RecursionError:
        raise InvalidMonoid(label, "an element is nested past the recursion limit") from None
    n = len(elements)
    if len(set(elements)) != n:
        raise InvalidMonoid(label, "element values are not distinct")
    if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
        raise InvalidMonoid(label, f"identity index {e!r} out of range 0..{n - 1}")
    if "table" not in obj and not within_table_bound(n):
        m = rebuilt(obj.get("provenance"), label)
        differs = [f"element {k}" for k, (x, y) in enumerate(zip_longest(m.elements, elements)) if x != y]
        if differs or m.identity != e:
            raise InvalidMonoid(label, f"provenance rebuilds {(differs + ['the identity'])[0]} unlike the file")
        return m
    try:
        table = np.array(obj.get("table"))
    except ValueError:  # ragged rows
        table = None
    if table is None or table.shape != (n, n) or table.dtype.kind not in "iu":
        raise InvalidMonoid(label, f"table is not a {n} x {n} array of element indices")
    if table.min() < 0 or table.max() >= n:
        raise InvalidMonoid(label, f"table entry out of range 0..{n - 1}")
    # the constructor checks the identity on both sides of every element
    m = Monoid(elements, elements[e], table=table, label=label, provenance=obj.get("provenance"))
    check_associativity(m)
    return m


def dot_j_order(depth: dict) -> str:
    """GraphViz rendering of the J-order with essential classes highlighted.

    ``depth`` is the JSON form of a depth report (``DepthReport.to_json()``).
    """
    count = depth["j_class_count"]
    sizes = depth["class_sizes"]
    essential = set(depth["essential"])
    above: dict[int, set[int]] = {c: set() for c in range(count)}
    for a, b in depth["order_pairs"]:
        above[b].add(a)
    lines = ["digraph jorder {", '  rankdir="BT";']
    for c in range(count):
        attrs = f'label="J{c} (size {sizes[c]})"'
        if c in essential:
            attrs += ', style="bold", peripheries=2'
        lines.append(f"  J{c} [{attrs}];")
    # Hasse covers only: drop order pairs implied by transitivity
    for a, b in depth["order_pairs"]:
        if any(a in above[mid] for mid in above[b] if mid != a):
            continue
        lines.append(f"  J{b} -> J{a};")
    lines.append("}")
    return "\n".join(lines) + "\n"
