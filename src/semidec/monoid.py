"""Generic finite-monoid engine.

A Monoid is an immutable list of opaque element values (nested int tuples)
in a deterministic canonical order, an identity index, and a total product.
Multiplication tables are materialized up to a size bound; larger monoids
fall back to a memoized value-level oracle.  All structure analyses
(Green's relations, regularity, subgroups, depth, quotients, products,
isomorphism search) work on indices against that product.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from semidec.errors import (
    InvalidMonoid,
    NotCentral,
    NotClosed,
    NotFunctional,
    NotIdempotent,
    SizeLimitExceeded,
)
from semidec.keys import key_hex, value_json

DEFAULT_LIMIT = 100_000
TABLE_BOUND = 4096
_SPOT_TRIPLES = 64


class Monoid:
    def __init__(
        self,
        elements: list,
        identity_value,
        mul_fn=None,
        table=None,
        label: str = "",
        provenance: dict | None = None,
        table_bound: int = TABLE_BOUND,
    ):
        self.elements = list(elements)
        self.index = {v: i for i, v in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("element values must be distinct")
        if identity_value not in self.index:
            raise ValueError("identity value missing from element list")
        self.identity = self.index[identity_value]
        self.label = label
        self.provenance = provenance or {"kind": "opaque"}
        self._mul_fn = mul_fn
        self._memo: dict[tuple[int, int], int] = {}
        self._table = None
        self._greens = None
        if table is not None:
            self._table = np.asarray(table, dtype=np.int32)
        elif mul_fn is not None and len(self.elements) <= table_bound:
            self._table = self._build_table()
        if self._table is None and mul_fn is None:
            raise ValueError("need a multiplication table or oracle")
        self._spot_check()

    def _build_table(self):
        n = len(self.elements)
        table = np.empty((n, n), dtype=np.int32)
        for i in range(n):
            row = table[i]
            for j in range(n):
                row[j] = self._product_index(i, j)
        return table

    def _product_index(self, i: int, j: int) -> int:
        out = self.index.get(self._mul_fn(self.elements[i], self.elements[j]))
        if out is None:
            raise NotClosed.product(self.label, i, j, self.elements)
        return out

    def _spot_check(self):
        n = len(self.elements)
        e = self.identity
        for i in range(n):
            if self.mul(e, i) != i or self.mul(i, e) != i:
                raise InvalidMonoid(self.label, f"identity is not two-sided at element {i}")
        rng = random.Random(0x5EED)
        for _ in range(min(_SPOT_TRIPLES, n * n)):
            a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                raise InvalidMonoid(self.label, f"product not associative at {(a, b, c)}")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Monoid({self.label or 'anonymous'}, order {len(self)})"

    def mul(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        key = (i, j)
        out = self._memo.get(key)
        if out is None:
            out = self._product_index(i, j)
            if len(self._memo) < 4 * DEFAULT_LIMIT:
                self._memo[key] = out
        return out

    def mul_value(self, a, b):
        if self._table is not None:
            return self.elements[self._table[self.index[a], self.index[b]]]
        return self._mul_fn(a, b)

    @property
    def identity_value(self):
        return self.elements[self.identity]

    def products(self, rows, cols) -> np.ndarray:
        """Block of product indices ``rows[i] * cols[j]``, sliced from the table if there is one."""
        if self._table is not None:
            return self._table[np.ix_(rows, cols)]
        block = [[self.mul(i, j) for j in cols] for i in rows]
        return np.array(block, dtype=np.int32).reshape(len(rows), len(cols))

    def table_array(self) -> np.ndarray:
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def descriptor(self) -> dict:
        return self.provenance

    def power(self, i: int, k: int) -> int:
        out = self.identity
        for _ in range(k):
            out = self.mul(out, i)
        return out


def right_closure(gens, mul, limit: int, what: str, key=None):
    """Semigroup generated by ``gens``, enumerated along its right Cayley graph.

    This is the enumeration of Froidure and Pin ("Algorithms for computing
    finite semigroups", 1997): the distinct generators in input order, then
    each element, in discovery order, times each generator in order.  It
    evaluates one product per (element, generator) pair.

    Returns ``(elements, lookup, edges)``: ``lookup`` maps the key of each
    element to its index, and ``edges[i]`` is ``(parent, generator)`` with
    ``elements[i] == mul(elements[parent], generators[generator])``, or
    ``None`` for a generator.  With ``key``, elements sharing a key must be
    equal; a product that breaks this raises ``NotFunctional(key, old,
    new)``.  By induction on word length, every product of generators is
    checked against the element stored under its key.  Raises
    ``SizeLimitExceeded`` past ``limit`` elements.
    """
    elements: list = []
    lookup: dict = {}
    for g in gens:
        k = g if key is None else key(g)
        found = lookup.get(k)
        if found is None:
            lookup[k] = len(elements)
            elements.append(g)
        elif key is not None and elements[found] != g:
            raise NotFunctional(k, elements[found], g)
    if len(elements) > limit:
        raise SizeLimitExceeded(limit, what)
    generators = list(elements)
    edges: list = [None] * len(elements)
    i = 0
    while i < len(elements):
        x = elements[i]
        for j, g in enumerate(generators):
            value = mul(x, g)
            k = value if key is None else key(value)
            found = lookup.get(k)
            if found is None:
                lookup[k] = len(elements)
                elements.append(value)
                edges.append((i, j))
                if len(elements) > limit:
                    raise SizeLimitExceeded(limit, what)
            elif key is not None and elements[found] != value:
                raise NotFunctional(k, elements[found], value)
        i += 1
    return elements, lookup, edges


def close_generators(
    gens,
    mul_fn,
    identity_value,
    limit: int = DEFAULT_LIMIT,
    label: str = "",
    provenance: dict | None = None,
    table_bound: int = TABLE_BOUND,
) -> Monoid:
    """Multiplicative closure of ``gens`` under ``mul_fn``.

    Canonical order is ``right_closure`` discovery order: the distinct
    generators in input order, then each element times each generator.
    The identity is appended at the end if the closure never produces it.
    Deterministic for fixed inputs.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    elements, lookup, _ = right_closure(gens, mul_fn, limit, f"closure of {label or 'generators'}")
    if identity_value not in lookup:
        elements.append(identity_value)
        if len(elements) > limit:
            raise SizeLimitExceeded(limit, "closure plus identity")
    prov = provenance or {"kind": "close", "generators": [value_json(g) for g in gens]}
    return Monoid(
        elements,
        identity_value,
        mul_fn=mul_fn,
        label=label,
        provenance=prov,
        table_bound=table_bound,
    )


def from_elements(
    elements,
    mul_fn,
    identity_value,
    label: str = "",
    provenance: dict | None = None,
    table_bound: int = TABLE_BOUND,
) -> Monoid:
    """Monoid on an explicitly enumerated, multiplication-closed element list."""
    return Monoid(
        list(elements),
        identity_value,
        mul_fn=mul_fn,
        label=label,
        provenance=provenance,
        table_bound=table_bound,
    )


def check_associativity(m: Monoid, full_limit: int = 512, samples: int = 10_000, seed: int = 0xA550C) -> None:
    """Full check up to ``full_limit`` elements, seeded random triples beyond.

    Raises ``InvalidMonoid`` naming the first failing triple found.
    """
    n = len(m)
    if n <= full_limit:
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
        return
    rng = random.Random(seed)
    for _ in range(samples):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if m.mul(m.mul(a, b), c) != m.mul(a, m.mul(b, c)):
            raise InvalidMonoid(m.label, f"product not associative at {(a, b, c)}")


# -- Green's relations -------------------------------------------------------


@dataclass(frozen=True)
class GreensReport:
    l: tuple[int, ...]
    r: tuple[int, ...]
    j: tuple[int, ...]
    h: tuple[int, ...]
    regular: tuple[bool, ...]
    idempotents: tuple[int, ...]
    j_ideal_masks: tuple[int, ...] = field(repr=False)

    def classes(self, kind: str) -> list[list[int]]:
        ids = getattr(self, kind)
        out: list[list[int]] = [[] for _ in range(max(ids) + 1)]
        for x, c in enumerate(ids):
            out[c].append(x)
        return out

    def j_class_count(self) -> int:
        return max(self.j) + 1


def _mask(values) -> int:
    out = 0
    for v in values:
        out |= 1 << int(v)
    return out


def _partition_ids(keys) -> list[int]:
    ids: dict = {}
    out = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out


def greens(m: Monoid) -> GreensReport:
    """L/R/J/H partitions via principal ideal equality, plus regularity.

    Computed once per monoid and kept on it, like its table.  An element is
    regular iff its J-class holds an idempotent.
    """
    if m._greens is not None:
        return m._greens
    table = m.table_array()
    n = len(m)
    r_keys = [_mask(np.unique(table[x, :])) for x in range(n)]
    l_keys = [_mask(np.unique(table[:, x])) for x in range(n)]
    l_ids = _partition_ids(l_keys)
    r_ids = _partition_ids(r_keys)
    # the two-sided ideal S x S is constant on L-classes, so compute one per L-class
    j_of_lclass: dict[int, int] = {}
    j_keys = []
    for x in range(n):
        lc = l_ids[x]
        mask = j_of_lclass.get(lc)
        if mask is None:
            left = np.unique(table[:, x])
            mask = _mask(np.unique(table[left, :]))
            j_of_lclass[lc] = mask
        j_keys.append(mask)
    j_ids = _partition_ids(j_keys)
    h_ids = _partition_ids(list(zip(l_ids, r_ids)))
    idempotents = tuple(x for x in range(n) if table[x, x] == x)
    j_has_idem = {j_ids[e] for e in idempotents}

    masks: list[int] = [0] * (max(j_ids) + 1)
    for x in range(n):
        masks[j_ids[x]] = j_keys[x]
    m._greens = GreensReport(
        tuple(l_ids),
        tuple(r_ids),
        tuple(j_ids),
        tuple(h_ids),
        tuple(j in j_has_idem for j in j_ids),
        idempotents,
        tuple(masks),
    )
    return m._greens


def maximal_subgroup(m: Monoid, e: int) -> Monoid:
    """The H-class of an idempotent ``e`` as a group with identity ``e``."""
    if m.mul(e, e) != e:
        raise NotIdempotent(f"element {e} is not idempotent")
    rep = greens(m)
    members = [x for x in range(len(m)) if rep.h[x] == rep.h[e]]
    values = [m.elements[x] for x in members]
    position = np.full(len(m), -1, dtype=np.int32)
    position[members] = np.arange(len(members), dtype=np.int32)
    table = position[m.products(members, members)]
    label = f"H({m.label}, {e})"
    if (table < 0).any():
        a, b = (int(x) for x in np.argwhere(table < 0)[0])
        raise NotClosed.product(label, a, b, values)
    return Monoid(
        values,
        m.elements[e],
        table=table,
        label=label,
        provenance={
            "kind": "h_class_group",
            "base": m.descriptor(),
            "idempotent": value_json(m.elements[e]),
        },
    )


def is_group(m: Monoid) -> bool:
    e = m.identity
    for x in range(len(m)):
        if not any(m.mul(x, y) == e and m.mul(y, x) == e for y in range(len(m))):
            return False
    return True


def _eventual_period_one(m: Monoid, x: int) -> bool:
    seen = {x: 0}
    cur, k = x, 0
    while True:
        cur = m.mul(cur, x)
        k += 1
        if cur in seen:
            return k - seen[cur] == 1
        seen[cur] = k


def is_aperiodic(m: Monoid) -> bool:
    """No non-trivial subgroups; equivalently x^k = x^(k+1) eventually."""
    return all(_eventual_period_one(m, x) for x in range(len(m)))


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
    rep = greens(m)
    classes = rep.classes("j")
    k = len(classes)
    masks = rep.j_ideal_masks
    order_pairs = []
    above: list[list[int]] = [[] for _ in range(k)]  # above[c] = classes strictly above c
    for a in range(k):
        for b in range(k):
            if a != b and masks[a] | masks[b] == masks[a]:
                order_pairs.append((a, b))
                above[b].append(a)

    h_sizes: dict[int, int] = {}
    for x in range(len(m)):
        h_sizes[rep.h[x]] = h_sizes.get(rep.h[x], 0) + 1
    essential = []
    subgroup_orders: dict[int, int] = {}
    for c, members in enumerate(classes):
        sizes = [h_sizes[rep.h[e]] for e in members if e in set(rep.idempotents)]
        # a class contains a non-trivial subgroup iff some idempotent's H-class is non-trivial
        best = max(sizes) if sizes else 0
        if best > 1:
            essential.append(c)
            subgroup_orders[c] = best

    essential_set = set(essential)
    class_depth: dict[int, int] = {}

    def depth_of(c: int) -> int:
        if c in class_depth:
            return class_depth[c]
        candidates = [depth_of(d) + 1 for d in above[c] if d in essential_set]
        class_depth[c] = max(candidates, default=0)
        return class_depth[c]

    for c in essential:
        depth_of(c)
    class_depth = {c: class_depth[c] for c in essential}
    depth = 1 + max(class_depth.values()) if essential else 0
    census = [0] * depth
    for c in essential:
        census[class_depth[c]] += 1
    k_terms = tuple(
        tuple(c for c in essential if class_depth[c] == i) for i in range(depth)
    )
    return DepthReport(
        k,
        tuple(tuple(c) for c in classes),
        tuple(order_pairs),
        tuple(essential),
        class_depth,
        depth,
        tuple(census),
        subgroup_orders,
        k_terms,
    )


# -- quotients and products --------------------------------------------------


def quotient_by_central_units(m: Monoid, z: list[int]) -> tuple[Monoid, list[int]]:
    """Quotient by a central subgroup of units; returns (quotient, projection).

    Quotient element values are the sorted index tuples of the orbits, in
    first-seen order of the base monoid.
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
    reps = [orbit[0] for orbit in orbits]
    quotient = Monoid(
        orbits,
        orbits[orbit_of[e]],
        table=np.asarray(projection, dtype=np.int32)[m.products(reps, reps)],
        label=f"{m.label}/central" if m.label else "quotient",
        provenance={
            "kind": "quotient_central",
            "base": m.descriptor(),
            "subgroup": [value_json(m.elements[a]) for a in sorted(zset)],
        },
    )
    return quotient, projection


def direct_product(a: Monoid, b: Monoid, table_bound: int = TABLE_BOUND) -> Monoid:
    elements = [(x, y) for x in a.elements for y in b.elements]

    def mul(p, q):
        return (a.mul_value(p[0], q[0]), b.mul_value(p[1], q[1]))

    return from_elements(
        elements,
        mul,
        (a.identity_value, b.identity_value),
        label=f"({a.label} x {b.label})",
        provenance={"kind": "product", "left": a.descriptor(), "right": b.descriptor()},
        table_bound=table_bound,
    )


# -- isomorphism search -------------------------------------------------------


def _cyclic_profile(m: Monoid, x: int) -> tuple[int, int]:
    seen = {x: 1}
    cur, k = x, 1
    while True:
        cur = m.mul(cur, x)
        k += 1
        if cur in seen:
            return (seen[cur], k - seen[cur])  # (index, period)
        seen[cur] = k


def _element_profiles(m: Monoid) -> list[tuple]:
    table = m.table_array()
    out = []
    for x in range(len(m)):
        idx, period = _cyclic_profile(m, x)
        row = len(np.unique(table[x, :]))
        col = len(np.unique(table[:, x]))
        out.append((idx, period, int(table[x, x] == x), row, col))
    return out


def find_generators(m: Monoid) -> list[int]:
    """Greedy generating set, scanning the canonical order."""
    gens: list[int] = []
    closure = {m.identity}
    for x in range(len(m)):
        if x in closure:
            continue
        gens.append(x)
        elements, _, _ = right_closure(gens, m.mul, len(m), "generating set")
        closure = set(elements) | {m.identity}
        if len(closure) == len(m):
            break
    return gens


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
    prof_m = _element_profiles(m)
    prof_n = _element_profiles(n)
    if sorted(prof_m) != sorted(prof_n):
        return False

    gens = find_generators(m)
    # every element is the identity, a generator, or a derived element times
    # a generator
    derived, _, edges = right_closure(gens, m.mul, len(m), "isomorphism search")

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
                y = n.mul(img[derived[parent]], assignment[g])
                if img.setdefault(x, y) != y:
                    return False
        if len(set(img.values())) != size:
            return False
        for x in range(size):
            for y in range(size):
                if img[m.mul(x, y)] != n.mul(img[x], img[y]):
                    return False
        return True

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
                p = m.mul(g, gens[pos])
                q = n.mul(assignment[i], y)
                if prof_m[p] != prof_n[q]:
                    ok = False
                    break
            if ok and backtrack(pos + 1, assignment):
                return True
            assignment.pop()
        return False

    return backtrack(0, [])


# -- exports -------------------------------------------------------------------


def to_json(m: Monoid, include_table: bool = True) -> dict:
    out = {
        "label": m.label,
        "size": len(m),
        "identity": m.identity,
        "elements": [key_hex(v) for v in m.elements],
        "provenance": m.descriptor(),
    }
    if include_table and len(m) <= TABLE_BOUND:
        out["table"] = [[int(x) for x in row] for row in m.table_array()]
    return out


def from_json(obj: dict) -> Monoid:
    """Rebuild a monoid from its JSON form, checking the untrusted table in full.

    The table must be a square array of element indices with the stated
    identity on both sides, and associative; otherwise ``InvalidMonoid``.
    """
    from semidec.keys import decode_key

    elements = [decode_key(bytes.fromhex(k)) for k in obj["elements"]]
    label, n, e = obj.get("label", ""), len(elements), obj["identity"]
    try:
        table = np.array(obj.get("table"))
    except ValueError:  # ragged rows
        table = None
    if table is None or table.shape != (n, n) or table.dtype.kind not in "iu":
        raise InvalidMonoid(label, f"table is not a {n} x {n} array of element indices")
    if table.min() < 0 or table.max() >= n:
        raise InvalidMonoid(label, f"table entry out of range 0..{n - 1}")
    if not isinstance(e, int) or not 0 <= e < n:
        raise InvalidMonoid(label, f"identity index {e!r} out of range")
    # the constructor checks the identity on both sides of every element
    m = Monoid(elements, elements[e], table=table, label=label, provenance=obj.get("provenance"))
    check_associativity(m, full_limit=n)
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
