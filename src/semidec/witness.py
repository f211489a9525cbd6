"""Division witnesses: certificates that one monoid divides another.

A witness holds generator pairs (t, s) in target x source, each one int
row: t's carrier row, then s's index.  Verification closes the pairs
under componentwise multiplication and checks that the closed relation
is the graph of a function from a subsemigroup of the target onto the
source.  A relation that contains the generators, is
closed under products, and is functional is exactly a homomorphism graph,
so nothing else needs checking.  Certificates store only the generator
pairs plus construction provenance; verification always recomputes the
closure, so a serialized witness is independently re-checkable.
"""

from __future__ import annotations

from itertools import product as iter_product

import numpy as np

from semidec.carriers import Descriptors, ProductCarrier, carrier_rows, close_descriptor
from semidec.errors import (
    ContextMismatch,
    FieldRequired,
    InvalidCertificate,
    InvalidMonoid,
    InvalidSpec,
    NotCentral,
    NotFunctional,
    NotIdempotent,
    NotSurjective,
    PreimageMissing,
    SizeLimitExceeded,
    WitnessError,
)
from semidec.monoid import (DEFAULT_LIMIT, ROW, Monoid, close_rows, closure_monoid, direct_product, generating_set,
                            index_closure)
from semidec.semiring import SemiringTable, units
from semidec.wreath import WreathContext, constant_table

ASSIGNMENT_BUDGET = 200_000  # generator-image assignments ``search_division`` tries for one generator set


class DivisionWitness:
    """Generator pairs and, once verified, their closure, both as int rows:
    a target carrier row followed by a source index.  ``pairs`` is one
    ``(g, target.width + 1)`` ``ROW`` array, the rows ``verify`` closes and
    a certificate stores; the closure is ``close_rows``' rows, in closure
    order."""

    def __init__(self, source: Monoid, target, pairs, steps=None, label=""):
        self.source = source
        self.target = target
        self.pairs = np.asarray(pairs, dtype=ROW).reshape(-1, target.width + 1)  # (target row, source index) rows
        self.steps = list(steps or [])
        self.label = label
        self.status = "unverified"
        self.closure_size: int | None = None
        self.failure: str | None = None
        self._rows: np.ndarray | None = None  # the closure's (target row, source index) rows
        self._graph: tuple | None = None  # the closure's (edges, right Cayley graph)
        self._image: Monoid | None = None

    def __repr__(self):
        return f"DivisionWitness({self.label or 'anonymous'}, {self.status})"

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def preimages(self) -> np.ndarray:
        """The closure position of each source element's first closure row;
        verification has shown that every source element has one.  The
        closure position is the element's index in ``image_submonoid()``,
        so this is each source element's least preimage there."""
        _require_verified(self)
        return np.unique(self._rows[:, self.target.width], return_index=True)[1]

    def image_submonoid(self) -> Monoid:
        """The closure's target elements as a restricted monoid.

        The closure's target rows become the monoid through
        ``closure_monoid``, as ``close_generators`` closures do, so an
        element's index is its closure position (``preimages``); a rebuild
        from the "close" descriptor, which lists the pairs' target rows,
        keeps that order.  The closure is keyed by target row, so the
        monoid multiplies along ``verify``'s graph, a table within the bound
        and a trace past it, with no target products but the spot check's
        sample.  The identity is the left identity of the generators, read
        off the graph's rows: a two-sided identity is the only one, and the
        ``Monoid`` check that it is two-sided on every element decides
        whether there is one (there is when the witness pairs the
        identities, as the pipelines do).  Built once, dropping the graph,
        and kept until the witness is verified again.
        """
        _require_verified(self)
        if self._image is not None:
            return self._image
        width = self.target.width
        rows = self._rows[:, :width]
        edges, right = self._graph
        found = np.flatnonzero((right == np.arange(right.shape[1])).all(axis=1))
        if not len(found):
            raise WitnessError("closure has no two-sided identity; cannot form a base monoid")
        label = f"im({self.label})"
        try:
            self._image = closure_monoid(self.target, rows, edges, right, rows[found[0]], label=label,
                                         provenance=close_descriptor(self.target, self.pairs[:, :width],
                                                                     rows[found[0]], label))
        except InvalidMonoid as exc:
            raise WitnessError(f"closure has no two-sided identity; cannot form a base monoid: {exc}") from exc
        self._graph = None
        return self._image


def _require_verified(*witnesses: DivisionWitness) -> None:
    """Raise ``WitnessError`` unless every witness is verified, also under ``python -O``."""
    for w in witnesses:
        if not w.verified:
            raise WitnessError(f"witness {w.label or 'anonymous'} has not been verified")


def verify(w: DivisionWitness, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """Close the pairs and check functionality and surjectivity.

    The closure is ``close_rows`` over the pair rows as they are, keyed on
    the target columns: the distinct generator pairs in input
    order, then each pair times each generator pair, in discovery order, a
    frontier block at a time.  A target value reached again with another
    source element raises ``NotFunctional``.  The witness keeps the closure
    as these rows, with its right Cayley graph.
    """
    source, target = w.source, w.target
    w._image = w._graph = None
    width = target.width
    try:
        try:
            rows, edges, right = close_rows(w.pairs, ProductCarrier(target, source).mul_rows, limit,
                                            "witness closure", key_width=width)
        except NotFunctional as exc:
            old, new = exc.sources
            raise NotFunctional(target.from_row(old[:width]), source.elements[old[width]],
                                source.elements[new[width]]) from None
        covered = np.zeros(len(source), dtype=bool)
        covered[rows[:, width]] = True
        if not covered.all():
            raise NotSurjective([source.elements[i] for i in np.flatnonzero(~covered).tolist()])
    except (NotFunctional, NotSurjective, SizeLimitExceeded) as exc:
        w.status = "failed"
        w.failure = str(exc)
        raise
    w.status = "verified"
    w.closure_size = len(rows)
    w._rows = rows
    w._graph = (edges, right)
    return w


def mapped_witness(source: Monoid, value_map, target, steps=None, label="",
                   limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """Witness pairing the source identity and ``generating_set(source)`` with
    their ``value_map`` images, then verified: it proves the homomorphism these
    pairs generate, which is ``value_map`` wherever that is one.  Each image
    is encoded to its target row once, here."""
    return _generated(source, lambda v: target.to_row(value_map(v)), target, steps, label, limit)


def _generated(source: Monoid, row_map, target, steps, label: str, limit: int) -> DivisionWitness:
    """The verified witness pairing the source identity and
    ``generating_set(source)`` with their target rows under ``row_map``."""
    pairs = [(*row_map(source.elements[i]), i) for i in [source.identity] + generating_set(source)]
    return verify(DivisionWitness(source, target, pairs, steps=steps, label=label), limit)


def identity_witness(m: Monoid, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    return mapped_witness(m, lambda v: v, m, steps=[{"kind": "identity"}],
                          label=f"id({m.label})", limit=limit)


# -- combinators ---------------------------------------------------------------


def times_to_wreath(a: Monoid, b: Monoid, source: Monoid | None = None,
                    limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """A x B divides A wr B via (a, b) -> (constant-a table, b)."""
    ctx = WreathContext(a, b)
    src = source or direct_product(a, b, limit)

    def embed(value):
        return (constant_table(ctx, a.index[value[0]]), b.index[value[1]])

    return mapped_witness(
        src, embed, ctx,
        steps=[{"kind": "times_to_wreath", "left": a.descriptor(), "right": b.descriptor()}],
        label=f"{src.label} into {ctx.label}", limit=limit,
    )


def absorb(top, b: Monoid, c: Monoid, source: Monoid | None = None,
           limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """(top wr B) x C embeds in top wr (B x C).

    The embedded table ignores the C coordinate of its argument, and base
    indices of B x C are row-major.  ``source`` may be a restricted monoid of
    ((table, b), c) values; by default the full product is enumerated under
    the limit.
    """
    from semidec.wreath import enumerate_wreath

    base = direct_product(b, c, limit)
    ctx = WreathContext(top, base)
    if source is None:
        source = direct_product(enumerate_wreath(WreathContext(top, b), limit), c, limit)
    csize = len(c)

    def embed(value):
        (table, b_index), cval = value
        return (tuple(x for x in table for _ in range(csize)), b_index * csize + c.index[cval])

    return mapped_witness(
        source, embed, ctx,
        steps=[{
            "kind": "absorb",
            "top": top.descriptor(), "base": b.descriptor(), "factor": c.descriptor(),
        }],
        label=f"{source.label} into {ctx.label}", limit=limit,
    )


def lift_left(w: DivisionWitness, top, source: Monoid | None = None,
              limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """From A div B derive (top wr A) div (top wr B).

    Lifted tables are constant on the fibers of the verified map B' -> A, so
    they are built as g-compose-phi over the restricted base B'; the
    restriction step records the formal inclusion into top wr B.
    """
    _require_verified(w)
    from semidec.wreath import enumerate_wreath

    sub = w.image_submonoid()
    ctx = WreathContext(top, sub)
    if source is None:
        source = enumerate_wreath(WreathContext(top, w.source), limit)
    phi = w._rows[:, w.target.width].tolist()  # base index -> source index of w
    preim = w.preimages().tolist()  # source index of w -> base index

    def embed(value):
        table, x = value
        return (tuple(table[k] for k in phi), preim[x])

    steps = list(w.steps) + [{
        "kind": "lift_left",
        "top": top.descriptor(),
        "witness": w.label,
        "restrict": {"base_from": w.target.descriptor(), "base_to": sub.descriptor()},
    }]
    return mapped_witness(source, embed, ctx, steps=steps,
                          label=f"lift_left({w.label})", limit=limit)


def lift_right(w: DivisionWitness, base: Monoid, source: Monoid | None = None,
               source_top: Monoid | None = None, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """From A div B derive (A wr C) div (B' wr C), B' the traced image of w in B.

    Preimages apply pointwise.  The source's tables hold indices of
    ``source_top``, by default ``w.source``; another order of A's elements
    may be named there.  B' wr C is a subsemigroup of B wr C; the
    restriction step records the top's inclusion.
    """
    _require_verified(w)
    from semidec.wreath import enumerate_wreath

    sub = w.image_submonoid()
    ctx = WreathContext(sub, base)
    source_top = source_top or w.source
    if source is None:
        source = enumerate_wreath(WreathContext(source_top, base), limit)
    first = w.preimages()
    preim = [int(first[w.source.index[v]]) for v in source_top.elements]  # source top index -> top index

    def embed(value):
        table, c = value
        return (tuple(preim[x] for x in table), c)

    restrict = {"top_from": w.target.descriptor(), "top_to": sub.descriptor()}
    steps = list(w.steps) + [{"kind": "lift_right", "base": base.descriptor(),
                              "witness": w.label, "restrict": restrict}]
    return mapped_witness(source, embed, ctx, steps=steps,
                          label=f"lift_right({w.label})", limit=limit)


def interchange(a: Monoid, b: Monoid, c: Monoid, d: Monoid,
                limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """(A wr B) x (C wr D) divides (A x C) wr (B x D); product indices are row-major."""
    from semidec.wreath import enumerate_wreath

    w1 = enumerate_wreath(WreathContext(a, b), limit)
    w2 = enumerate_wreath(WreathContext(c, d), limit)
    source = direct_product(w1, w2, limit)
    top = direct_product(a, c, limit)
    base = direct_product(b, d, limit)
    ctx = WreathContext(top, base)
    csize, dsize = len(c), len(d)

    def embed(value):
        (f, b_index), (g, d_index) = value
        return (tuple(x * csize + y for x in f for y in g), b_index * dsize + d_index)

    return mapped_witness(
        source, embed, ctx,
        steps=[{"kind": "interchange"}],
        label=f"{source.label} into {ctx.label}", limit=limit,
    )


def augmentation(acting: Monoid, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """The augmented monoid of a transformation monoid divides X~ wr A.

    Generator pairs: each a in A pairs with (constant-identity table, a);
    each point x pairs the constant map onto x with ((b -> constant at x.b), 1).
    The construction is checked by the verifier, never assumed; a failure is
    surfaced as the verifier's error.
    """
    from semidec.families import augmented_monoid, constant_at, constants_monoid

    tables = list(acting.elements)
    point_count = len(tables[0])
    source = augmented_monoid(acting, limit=limit)
    xt = constants_monoid(point_count)
    ctx = WreathContext(xt, acting)
    pairs = []
    for i, aval in enumerate(acting.elements):
        pairs.append((*ctx.to_row((constant_table(ctx, xt.identity), i)), source.index[aval]))
    for x in range(point_count):
        h_x = tuple(xt.index[constant_at(bval[x])] for bval in acting.elements)
        const_x = tuple(x for _ in range(point_count))
        pairs.append((*ctx.to_row((h_x, acting.identity)), source.index[const_x]))
    w = DivisionWitness(
        source, ctx, pairs,
        steps=[{"kind": "augmentation", "acting": acting.descriptor()}],
        label=f"{source.label} into {ctx.label}",
    )
    return verify(w, limit)


def group_with_zero(ring: SemiringTable, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """The multiplicative monoid of a field divides (unit group) x U_1."""
    if not ring.is_field:
        raise FieldRequired(f"{ring.label} is not a field")
    from semidec.families import family, u1

    t1 = family("T", 1, ring)
    t1s = family("T*", 1, ring)
    semilattice = u1()
    target = ProductCarrier(t1s, semilattice)
    pairs = [(*target.to_row((((g,),), 0)), t1.index[((g,),)]) for g in sorted(units(ring))]
    pairs.append((*target.to_row((t1s.identity_value, 1)), t1.index[((ring.zero,),)]))
    w = DivisionWitness(
        t1, target, pairs,
        steps=[{"kind": "group_with_zero", "ring": ring.descriptor()}],
        label=f"{t1.label} into {t1s.label} x U_1",
    )
    return verify(w, limit)


def product_witness(w1: DivisionWitness, w2: DivisionWitness,
                    source: Monoid | None = None, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """Componentwise product: A div B and C div D give A x C div B x D."""
    _require_verified(w1, w2)
    target = ProductCarrier(w1.target, w2.target)
    src = source or direct_product(w1.source, w2.source, limit)
    rows1, rows2 = (w._rows[w.preimages(), :w.target.width].tolist() for w in (w1, w2))
    i1, i2 = w1.source.index, w2.source.index

    def embed(value):
        return rows1[i1[value[0]]] + rows2[i2[value[1]]]

    steps = list(w1.steps) + list(w2.steps) + [{"kind": "product_witness"}]
    return _generated(src, embed, target, steps, f"({w1.label}) x ({w2.label})", limit)


def compose(w1: DivisionWitness, w2: DivisionWitness,
            limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """From S div T and T div U derive S div U.

    Each generator pair (t, s) of the first witness is replaced by
    (least preimage of t under the second witness, s): the target row at
    that preimage's closure position of the second witness.
    """
    _require_verified(w1, w2)
    middle = []
    for row in w1.pairs[:, :w1.target.width].tolist():
        t = w1.target.from_row(row)
        if t not in w2.source.index:
            raise PreimageMissing(f"{t!r} is not an element of the middle monoid")
        middle.append(w2.source.index[t])
    pairs = np.column_stack([w2._rows[w2.preimages()[middle], :w2.target.width], w1.pairs[:, -1]])
    w = DivisionWitness(
        w1.source, w2.target, pairs,
        steps=list(w1.steps) + list(w2.steps) + [{"kind": "compose"}],
        label=f"{w1.source.label} into {getattr(w2.target, 'label', '?')}",
    )
    return verify(w, limit)


# -- exhaustive search ---------------------------------------------------------


def search_division(source: Monoid, target: Monoid, target_limit: int = 12) -> DivisionWitness | None:
    """Exhaustive search for a division witness, or None.

    Enumerates generator subsets of the target in ascending bitmask order
    (one per distinct generated subsemigroup), then all generator-image
    assignments in lexicographic order, verifying each candidate.
    """
    n = len(target)
    if n > target_limit:
        raise SizeLimitExceeded(target_limit, "search target too large")
    if len(source) > n:
        return None
    seen_subs: set[frozenset] = set()
    for mask in range(1, 1 << n):
        gens = [i for i in range(n) if mask >> i & 1]
        closure, _, _ = index_closure(target, gens, "search subsemigroup")
        key = frozenset(closure)
        if key in seen_subs:
            continue
        seen_subs.add(key)
        if len(closure) < len(source):
            continue
        total = len(source) ** len(gens)
        if total > ASSIGNMENT_BUDGET:
            raise SizeLimitExceeded(ASSIGNMENT_BUDGET, "generator assignment enumeration")
        for assignment in iter_product(range(len(source)), repeat=len(gens)):
            pairs = list(zip(gens, assignment))  # a monoid's row is its element index
            w = DivisionWitness(source, target, pairs,
                                steps=[{"kind": "search", "generators": gens}],
                                label=f"search {source.label} in {target.label}")
            try:
                return verify(w, limit=n * len(source) + 1)
            except (NotFunctional, NotSurjective, SizeLimitExceeded):
                continue
    return None


# -- serialization -------------------------------------------------------------


def witness_to_json(w: DivisionWitness, table: Descriptors) -> dict:
    """The certificate of ``w``, its descriptors and steps interned into ``table``.

    Each pair is one flat int list, a row of ``w.pairs`` as ``verify``
    closes it: the target row followed by the source element's index.
    ``source`` and ``target`` are descriptor indices, and ``steps`` lists
    the step index of each step of ``w``, in order.
    """
    verdict = {"status": w.status}
    if w.closure_size is not None:
        verdict["closure_size"] = w.closure_size
    if w.failure is not None:
        verdict["failure"] = w.failure
    return {
        "label": w.label,
        "source": table.intern(w.source.descriptor()),
        "target": table.intern(w.target.descriptor()),
        "pairs": w.pairs.tolist(),
        "steps": [table.intern_step(step) for step in w.steps],
        "verdict": verdict,
    }


def witness_from_json(obj: dict, table: Descriptors) -> DivisionWitness:
    """Rebuild a witness from its certificate, unverified; ``table`` holds
    the document's descriptor and step tables, and each entry is rebuilt
    once per table.

    The pairs are ``carrier_rows`` of the target, each followed by a
    source index, checked in one block and kept as that block: a pair that is not a target row followed
    by a source element's index raises ``InvalidCertificate`` naming it as
    ``pair k``, and so does a pair of nested values as earlier versions
    wrote.  Each step is an index into the step table, and the witness
    holds that entry's nested ``table.step`` view.  Anything else
    malformed, including a reference that names no entry (a step object
    written inline is one) or a descriptor that rebuilds to no monoid,
    such as an ``h_class_group`` of a non-idempotent or a
    ``quotient_central`` by a subgroup that is not central, raises
    ``InvalidCertificate`` too; ``SizeLimitExceeded`` passes through.
    """
    try:
        source = table.monoid(obj["source"])
        target = table.carrier(obj["target"])
        steps = [table.step(ref) for ref in obj.get("steps", [])]
        pairs = obj["pairs"]
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError, ContextMismatch,
            InvalidMonoid, InvalidSpec, NotCentral, NotIdempotent) as exc:
        raise InvalidCertificate(f"{type(exc).__name__}: {exc}") from None
    try:
        pairs = carrier_rows(target, pairs, "pair", source)
    except ValueError as exc:
        raise InvalidCertificate(str(exc)) from None
    return DivisionWitness(source, target, pairs, steps=steps, label=obj.get("label", ""))


def document_to_json(certificates: list[DivisionWitness], composite: DivisionWitness | None = None) -> dict:
    """The certificate document ``{"descriptors", "steps", "certificates"}``,
    plus ``"composite"`` when given: every descriptor and every step stated
    once, in its table."""
    table = Descriptors()
    document = {"certificates": [witness_to_json(w, table) for w in certificates]}
    if composite is not None:
        document["composite"] = witness_to_json(composite, table)
    document["descriptors"] = table.entries
    document["steps"] = table.steps
    return document


def document_from_json(payload) -> tuple[Descriptors, list]:
    """The descriptor and step tables of a certificate document and its
    certificates, the composite last.  Anything else, such as a bundle of
    an earlier version with nested descriptors or without a step table, or
    a table that ``Descriptors`` refuses, raises ``InvalidCertificate``."""
    if not (isinstance(payload, dict) and all(isinstance(payload.get(key), list)
                                              for key in ("descriptors", "steps", "certificates"))):
        raise InvalidCertificate('not a certificate document with "descriptors", "steps" and "certificates" lists')
    try:
        table = Descriptors(payload["descriptors"], payload["steps"])
    except ValueError as exc:
        raise InvalidCertificate(str(exc)) from None
    certificates = list(payload["certificates"])
    if "composite" in payload:
        certificates.append(payload["composite"])
    return table, certificates
