"""Decomposition pipelines for triangular matrix monoids.

The ring pipeline certifies, end to end, that the n x n triangular monoid
divides a right-nested wreath chain of affine scaling monoids over the
multiplicative monoid to the n-th power.  Every step is a verified
division witness from the current traced image into the next carrier, and
all wreath bases are restricted to the traced sub-monoids, which is what
keeps degree 3 feasible.

The field pipeline refines that chain over a finite field into the
alternating form

    C^(n-1) wr G_(n-1) wr ... wr C^1 wr [G_1 x D^n] wr U^n

with C^i the constants monoid on k^i points, G_i the affine scaling group,
D the field's unit group and U the two-element semilattice, giving group
length n-1.  Each replacement (augmentation, group-with-zero, the
innermost product assembly) is certified by its own verified witness.

The census half (``verify_census``) needs only the family and monoid
layers.  The witness, carrier and wreath layers are imported inside the
functions that call them, so importing this module, or running the
census, loads none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from semidec.errors import (CensusMismatch, DimensionMismatch, DimensionTooSmall, FieldRequired, InvalidSpec,
                            PipelineCheckFailed)
from semidec.families import (
    _semiring_dot,
    affine_matrices,
    affine_tables,
    constants_monoid,
    family,
    identity_entries,
    point_codes,
    point_grid,
    u1,
)
from semidec.monoid import (
    DEFAULT_LIMIT,
    ROW,
    Monoid,
    close_generators,
    depth_report,
    direct_product,
    generating_set,
    greens,
    is_aperiodic,
    is_group,
    isomorphic,
    maximal_subgroup,
    multiplicative,
)
from semidec.semiring import SemiringTable, units


def _require(ok: bool, check: str) -> None:
    """Raise ``PipelineCheckFailed`` naming ``check`` unless it holds, also under ``python -O``."""
    if not ok:
        raise PipelineCheckFailed(check)


def _require_degree(n: int, what: str) -> None:
    """Raise ``DimensionTooSmall`` unless ``n >= 2``, also under ``python -O``."""
    if n < 2:
        raise DimensionTooSmall(f"{what} needs degree >= 2, got {n}")


# -- the inductive splitting step ---------------------------------------------


def _scalings(ring: SemiringTable, m: int, lams) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
    """The scaling presentations ``v -> v * lam + c`` of R^m for ``lam`` in
    ``lams``, lam-major, then ``c`` lexicographic: their lam and shift
    arrays and their ``affine_tables`` rows."""
    pts = point_grid(ring, m)
    lam, shifts = np.repeat(np.asarray(lams, dtype=pts.dtype), len(pts)), np.tile(pts, (len(lams), 1))
    return lam, shifts, list(map(tuple, affine_tables(ring, affine_matrices("AS", m, ring)[lam], shifts).tolist()))


def induction_step(n: int, ring: SemiringTable, limit: int = DEFAULT_LIMIT) -> DivisionWitness:
    """Split T_n as [AS_(n-1) wr T_(n-1)] x T_1, injectively.

    Each matrix s with blocks (M, v, c) maps to ((f, M), c), f and M as wreath
    indices, where f sends X to the scaling map w -> (X v)^T + w c.  Every
    ``X v`` is one ``_semiring_dot`` over the elements X of T_(n-1), and
    every scaling table one ``affine_tables`` row, looked up in AS_(n-1)
    once for all (lam, shift).  The witness pairs the identity and a
    generating set of T_n with their splits; verification confirms they
    generate a homomorphism, and closure exactly |T_n| makes it injective.
    """
    from semidec.carriers import ProductCarrier
    from semidec.witness import mapped_witness
    from semidec.wreath import WreathContext

    _require_degree(n, "induction_step")
    m = n - 1
    t_n = family("T", n, ring, limit)
    t_prev = family("T", m, ring, limit)
    as_prev = family("AS", m, ring, limit)
    t_1 = family("T", 1, ring, limit)
    ctx = WreathContext(as_prev, t_prev)
    target = ProductCarrier(ctx, t_1)
    found = [as_prev.index.get(t) for t in _scalings(ring, m, range(ring.size))[2]]
    _require(None not in found, f"induction_step: scaling table in {as_prev.label}")
    scaling = np.array(found).reshape(ring.size, -1)  # scaling[lam, c's point code]
    add, mul = np.array(ring.add), np.array(ring.mul)
    tops = np.array(t_prev.elements)

    def split(entries):
        top = tuple(tuple(entries[i][:m]) for i in range(m))
        v = np.array([entries[i][m:m + 1] for i in range(m)])  # a column
        c = entries[m][m]
        xv = _semiring_dot(add, mul, ring.zero, tops, v)[..., 0]  # row k: X v for the k-th X
        table = tuple(scaling[c, point_codes(ring, xv)].tolist())
        return ((table, t_prev.index[top]), ((c,),))

    w = mapped_witness(
        t_n, split, target,
        steps=[{"kind": "induction_step", "n": n, "ring": ring.descriptor()}],
        label=f"{t_n.label} split at degree {m}", limit=limit,
    )
    _require(w.closure_size == len(t_n), "induction_step: splitting map is injective")
    return w


# -- plans ---------------------------------------------------------------------


@dataclass
class Term:
    name: str
    tag: str  # "group" | "aperiodic" | "mixed"
    order: int
    descriptor: dict

    def to_json(self) -> dict:
        return {"name": self.name, "tag": self.tag, "order": self.order}


@dataclass
class DecompositionPlan:
    pipeline: str  # "ring" | "field"
    n: int
    ring_label: str
    terms: list[Term]
    group_length: int | None
    skeleton: list[str]
    witnesses: list[DivisionWitness]
    composite: DivisionWitness | None
    notes: list[str] = dc_field(default_factory=list)

    def summary(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "n": self.n,
            "ring": self.ring_label,
            "terms": [t.to_json() for t in self.terms],
            "group_length": self.group_length,
            "skeleton": self.skeleton,
            "composite_verified": bool(self.composite and self.composite.verified),
            "composite_closure": self.composite.closure_size if self.composite else None,
            "step_count": len(self.witnesses),
            "notes": self.notes,
        }


@dataclass
class _ChainLevel:
    """Shape of a chain carrier: scaling-monoid top over a base that is
    either a deeper level's traced image or the product-of-scalars leaf."""

    top: Monoid
    base: Monoid
    inner: "_ChainLevel | None"


def _traced_left(mid: Monoid, top: Monoid, base: Monoid, label: str) -> Monoid:
    """Left components of a traced image of pairs, a monoid inside top wr base.

    The left projection of a product carrier is a homomorphism, so the left
    components of ``mid``'s identity and ``generating_set(mid)`` generate
    it.  Distinct, they are encoded to ``ctx`` rows once; the monoid is
    their ``close_generators`` closure, and its ``"close"`` descriptor
    lists those rows, so build and rebuild are one call with one element
    order.
    """
    from semidec.carriers import close_descriptor
    from semidec.wreath import WreathContext

    ctx = WreathContext(top, base)
    gens = dict.fromkeys(mid.elements[x][0] for x in [mid.identity] + generating_set(mid))
    rows = np.array([ctx.to_row(v) for v in gens], dtype=ROW).reshape(len(gens), ctx.width)
    return close_generators(rows, ctx, rows[0], label=label, provenance=close_descriptor(ctx, rows, rows[0], label))


def _then(run: DivisionWitness, make, steps: list[DivisionWitness], limit: int) -> DivisionWitness:
    """One pipeline step: the witness ``make`` builds on ``run``'s image,
    appended to ``steps``, then composed after ``run``."""
    from semidec.witness import compose

    w = make(run.image_submonoid())
    steps.append(w)
    return compose(run, w, limit)


def _chain_witness(n: int, ring: SemiringTable, limit: int,
                   steps_out: list[DivisionWitness]) -> tuple[DivisionWitness, _ChainLevel]:
    from semidec.witness import absorb, identity_witness, lift_left, product_witness

    t_1 = family("T", 1, ring, limit)
    if n == 2:
        w_lem = induction_step(2, ring, limit)
        steps_out.append(w_lem)
        as_1 = family("AS", 1, ring, limit)
        w = _then(w_lem, lambda mid: absorb(as_1, t_1, t_1, source=mid, limit=limit), steps_out, limit)
        return w, _ChainLevel(as_1, direct_product(t_1, t_1, limit), None)

    w_prev, info_prev = _chain_witness(n - 1, ring, limit, steps_out)
    as_top = family("AS", n - 1, ring, limit)
    w_lem = induction_step(n, ring, limit)
    steps_out.append(w_lem)

    def lift_split(mid):
        left_monoid = _traced_left(mid, as_top, family("T", n - 1, ring, limit), f"traced left of {mid.label}")
        w_lift = lift_left(w_prev, as_top, source=left_monoid, limit=limit)
        steps_out.append(w_lift)
        return product_witness(w_lift, identity_witness(t_1, limit), source=mid, limit=limit)

    w_run = _then(w_lem, lift_split, steps_out, limit)
    sub_base = w_prev.image_submonoid()
    w_run = _then(w_run, lambda mid: absorb(as_top, sub_base, t_1, source=mid, limit=limit), steps_out, limit)
    w_push, pushed = _push_scalar(direct_product(sub_base, t_1, limit), info_prev, t_1, limit, steps_out)
    w_run = _then(w_run, lambda mid: lift_left(w_push, as_top, source=mid, limit=limit), steps_out, limit)
    return w_run, _ChainLevel(as_top, w_push.image_submonoid(), pushed)


def _push_scalar(prod: Monoid, info: _ChainLevel, t_1: Monoid,
                 limit: int, steps_out: list[DivisionWitness]) -> tuple[DivisionWitness, _ChainLevel]:
    """Witness (B x T_1) div (top wr (base x T_1) ...), absorbing the scalar
    factor through every wreath level down to the scalar-product leaf."""
    from semidec.witness import absorb, lift_left

    w_abs = absorb(info.top, info.base, t_1, source=prod, limit=limit)
    steps_out.append(w_abs)
    new_base = direct_product(info.base, t_1, limit)
    if info.inner is None:
        return w_abs, _ChainLevel(info.top, new_base, None)
    w_inner, inner_info = _push_scalar(new_base, info.inner, t_1, limit, steps_out)
    w = _then(w_abs, lambda mid: lift_left(w_inner, info.top, source=mid, limit=limit), steps_out, limit)
    return w, _ChainLevel(info.top, w_inner.image_submonoid(), inner_info)


def _tag(m: Monoid) -> str:
    if is_group(m):
        return "group"
    if is_aperiodic(m):
        return "aperiodic"
    return "mixed"


def _fold_product(monoids: list[Monoid], limit: int) -> Monoid:
    out = monoids[0]
    for nxt in monoids[1:]:
        out = direct_product(out, nxt, limit)
    return out


def ring_pipeline(n: int, ring: SemiringTable, limit: int = DEFAULT_LIMIT) -> DecompositionPlan:
    """Certified chain AS_(n-1) wr ... wr AS_1 wr T_1^n over any semiring.

    The chain is assembled from the inductive splitting step plus absorb
    steps that push each trailing scalar factor to the innermost level;
    the composite witness covers all of T_n.
    """
    _require_degree(n, "pipeline")
    steps: list[DivisionWitness] = []
    composite, _info = _chain_witness(n, ring, limit, steps)
    t_1 = family("T", 1, ring, limit)
    terms: list[Term] = []
    skeleton: list[str] = []
    for i in range(n - 1, 0, -1):
        as_i = family("AS", i, ring, limit)
        terms.append(Term(as_i.label, _tag(as_i), len(as_i), as_i.descriptor()))
        skeleton.append(as_i.label)
    scalars = _fold_product([t_1] * n, limit)
    name = f"{t_1.label}^{n}"
    terms.append(Term(name, _tag(scalars), len(scalars), scalars.descriptor()))
    skeleton.append(name)
    _require(composite.verified and composite.closure_size == len(family("T", n, ring, limit)),
             "ring_pipeline: composite closure is all of T_n")
    return DecompositionPlan(
        pipeline="ring",
        n=n,
        ring_label=ring.label,
        terms=terms,
        group_length=None,
        skeleton=skeleton,
        witnesses=steps,
        composite=composite,
        notes=["terms of the semiring chain are generally mixed; no alternating form is claimed"],
    )


def _regroup(source: Monoid, value_map, target, label: str, limit: int) -> DivisionWitness:
    from semidec.witness import mapped_witness

    return mapped_witness(source, value_map, target,
                          steps=[{"kind": "regroup", "label": label}], label=label, limit=limit)


def check_scaling_group_embedding(m: int, n: int, ring: SemiringTable,
                                  limit: int = DEFAULT_LIMIT) -> None:
    """Each degree-m scaling group embeds in the degree-n triangular group.

    The presentations v -> v*lam + c (lam a unit, c a point) must give
    exactly AS*_m (their ``affine_tables`` rows); their corner embeddings
    [[1, c], [0, lam I]], padded with an identity block to degree n, must
    be distinct elements of T*_n, and ``at``, mapping each AS*_m index to
    its image's T*_n index, must be ``multiplicative`` along AS*_m's
    generators, with no table.  Otherwise ``PipelineCheckFailed``.
    """
    if not ring.is_field:
        raise FieldRequired(f"{ring.label} is not a field")
    if not 1 <= m <= n - 1:
        raise DimensionMismatch(f"scaling degree {m} is not in 1..{n - 1}")
    star = family("AS*", m, ring, limit)
    t_star = family("T*", n, ring, limit)
    lams, shifts, tables = _scalings(ring, m, sorted(units(ring)))
    _require(len(set(tables)) == len(tables) and set(tables) == set(star.elements),
             f"scaling embedding: presentations cover {star.label} exactly")
    corners = np.tile(np.array(identity_entries(ring, n)), (len(lams), 1, 1))
    corners[:, 0, 1:m + 1] = shifts
    corners[:, np.arange(1, m + 1), np.arange(1, m + 1)] = lams[:, None]
    images = [tuple(map(tuple, c)) for c in corners.tolist()]
    found = [t_star.index.get(v) for v in images]
    _require(len(set(images)) == len(images) and None not in found,
             f"scaling embedding: injective into {t_star.label}")
    at = np.empty(len(star), dtype=np.intp)
    at[[star.index[t] for t in tables]] = found
    _require(multiplicative(star, t_star, at), "scaling embedding: multiplicative")


def field_pipeline(n: int, ring: SemiringTable, limit: int = DEFAULT_LIMIT) -> DecompositionPlan:
    """Alternating decomposition over a finite field, group length n-1.

    Builds on the ring chain: each scaling monoid divides constants wr its
    unit group (augmentation), each scalar factor divides units x U_1, and
    the innermost product assembles into [AS*_1 x D^n] wr U_1^n, composed
    end to end into one verified witness.  All replacement witnesses are
    verified; the ring composite certifies the chain they refine.
    """
    from semidec.carriers import ProductCarrier
    from semidec.witness import (absorb, augmentation, compose, group_with_zero, identity_witness, lift_left,
                                 lift_right, product_witness, times_to_wreath)

    if not ring.is_field:
        raise FieldRequired(f"{ring.label} is not a field")
    _require_degree(n, "pipeline")
    ring_plan = ring_pipeline(n, ring, limit)
    steps = list(ring_plan.witnesses)
    notes = [
        "composite certifies the inductive chain; the displayed innermost product term "
        "is certified by its own assembly witnesses (the inductive and displayed chains "
        "differ at the innermost level)",
    ]

    t_1 = family("T", 1, ring, limit)
    t_1s = family("T*", 1, ring, limit)
    semilattice = u1()

    # scaling-monoid replacements: AS_i divides constants(k^i) wr AS*_i
    aug_witnesses: dict[int, DivisionWitness] = {}
    for i in range(1, n):
        as_i = family("AS", i, ring, limit)
        w_aug = augmentation(family("AS*", i, ring, limit), limit)
        _require(set(w_aug.source.elements) == set(as_i.elements),
                 f"augmentation: {as_i.label} is its unit group plus constants")
        aug_witnesses[i] = w_aug
        steps.append(w_aug)

    # lift the top-level replacement into its chain position, on the traced
    # part of the ring chain's degree-n split
    split = [{"kind": "induction_step", "n": n, "ring": ring.descriptor()}]
    w_lem = next(w for w in ring_plan.witnesses if w.steps == split)
    t_prev = family("T", n - 1, ring, limit)
    as_top = family("AS", n - 1, ring, limit)
    left_monoid = _traced_left(w_lem.image_submonoid(), as_top, t_prev, "traced top level")
    w_top_lift = lift_right(aug_witnesses[n - 1], t_prev, source=left_monoid, source_top=as_top, limit=limit)
    steps.append(w_top_lift)

    # scalar factors: T_1^n divides D^n x U_1^n via the group-with-zero split
    w_gz = group_with_zero(ring, limit)
    steps.append(w_gz)
    w_fold = w_gz
    for _ in range(n - 1):
        w_fold = product_witness(w_fold, w_gz, limit=limit)
    steps.append(w_fold)
    units_n = _fold_product([t_1s] * n, limit)
    u1_n = _fold_product([semilattice] * n, limit)

    def unzip(value):
        def split(v, depth):
            if depth == 1:
                return v[0], v[1]
            gs, us = split(v[0], depth - 1)
            g, u = v[1]
            return (gs, g), (us, u)

        return split(value, n)

    w_scalars = _then(w_fold, lambda mid: _regroup(mid, unzip, ProductCarrier(units_n, u1_n),
                                                   f"regroup (DxU)^{n} as D^{n} x U^{n}", limit), steps, limit)
    steps.append(w_scalars)

    # innermost assembly: AS_1 x T_1^n div constants(k) wr [(AS*_1 x D^n) wr U_1^n]
    as_1 = family("AS", 1, ring, limit)
    star_1 = family("AS*", 1, ring, limit)
    const_k = constants_monoid(ring.size)
    inner_group = direct_product(star_1, units_n, limit)
    w_core = _inner_kabsorb(ring, aug_witnesses[1], star_1, units_n, limit, steps)
    w_t2w = times_to_wreath(inner_group, u1_n, limit=limit)
    steps.append(w_t2w)

    scalars_n = _fold_product([t_1] * n, limit)
    inner_source = direct_product(as_1, scalars_n, limit)
    w_s1 = product_witness(identity_witness(as_1, limit), w_scalars,
                           source=inner_source, limit=limit)
    steps.append(w_s1)

    def shuffle(value):
        a, (g, u) = value
        return ((a, g), u)

    w_run = _then(w_s1, lambda mid: _regroup(mid, shuffle, ProductCarrier(ProductCarrier(as_1, units_n), u1_n),
                                             "regroup A x (D x U) as (A x D) x U", limit), steps, limit)
    w_full = product_witness(w_core, identity_witness(u1_n, limit), limit=limit)
    steps.append(w_full)
    w_run = compose(w_run, w_full, limit)
    w_run = _then(w_run, lambda mid: absorb(const_k, inner_group, u1_n, source=mid, limit=limit), steps, limit)
    w_inner = _then(w_run, lambda mid: lift_left(w_t2w, const_k, source=mid, limit=limit), steps, limit)
    steps.append(w_inner)
    _require(w_inner.verified and w_inner.closure_size is not None, "field_pipeline: inner composite verified")

    # term list, outermost first, with tags checked by the predicates
    terms: list[Term] = []
    for i in range(n - 1, 0, -1):
        const = constants_monoid(ring.size**i, label=f"({ring.label}^{i})~")
        star = family("AS*", i, ring, limit)
        _require(is_aperiodic(const), f"term tag: {const.label} is aperiodic")
        _require(is_group(star), f"term tag: {star.label} is a group")
        terms.append(Term(const.label, "aperiodic", len(const), const.descriptor()))
        if i > 1:
            terms.append(Term(star.label, "group", len(star), star.descriptor()))
        else:
            _require(is_group(inner_group), f"term tag: {inner_group.label} is a group")
            terms.append(Term(
                f"{star.label} x {t_1s.label}^{n}", "group", len(inner_group),
                inner_group.descriptor(),
            ))
    _require(is_aperiodic(u1_n), f"term tag: {u1_n.label} is aperiodic")
    terms.append(Term(f"U_1^{n}", "aperiodic", len(u1_n), u1_n.descriptor()))

    group_length = sum(1 for t in terms if t.tag == "group")
    _require(group_length == n - 1, "field_pipeline: group length is n-1")
    tags = [t.tag for t in terms]
    _require(all(a != b for a, b in zip(tags, tags[1:])), "field_pipeline: terms alternate")

    for m in range(1, n):
        check_scaling_group_embedding(m, n, ring, limit)

    return DecompositionPlan(
        pipeline="field",
        n=n,
        ring_label=ring.label,
        terms=terms,
        group_length=group_length,
        skeleton=ring_plan.skeleton,
        witnesses=steps,
        composite=ring_plan.composite,
        notes=notes,
    )


def _inner_kabsorb(ring: SemiringTable, w_aug: DivisionWitness, star_1: Monoid,
                   units_n: Monoid, limit: int,
                   steps: list[DivisionWitness]) -> DivisionWitness:
    """AS_1 x D^n div constants(k) wr (AS*_1 x D^n).

    Combines the degree-1 augmentation with an absorb of the unit factor
    into the wreath base, on sources restricted to the traced parts.
    """
    from semidec.witness import absorb, compose, identity_witness, product_witness

    as_1 = family("AS", 1, ring, limit)
    const_k = constants_monoid(ring.size)
    w_left = product_witness(w_aug, identity_witness(units_n, limit),
                             source=direct_product(as_1, units_n, limit), limit=limit)
    steps.append(w_left)
    aug_image = w_aug.image_submonoid()
    absorb_source = direct_product(aug_image, units_n, limit)
    w_abs = absorb(const_k, star_1, units_n, source=absorb_source, limit=limit)
    steps.append(w_abs)
    w_core = compose(w_left, w_abs, limit)
    steps.append(w_core)
    return w_core


# -- depth analysis and census -------------------------------------------------


def depth_analysis(m: Monoid, limit: int = DEFAULT_LIMIT) -> dict:
    """Depth report plus the per-depth group terms of the depth decomposition,
    and, for field families whose T_n has at most 1000 elements, a comparison
    with the certified group length."""
    rep = depth_report(m)
    out: dict = {"depth_report": rep, "k_terms": []}
    for depth, class_ids in enumerate(rep.k_terms):
        orders = [rep.subgroup_orders[c] for c in class_ids]
        out["k_terms"].append({
            "depth": depth,
            "classes": list(class_ids),
            "subgroup_orders": orders,
            "product_order": math.prod(orders),
        })
    prov = m.descriptor()
    out["comparison"] = None
    if prov.get("kind") == "family" and prov.get("family") in ("T", "UT", "PT"):
        n = prov["n"]
        from semidec.carriers import build_ring

        ring = build_ring(prov["ring"])
        if ring.is_field and n >= 2 and ring.size ** (n * (n + 1) // 2) <= 1000:
            plan = field_pipeline(n, ring, limit)
            out["comparison"] = {
                "depth_decomposition_group_length": rep.depth,
                "pipeline_group_length": plan.group_length,
                "depth_suboptimal": rep.depth > plan.group_length,
            }
    return out


_CENSUS_STARS = {"T": "T*", "UT": "UT*", "PT": "PT*"}


def _support_idempotent(ring: SemiringTable, n: int, support: tuple) -> tuple:
    """The diagonal idempotent e_S: ``ring.one`` at (i, i) for i in ``support``, ``ring.zero`` elsewhere."""
    return tuple(tuple(ring.one if i == j and i in support else ring.zero for j in range(n)) for i in range(n))


def _restrict(entries: tuple, support: tuple) -> tuple:
    """The ``support`` x ``support`` block of an entry pattern."""
    return tuple(tuple(entries[i][j] for j in support) for i in support)


def verify_census(n: int, ring: SemiringTable, kinds=("T", "UT", "PT"),
                  limit: int = DEFAULT_LIMIT) -> dict:
    """Check essential-class counts, depths, and maximal subgroup types.

    For each family: the essential classes at depth i number (n choose i);
    the monoid depth is n for the triangular family over a field larger
    than two elements and n-1 otherwise; and each essential class at depth
    i holds a diagonal idempotent e_S, ``ring.one`` on a support S of n-i
    positions and ``ring.zero`` elsewhere (for PT its scalar orbit), whose
    maximal subgroup maps onto the degree-(n-i) unit-group family by
    restriction to S x S (for PT, each orbit member restricted, then the
    orbit of the results).  The restriction must be a bijection onto that
    family whose inverse is multiplicative along the family's generators,
    checked by ``isomorphic`` with no table on either side.  A
    kind other than T, UT and PT raises ``InvalidSpec`` before anything is
    built; any failed check raises ``CensusMismatch`` naming the class, its
    depth and the check.
    """
    for kind in kinds:
        if kind not in _CENSUS_STARS:
            raise InvalidSpec(f"census kinds are T, UT and PT, got {kind!r}")
    report: dict = {}
    for kind in kinds:
        if kind == "PT" and not ring.is_field:
            raise FieldRequired("projective families need a field")
        monoid = family(kind, n, ring, limit)
        rep = depth_report(monoid)
        expected_depth = n if (kind == "T" and ring.size > 2) else n - 1
        if rep.depth != expected_depth:
            raise CensusMismatch(
                f"{monoid.label}: depth {rep.depth}, expected {expected_depth}"
            )
        expected_census = [math.comb(n, i) for i in range(expected_depth)]
        if list(rep.census) != expected_census:
            raise CensusMismatch(
                f"{monoid.label}: census {list(rep.census)}, expected {expected_census}"
            )
        j_class = greens(monoid).j
        star_kind = _CENSUS_STARS[kind]
        projective = kind == "PT"
        if projective:  # PT_n's elements are orbits of T_n indices
            base = family("T", n, ring, limit)
            orbit_of = {x: i for i, orbit in enumerate(monoid.elements) for x in orbit}
        subgroup_orders = []
        for depth, class_ids in enumerate(rep.k_terms):
            star = family(star_kind, n - depth, ring, limit)
            star_base = family(star_kind[1:], n - depth, ring, limit) if projective else star
            # comb(n, depth) supports for as many classes (the census above),
            # so a class that holds an e_S holds exactly one
            idempotent = {}  # class -> (support, index of e_S)
            for support in combinations(range(n), n - depth):
                entries = _support_idempotent(ring, n, support)
                e = orbit_of[base.index[entries]] if projective else monoid.index[entries]
                idempotent.setdefault(j_class[e], (support, e))
            for c in class_ids:
                where = f"{monoid.label}: class {c} at depth {depth}"
                if c not in idempotent:
                    raise CensusMismatch(f"{where} holds no diagonal idempotent of rank {n - depth}")
                support, e = idempotent[c]
                sub = maximal_subgroup(monoid, e)
                if projective:
                    blocks = [[star_base.index.get(_restrict(base.elements[x], support)) for x in orbit]
                              for orbit in sub.elements]
                    images = [None if None in b else star.index.get(tuple(sorted(b))) for b in blocks]
                else:
                    images = [star.index.get(_restrict(v, support)) for v in sub.elements]
                if len(sub) != len(star) or None in images or len(set(images)) != len(star):
                    raise CensusMismatch(
                        f"{where}: restriction to {support} of its maximal subgroup of order {len(sub)} "
                        f"is not a bijection onto {star.label} of order {len(star)}"
                    )
                if not isomorphic(sub, star, images):
                    raise CensusMismatch(f"{where}: restriction to {support} onto {star.label} is not multiplicative")
            subgroup_orders.append(len(star))
        report[kind] = {
            "order": len(monoid),
            "depth": rep.depth,
            "census": list(rep.census),
            "subgroup_orders_per_depth": subgroup_orders,
        }
    return report
