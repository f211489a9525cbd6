"""Per-layer probes for the traced run, installed from outside the program.

``install`` wraps public functions and methods of the semidec modules and
rebinds every name that a module imported with ``from ... import``, so a
call through ``decomp.family`` or ``cli.verify`` is traced like a call
through the defining module.  Layer boundaries become spans
``[name, start, end, parent, counted_s]`` kept in memory and written once
by the caller.  The per-product hot paths (``WreathContext.mul_value``,
``ProductCarrier.mul_value``, ``Monoid.mul``, ``Monoid.mul_value``) are
counters, not spans; only outermost wreath products are timed, and that
time is charged to the enclosing span as ``counted_s`` so it is not
counted as the span's self time.

``summarize`` turns one recorded trace into the per-layer metrics.  Self
time of a span is its duration minus its child spans and counted time;
time in an unwrapped helper is charged to the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("families", "monoid", "wreath", "carriers", "witness", "decomp", "cli")

COMBINATORS = (
    "mapped_witness", "identity_witness", "times_to_wreath", "absorb", "lift_left",
    "lift_right", "interchange", "augmentation", "group_with_zero", "product_witness",
    "compose",
)

# (module, function, span name); several functions may share one span name
FUNCTION_SPANS = (
    ("families", "build_family", "families.build"),
    ("families", "augmented_monoid", "families.augmented"),
    ("families", "constants_monoid", "families.constants"),
    ("families", "transformation_closure", "families.transformation_closure"),
    ("monoid", "close_generators", "monoid.close"),
    ("monoid", "direct_product", "monoid.product"),
    ("monoid", "greens", "monoid.greens"),
    ("monoid", "depth_report", "monoid.depth"),
    ("monoid", "quotient_by_central_units", "monoid.quotient"),
    ("monoid", "maximal_subgroup", "monoid.subgroup"),
    ("monoid", "isomorphic", "monoid.iso"),
    ("monoid", "is_group", "monoid.predicates"),
    ("monoid", "is_aperiodic", "monoid.predicates"),
    ("wreath", "enumerate_wreath", "wreath.enumerate"),
    ("carriers", "build_carrier", "carriers.rebuild"),
    ("carriers", "build_monoid", "carriers.rebuild"),
    ("witness", "verify", "witness.verify"),
    *(("witness", name, "witness.construct") for name in COMBINATORS),
    ("witness", "witness_to_json", "witness.serialize"),
    ("witness", "witness_from_json", "witness.parse"),
    ("decomp", "ring_pipeline", "decomp.pipeline"),
    ("decomp", "field_pipeline", "decomp.pipeline"),
    ("decomp", "induction_step", "decomp.induction"),
    ("decomp", "check_scaling_group_embedding", "decomp.embedding"),
    ("decomp", "verify_census", "decomp.census"),
    ("cli", "main", "cli.main"),
    ("cli", "_dump", "cli.json_write"),
    ("cli", "_load", "cli.json_read"),
)

# (module, class, method, span name)
METHOD_SPANS = (
    ("monoid", "Monoid", "__init__", "monoid.construct"),
    ("monoid", "Monoid", "_build_table", "monoid.materialize"),
    ("witness", "DivisionWitness", "image_submonoid", "witness.image"),
)

# (module, class, method, counter name, is a carrier product that verify can call on its target)
COUNTERS = (
    ("monoid", "Monoid", "mul", "monoid.mul.calls", False),
    ("monoid", "Monoid", "mul_value", "monoid.mul_value.calls", True),
    ("carriers", "ProductCarrier", "mul_value", "carriers.product_mul.calls", True),
)
WREATH_MUL = ("wreath", "WreathContext", "mul_value")


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.wreath_mul_s = 0.0
        self.family_keys: set = set()
        self.product_depth = 0
        self.wreath_depth = 0
        self.verify_depth = 0

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "wreath.mul.s": self.wreath_mul_s,
            "families.build.distinct": len(self.family_keys),
        }


# -- results recorded at span exit ---------------------------------------------


def _record_family(tracer, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tracer.family_keys.add((spec.kind, spec.n, json.dumps(spec.ring.descriptor(), sort_keys=True)))
    tracer.counts["families.build.elements"] += len(result)


def _record_materialize(tracer, args, kwargs, result):
    tracer.counts["monoid.materialize.cells"] += len(args[0].elements) ** 2


def _record_close(tracer, args, kwargs, result):
    tracer.counts["monoid.close.elements"] += len(result)


def _record_verify(tracer, args, kwargs, result):
    witness = args[0] if args else kwargs["w"]
    tracer.counts["witness.verify.pairs"] += len(witness.pairs)
    tracer.counts["witness.verify.closure"] += result.closure_size


ON_RESULT = {
    "families.build": _record_family,
    "monoid.materialize": _record_materialize,
    "monoid.close": _record_close,
    "witness.verify": _record_verify,
}


# -- wrappers --------------------------------------------------------------------


def _span(tracer: Tracer, name: str, fn):
    on_result = ON_RESULT.get(name)
    is_verify = name == "witness.verify"
    spans, stack = tracer.spans, tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(spans))
        spans.append(record)
        if is_verify:
            tracer.verify_depth += 1
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()
            if is_verify:
                tracer.verify_depth -= 1
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return wrapper


def _counter(tracer: Tracer, name: str, is_target, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args):
        counts[name] += 1
        if is_target and tracer.verify_depth and not tracer.product_depth:
            counts["witness.verify.target_products"] += 1
        tracer.product_depth += 1
        try:
            return fn(*args)
        finally:
            tracer.product_depth -= 1

    return wrapper


def _wreath_counter(tracer: Tracer, fn):
    """Counts every wreath product; times only the outermost one."""
    counts, spans, stack = tracer.counts, tracer.spans, tracer.stack

    @functools.wraps(fn)
    def wrapper(*args):
        counts["wreath.mul.calls"] += 1
        if tracer.verify_depth and not tracer.product_depth:
            counts["witness.verify.target_products"] += 1
        tracer.product_depth += 1
        if tracer.wreath_depth:
            tracer.wreath_depth += 1
            try:
                return fn(*args)
            finally:
                tracer.wreath_depth -= 1
                tracer.product_depth -= 1
        tracer.wreath_depth = 1
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            tracer.wreath_depth = 0
            tracer.product_depth -= 1
            tracer.wreath_mul_s += elapsed
            if stack:
                spans[stack[-1]][4] += elapsed

    return wrapper


def _rebind(original, replacement):
    """Point every semidec module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "semidec" or mod_name.startswith("semidec.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every semidec module; call before running."""
    mods = {name: importlib.import_module(f"semidec.{name}") for name in MODULES}
    for mod, func, name in FUNCTION_SPANS:
        original = getattr(mods[mod], func)
        _rebind(original, _span(tracer, name, original))
    for mod, cls_name, method, name in METHOD_SPANS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, method, _span(tracer, name, getattr(cls, method)))
    for mod, cls_name, method, name, is_target in COUNTERS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, method, _counter(tracer, name, is_target, getattr(cls, method)))
    mod, cls_name, method = WREATH_MUL
    cls = getattr(mods[mod], cls_name)
    setattr(cls, method, _wreath_counter(tracer, getattr(cls, method)))


# -- summary -----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced operation, as {name: (value, unit)}."""
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    wreath_s = trace["wreath.mul.s"]
    n = len(spans)
    duration = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]
    self_time = [duration[i] - child[i] - spans[i][4] for i in range(n)]

    def has_ancestor(i: int, names: set) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    calls: Counter = Counter(span[0] for span in spans)
    busy: defaultdict = defaultdict(float)  # union of a name's intervals
    own: defaultdict = defaultdict(float)  # summed self time per span name
    for i, span in enumerate(spans):
        own[span[0]] += self_time[i]
        if not has_ancestor(i, {span[0]}):
            busy[span[0]] += duration[i]
    verify_in_construct = sum(
        duration[i] for i, span in enumerate(spans)
        if span[0] == "witness.verify"
        and not has_ancestor(i, {"witness.verify"})
        and has_ancestor(i, {"witness.construct"})
    )
    module_self: defaultdict = defaultdict(float)
    for name, value in own.items():
        module_self[name.split(".")[0]] += value
    module_self["wreath"] += wreath_s
    verify_max = max(
        (duration[i] for i, span in enumerate(spans) if span[0] == "witness.verify"), default=0.0
    )

    out = {
        "families.build.calls": (calls["families.build"], "count"),
        "families.build.distinct": (trace["families.build.distinct"], "count"),
        "families.build.s": (busy["families.build"], "s"),
        "families.build.elements": (counts["families.build.elements"], "count"),
        "families.reuse": (
            _ratio(trace["families.build.distinct"], calls["families.build"]), "ratio"
        ),
        "monoid.materialize.calls": (calls["monoid.materialize"], "count"),
        "monoid.materialize.s": (busy["monoid.materialize"], "s"),
        "monoid.materialize.cells": (counts["monoid.materialize.cells"], "count"),
        "monoid.close.calls": (calls["monoid.close"], "count"),
        "monoid.close.s": (busy["monoid.close"], "s"),
        "monoid.close.elements": (counts["monoid.close.elements"], "count"),
        "monoid.greens.calls": (calls["monoid.greens"], "count"),
        "monoid.greens.s": (busy["monoid.greens"], "s"),
        "monoid.depth.s": (busy["monoid.depth"], "s"),
        "monoid.quotient.s": (busy["monoid.quotient"], "s"),
        "monoid.subgroup.s": (busy["monoid.subgroup"], "s"),
        "monoid.iso.s": (busy["monoid.iso"], "s"),
        "monoid.predicates.s": (busy["monoid.predicates"], "s"),
        "monoid.mul.calls": (counts["monoid.mul.calls"], "count"),
        "monoid.mul_value.calls": (counts["monoid.mul_value.calls"], "count"),
        "wreath.mul.calls": (counts["wreath.mul.calls"], "count"),
        "wreath.mul.s": (wreath_s, "s"),
        "wreath.mul.per_s": (_ratio(counts["wreath.mul.calls"], wreath_s), "1/s"),
        "wreath.enumerate.s": (busy["wreath.enumerate"], "s"),
        "carriers.product_mul.calls": (counts["carriers.product_mul.calls"], "count"),
        "carriers.rebuild.calls": (calls["carriers.rebuild"], "count"),
        "carriers.rebuild.s": (busy["carriers.rebuild"], "s"),
        "witness.verify.calls": (calls["witness.verify"], "count"),
        "witness.verify.s": (busy["witness.verify"], "s"),
        "witness.verify.max_s": (verify_max, "s"),
        "witness.verify.pairs": (counts["witness.verify.pairs"], "count"),
        "witness.verify.closure": (counts["witness.verify.closure"], "count"),
        "witness.verify.target_products": (counts["witness.verify.target_products"], "count"),
        "witness.verify.yield": (
            _ratio(counts["witness.verify.closure"], counts["witness.verify.target_products"]),
            "ratio",
        ),
        "witness.construct.self_s": (busy["witness.construct"] - verify_in_construct, "s"),
        "witness.image.calls": (calls["witness.image"], "count"),
        "witness.image.s": (busy["witness.image"], "s"),
        "witness.serialize.s": (busy["witness.serialize"], "s"),
        "witness.parse.self_s": (own["witness.parse"], "s"),
        "cli.json_write.s": (busy["cli.json_write"], "s"),
        "cli.json_read.s": (busy["cli.json_read"], "s"),
        "decomp.pipeline.s": (busy["decomp.pipeline"], "s"),
        "decomp.pipeline.self_s": (own["decomp.pipeline"], "s"),
        "decomp.induction.calls": (calls["decomp.induction"], "count"),
        "decomp.induction.s": (busy["decomp.induction"], "s"),
        "decomp.embedding.s": (busy["decomp.embedding"], "s"),
        "decomp.census.self_s": (own["decomp.census"], "s"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = (module_self[module], "s")
    return out
