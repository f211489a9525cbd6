"""Command-line front end.

Subcommands: family (build and export a monoid), analyze (structure
reports), decompose (run a pipeline and write certificates), verify
(re-check certificates from file), search (exhaustive division search),
export (render a report in another format).  Exit codes: 0 success,
1 verification failure or negative search, 2 usage error (a ring, family
or degree that names nothing to build, a ring file that is not a
semiring, a field-only command over a non-field, an unknown ``analyze``
report name), a monoid file whose table is not a monoid, whose
provenance, past the table bound where it has no table, does not rebuild
to its elements and identity, or, for ``search --out``, does not rebuild
it, a malformed monoid file or certificate, a report that
``export --format text`` or ``dot`` cannot render (not an object, ill-typed
``terms``, or a ``depth`` whose classes do not match its class count), an
input file that is not UTF-8 JSON or nests past the recursion limit, or
a path that cannot be read or written.  JSON output is compact.

``decompose --cert`` and ``search --out`` write a certificate document,
``{"descriptors": [...], "steps": [...], "certificates": [...]}`` plus
``"composite"`` and ``"plan"`` where the pipeline has them: each
descriptor is stated once in the ``descriptors`` table and each witness
step once in the ``steps`` table.  A certificate's ``source`` and
``target``, and a step entry's descriptor-valued fields, are indices into
the descriptor table, and a certificate's ``steps`` are indices into the
step table.  A pair is one int list, the target value's carrier row
followed by the source element's index, and a ``"close"`` descriptor's
generators and identity are rows of its carrier.  A certificate whose
pairs' target rows are the generators of a ``"close"`` entry over its
target names that entry as ``image`` and lists only the pairs' source
indices, as ``sources``, unless its source is a family.  A certificate
or descriptor ``label`` is a string of printable characters, so a
printed label is one line.  ``verify`` reads only that shape; a bundle
of an earlier version, with nested descriptors, nested-value pairs or
no step table, is a malformed certificate, and so
is a descriptor table with an entry of unknown kind, a child reference
to no earlier entry, a repeated entry or an entry that expands past
100,000 nested descriptors, and a step table with an entry that is not
an object with a string kind, a ``restrict`` that is not an object, a
descriptor field that names no descriptor or a repeated entry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from semidec.errors import (InvalidCertificate, InvalidMonoid, InvalidReport, InvalidSpec, SemidecError,
                             UnsupportedFormat)
from semidec.families import FAMILY_KINDS, FamilySpec, build_family
from semidec.monoid import DEFAULT_LIMIT, Monoid, depth_report, dot_j_order, greens
from semidec.monoid import from_json as monoid_from_json
from semidec.monoid import rebuilt as monoid_rebuilt
from semidec.monoid import to_json as monoid_to_json
from semidec.semiring import parse_ring_spec


def _dump(payload, path: str | None):
    _write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", path)


def _write_text(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str):
    """The JSON value in ``path``; one nested past the recursion limit, or not UTF-8 text, is invalid JSON."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise json.JSONDecodeError("nested past the recursion limit", "", 0) from None
        except UnicodeDecodeError as exc:
            raise json.JSONDecodeError(f"not UTF-8 text ({exc.reason})", "", 0) from None


def cmd_family(args) -> int:
    ring = parse_ring_spec(args.ring)
    spec = FamilySpec(args.kind, args.n, ring)
    monoid = build_family(spec, limit=args.limit)
    _dump(monoid_to_json(monoid), args.out)
    print(f"family={spec.label()} order={len(monoid)}")
    return 0


REPORTS = ("greens", "depth")


def cmd_analyze(args) -> int:
    selected = args.report.split(",") if args.report else list(REPORTS)
    unknown = [name for name in selected if name not in REPORTS]
    if unknown:
        raise InvalidSpec(f"unknown report {unknown[0]!r} (expected a comma-separated subset of {','.join(REPORTS)})")
    monoid = monoid_from_json(_load(args.monoid))
    payload: dict = {"label": monoid.label, "order": len(monoid)}
    if "greens" in selected:
        g = greens(monoid)
        payload["greens"] = {
            "l_classes": max(g.l) + 1,
            "r_classes": max(g.r) + 1,
            "j_classes": max(g.j) + 1,
            "h_classes": max(g.h) + 1,
            "regular_elements": sum(g.regular),
            "idempotents": len(g.idempotents),
        }
    if "depth" in selected:
        payload["depth"] = depth_report(monoid).to_json()
    _dump(payload, args.out)
    if args.dot:
        _write_text(dot_j_order(payload.get("depth") or depth_report(monoid).to_json()), args.dot)
    for key in ("greens", "depth"):
        if key in payload:
            summary = payload[key] if key == "greens" else {"depth": payload[key]["depth"]}
            print(f"{key}: {json.dumps(summary, sort_keys=True)}")
    return 0


def cmd_decompose(args) -> int:
    from semidec.decomp import field_pipeline, ring_pipeline  # the only command that runs a pipeline
    from semidec.witness import document_to_json

    ring = parse_ring_spec(args.ring)
    if args.pipeline == "field":
        plan = field_pipeline(args.n, ring, limit=args.limit)
    else:
        plan = ring_pipeline(args.n, ring, limit=args.limit)
    if args.plan:
        _dump(plan.summary(), args.plan)
    if args.cert:
        cert = document_to_json(plan.witnesses, plan.composite)
        cert["plan"] = plan.summary()
        _dump(cert, args.cert)
    gl = plan.group_length if plan.group_length is not None else "n/a"
    print(f"group_length={gl}")
    print(f"composite_verified={bool(plan.composite and plan.composite.verified)}")
    return 0


def cmd_verify(args) -> int:
    from semidec.witness import document_from_json, verify, witness_from_json

    table, bundle = document_from_json(_load(args.cert))
    for i, obj in enumerate(bundle):
        try:
            witness = witness_from_json(obj, table)
        except InvalidCertificate as exc:
            raise InvalidCertificate(f"certificate {i}: {exc}") from None
        try:
            verify(witness, limit=args.limit)
        except SemidecError as exc:
            print(f"certificate {i} ({witness.label}): FAILED {type(exc).__name__}: {exc}")
            return 1
        print(f"certificate {i} ({witness.label}): verified closure={witness.closure_size}")
    return 0


def _require_rebuilds(m: Monoid) -> None:
    """Raise ``InvalidMonoid`` unless ``m``'s provenance rebuilds to ``m``, as ``verify`` rebuilds it."""
    rebuilt = monoid_rebuilt(m.descriptor(), m.label)
    if rebuilt.elements != m.elements or not np.array_equal(rebuilt.table_array(), m.table_array()):
        raise InvalidMonoid(m.label, "provenance rebuilds to another monoid")


def cmd_search(args) -> int:
    from semidec.witness import document_to_json, search_division

    source = monoid_from_json(_load(args.source))
    target = monoid_from_json(_load(args.target))
    if args.out:  # a certificate names its monoids by provenance
        for m in (source, target):
            _require_rebuilds(m)
    found = search_division(source, target, target_limit=args.limit)
    if found is None:
        print("result=NotFound")
        return 1
    if args.out:
        _dump(document_to_json([found]), args.out)
    print(f"result=found closure={found.closure_size}")
    return 0


def _check_report(payload) -> None:
    """Raise ``InvalidReport`` unless ``payload`` has the shape that the text
    and dot renderers read: an object whose ``terms``, if any, is a list of
    objects with a ``name``, a ``tag`` and an int ``order``, and whose
    ``depth``, if any, has an int ``j_class_count`` equal to the length of
    its ``class_sizes`` list of ints, and ``essential`` classes and
    ``order_pairs`` of classes below it."""
    if not isinstance(payload, dict):
        raise InvalidReport("the report is not an object")
    terms = payload.get("terms", [])
    if not isinstance(terms, list):
        raise InvalidReport("terms is not a list")
    for k, term in enumerate(terms):
        if not (isinstance(term, dict) and "name" in term and "tag" in term and type(term.get("order")) is int):
            raise InvalidReport(f"term {k} is not an object with a name, a tag and an int order")
    depth = payload.get("depth")
    if depth is None:
        return
    if not isinstance(depth, dict):
        raise InvalidReport("depth is not an object")
    count, sizes = depth.get("j_class_count"), depth.get("class_sizes")
    if not (type(count) is int and isinstance(sizes, list) and len(sizes) == count
            and all(type(x) is int for x in sizes)):
        raise InvalidReport("depth needs an int j_class_count and a list of that many int class_sizes")

    def classes(xs) -> bool:
        return isinstance(xs, list) and all(type(x) is int and 0 <= x < count for x in xs)

    if not classes(depth.get("essential")):
        raise InvalidReport(f"depth essential is not a list of classes below {count}")
    pairs = depth.get("order_pairs")
    if not (isinstance(pairs, list) and all(classes(pair) and len(pair) == 2 for pair in pairs)):
        raise InvalidReport(f"depth order_pairs is not a list of pairs of classes below {count}")


def cmd_export(args) -> int:
    payload = _load(args.input)
    if args.format == "json":
        _dump(payload, args.out)
        return 0
    _check_report(payload)
    if args.format == "text":
        lines = []
        if "terms" in payload:
            lines.append("term\ttag\torder")
            for term in payload["terms"]:
                lines.append(f"{term['name']}\t{term['tag']}\t{term['order']}")
            lines.append(f"group_length={payload.get('group_length')}")
        else:
            for key in sorted(payload):
                lines.append(f"{key}={json.dumps(payload[key], sort_keys=True)}")
        _write_text("\n".join(lines) + "\n", args.out)
        return 0
    if args.format == "dot":
        depth = payload.get("depth")
        if depth is None:
            raise UnsupportedFormat("dot export needs an analyze report with a depth section")
        _write_text(dot_j_order(depth), args.out)
        return 0
    raise UnsupportedFormat(f"unknown format {args.format!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidec",
        description="triangular matrix monoids: structure reports and certified wreath decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs a string default, such as the environment's, through type=int
    limit = os.environ.get("SEMIDEC_LIMIT", DEFAULT_LIMIT)

    p = sub.add_parser("family", help="build a named monoid family and write it as JSON")
    p.add_argument("--kind", required=True, choices=FAMILY_KINDS)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--ring", required=True, help="zp:<p> | bool | table:<path>")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.add_argument("--limit", type=int, default=limit)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("analyze", help="Green's relations and depth reports for a monoid file")
    p.add_argument("monoid")
    p.add_argument("--report", default="greens,depth", help="comma-separated: greens,depth")
    p.add_argument("--dot", help="write the J-order DAG in DOT format")
    p.add_argument("--out", help="report JSON path (stdout if omitted)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="run a decomposition pipeline, write plan and certificates")
    p.add_argument("--pipeline", choices=("ring", "field"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ring", required=True)
    p.add_argument("--plan", help="plan JSON output path")
    p.add_argument("--cert", help="certificate bundle output path")
    p.add_argument("--limit", type=int, default=limit)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("cert")
    p.add_argument("--limit", type=int, default=limit)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive division search between two monoid files")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--limit", type=int, default=12)
    p.add_argument("--out", help="write the found witness as JSON")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export", help="render a report or plan file as json, text, or dot")
    p.add_argument("input")
    p.add_argument("--format", required=True, choices=("json", "text", "dot"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "limit", 1) < 1:  # from --limit or SEMIDEC_LIMIT
        parser.error(f"argument --limit: must be at least 1, not {args.limit}")
    try:
        return args.func(args)
    except SemidecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (InvalidSpec, InvalidMonoid, InvalidCertificate, InvalidReport)) else 1
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
