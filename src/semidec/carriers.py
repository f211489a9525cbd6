"""Multiplication carriers and their serializable descriptors.

A carrier is anything a division witness can multiply target values in:
an enumerated Monoid, a direct product of carriers, or a WreathContext,
whose top and base are both enumerated Monoids.  All three
expose identity_value / label / descriptor(), and the row interface of the
closure kernel: ``width``, ``to_row`` / ``from_row`` between a value and a
fixed-width int row, and ``mul_rows``, which multiplies every row of one
block by every row of another; ``mul_value`` is a one-row ``mul_rows``,
except on a Monoid, which multiplies as its ``mul_rows`` does, by its table
or along its right Cayley graph.
Descriptors are plain dicts from which an equivalent carrier is rebuilt
in a fresh process, which is what makes certificates re-checkable from
their serialized form.  This module alone knows the descriptor kinds and
which of their fields are child descriptors; a certificate document
states each descriptor and each witness step once, in the flat tables of
``Descriptors``.
"""

from __future__ import annotations

import json

import numpy as np

from semidec.keys import value_from_json
from semidec.monoid import DEFAULT_LIMIT, ROW, Monoid, product_value
from semidec.wreath import WreathContext


class ProductCarrier:
    """Pairs of values of two carriers; a row is the factors' rows, concatenated."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.label = f"({left.label} x {right.label})"
        self.width = left.width + right.width

    @property
    def identity_value(self):
        return (self.left.identity_value, self.right.identity_value)

    def to_row(self, value) -> tuple:
        x, y = value
        return self.left.to_row(x) + self.right.to_row(y)

    def from_row(self, row):
        cut = self.left.width
        return (self.left.from_row(row[:cut]), self.right.from_row(row[cut:]))

    def mul_rows(self, x, y) -> np.ndarray:
        cut = self.left.width
        return np.concatenate([self.left.mul_rows(x[:, :cut], y[:, :cut]),
                               self.right.mul_rows(x[:, cut:], y[:, cut:])], axis=2)

    def mul_value(self, x, y):
        return product_value(self, x, y)

    def descriptor(self) -> dict:
        return {
            "kind": "product_carrier",
            "left": self.left.descriptor(),
            "right": self.right.descriptor(),
        }


def build_ring(desc: dict):
    from semidec.semiring import from_json, make_boolean_semiring, make_prime_field

    if "builtin" in desc:
        if desc["builtin"] == "zp":
            return make_prime_field(desc["p"])
        if desc["builtin"] == "bool":
            return make_boolean_semiring()
        raise ValueError(f"unknown builtin ring {desc['builtin']!r}")
    return from_json(desc["table"])


# The descriptor schema: every kind ``build_monoid`` and ``build_carrier``
# rebuild, with the fields that hold a child descriptor.
CHILDREN = {
    "family": (),
    "close": ("carrier",),
    "transformation_close": (),
    "product": ("left", "right"),
    "quotient_central": ("base",),
    "h_class_group": ("base",),
    "augmented": ("base",),
    "wreath_enum": ("top", "base"),
    "wreath_ctx": ("top", "base"),
    "product_carrier": ("left", "right"),
}
_CARRIER_KINDS = ("wreath_ctx", "product_carrier")  # kinds that rebuild to a carrier, not a Monoid
# the fields of a witness step that hold a descriptor; its ``restrict`` is a dict of them
STEP_FIELDS = ("left", "right", "top", "base", "factor", "acting")


def close_descriptor(carrier, generators: np.ndarray, identity: np.ndarray, label: str) -> dict:
    """The ``"close"`` descriptor of the monoid that the ``ROW`` arrays of
    generator rows ``generators`` and identity row ``identity`` generate in
    ``carrier``, as ``build_monoid`` reads it and ``close_generators`` takes it."""
    return {
        "kind": "close",
        "carrier": carrier.descriptor(),
        "generators": generators.tolist(),
        "identity": identity.tolist(),
        "label": label,
    }


_ROW_RANGE = range(np.iinfo(ROW).min, np.iinfo(ROW).max + 1)


def carrier_rows(carrier, rows, what: str, source: Monoid | None = None) -> np.ndarray:
    """The JSON ``rows`` of ``carrier`` values as one ``ROW`` array, each
    row followed by the index of a ``source`` element when there is one.

    Each row must be a list of ints (not bools) that fit in ``ROW``, one per
    column, the source index must name an element, and the value must be
    fixed on the right by the carrier's identity, which one ``mul_rows``
    block checks for every row.  A monoid multiplies only its own indices,
    and a wreath context only indices inside its top and base, so no row
    with an index outside a table is fixed, not even a negative one that
    numpy wraps.  The first row that fails raises ``ValueError`` naming it
    as ``{what} {k}``.
    """
    if not isinstance(rows, list):
        raise ValueError(f"the {what}s are not a list")
    width = carrier.width
    size = width + (source is not None)
    count = next((k for k, row in enumerate(rows) if not (
        type(row) is list and len(row) == size and all(type(x) is int and x in _ROW_RANGE for x in row))), len(rows))
    block = np.array(rows[:count], dtype=ROW).reshape(count, size)
    identity = np.array([carrier.to_row(carrier.identity_value)], dtype=ROW)
    named = np.ones(count, dtype=bool) if source is None else (block[:, width] >= 0) & (block[:, width] < len(source))
    failed = np.flatnonzero(~(named & _fixed(carrier, block[:, :width], identity)))
    if len(failed):
        k = int(failed[0])
        if not named[k]:
            raise ValueError(f"{what} {k}: {rows[k][width]} is not an element index of {source.label}")
        raise ValueError(f"{what} {k}: {rows[k][:width]!s:.80} is not a value of {carrier.label}")
    if count < len(rows):
        raise ValueError(f"{what} {count}: not a list of {size} int32 integers")
    return block


def _fixed(carrier, block: np.ndarray, identity: np.ndarray) -> np.ndarray:
    """Whether ``identity`` fixes each row of ``block`` on the right, by one
    ``mul_rows`` block; a row whose product indexes past a table is not
    fixed, and halving the block finds it."""
    try:
        return (carrier.mul_rows(block, identity)[:, 0] == block).all(axis=1)
    except IndexError:
        if len(block) == 1:
            return np.zeros(1, dtype=bool)
        half = len(block) // 2
        return np.concatenate([_fixed(carrier, block[:half], identity), _fixed(carrier, block[half:], identity)])


class Descriptors:
    """The descriptor and step tables of one certificate document.

    Each descriptor entry is a descriptor whose child descriptors
    (``CHILDREN``) are the indices of earlier entries, and no two entries
    are equal.  Each step entry is a witness step whose descriptor fields
    (``STEP_FIELDS`` and each field of its ``restrict``) are descriptor
    indices, and no two step entries are equal either.  A writer
    ``intern``s nested descriptors, by object identity first (a monoid's
    ``descriptor()`` is one shared dict), else by the canonical JSON of the
    entry, whose children are already indices, and ``intern_step``s steps
    by the canonical JSON of the mapped step.

    A reader made from a document's lists checks both tables in one pass
    each, before any certificate is read.  Each descriptor entry is an
    object of a kind in ``CHILDREN``, its children are ints (not bools)
    naming earlier entries, it equals no earlier entry, and it expands to
    at most ``DEFAULT_LIMIT`` nested descriptors, so that a small document
    cannot name an exponentially large one, and its ``label``, if any, is a
    string of printable characters.  Each step entry is an object
    with a string ``kind``, its ``restrict``, if any, is an object, its
    descriptor fields are ints (not bools) naming descriptor entries, and
    it equals no earlier step entry.  A table that breaks a rule raises
    ``ValueError`` naming it, as ``descriptor table: ...`` or ``step
    table: ...``.  The rest of a descriptor entry is checked when it is
    rebuilt: at most once, when it is first asked for, through
    ``build_monoid`` or ``build_carrier``.  A reference to an entry of
    either table must be an int (not a bool) naming one, else
    ``ValueError``.
    """

    def __init__(self, entries: list | None = None, steps: list | None = None):
        self.entries = [] if entries is None else entries
        self.steps = [] if steps is None else steps
        self._ids: dict[int, tuple] = {}  # id of an interned dict -> (its index, the dict, held so the id is not reused)
        self._keys: dict[str, int] = {}  # canonical JSON of an entry -> its index
        self._step_keys: dict[str, int] = {}  # canonical JSON of a step entry -> its index
        self._built: dict[int, object] = {}
        self._views: dict[int, dict] = {}
        self._step_views: dict[int, dict] = {}
        for name, check in (("descriptor table", self._check_entries), ("step table", self._check_steps)):
            try:
                check()
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{name}: {type(exc).__name__}: {exc}") from None

    def _check_entries(self) -> None:
        sizes: list[int] = []  # the number of nested descriptors each entry expands to
        for i, entry in enumerate(self.entries):
            if not isinstance(entry, dict):
                raise ValueError(f"descriptor {i} is not an object")
            kind = entry.get("kind")
            if not isinstance(kind, str) or kind not in CHILDREN:
                raise ValueError(f"descriptor {i} has unknown kind {kind!r:.60}")
            size = 1
            for field in CHILDREN[kind]:
                if field in entry:
                    size += sizes[self._check(entry[field], i)]
            if size > DEFAULT_LIMIT:
                raise ValueError(f"descriptor {i} expands to more than {DEFAULT_LIMIT} nested descriptors")
            label = entry.get("label", "")
            if not (isinstance(label, str) and label.isprintable()):
                raise ValueError(f"descriptor {i} has a label that is not a string of printable characters")
            sizes.append(size)
            first = self._keys.setdefault(json.dumps(entry, sort_keys=True), i)
            if first != i:
                raise ValueError(f"descriptor {i} repeats descriptor {first}")

    def _check_steps(self) -> None:
        for i, step in enumerate(self.steps):
            if not (isinstance(step, dict) and isinstance(step.get("kind"), str)):
                raise ValueError(f"step {i} is not an object with a string kind")
            if not isinstance(step.get("restrict", {}), dict):
                raise ValueError(f"step {i} has a restrict that is not an object")
            try:
                _map_step(step, self._check)
            except ValueError as exc:
                raise ValueError(f"step {i}: {exc}") from None
            first = self._step_keys.setdefault(json.dumps(step, sort_keys=True), i)
            if first != i:
                raise ValueError(f"step {i} repeats step {first}")

    def intern(self, desc: dict) -> int:
        """The index of ``desc``'s entry, appended with its children's if new."""
        known = self._ids.get(id(desc))
        if known is not None:
            return known[0]
        entry = dict(desc)
        for field in CHILDREN.get(desc["kind"], ()):
            if field in entry:
                entry[field] = self.intern(entry[field])
        i = self._keys.setdefault(json.dumps(entry, sort_keys=True), len(self.entries))
        if i == len(self.entries):
            self.entries.append(entry)
        self._ids[id(desc)] = (i, desc)
        return i

    def intern_step(self, step: dict) -> int:
        """The index of the step entry of ``step``, its descriptor fields
        interned, appended if new."""
        entry = _map_step(step, self.intern)
        i = self._step_keys.setdefault(json.dumps(entry, sort_keys=True), len(self.steps))
        if i == len(self.steps):
            self.steps.append(entry)
        return i

    def carrier(self, ref):
        """The carrier entry ``ref`` names, rebuilt on first use."""
        i = self._check(ref)
        built = self._built.get(i)
        if built is None:
            build = build_carrier if self.entries[i]["kind"] in _CARRIER_KINDS else build_monoid
            built = self._built[i] = build(self, i)
        return built

    def entry(self, ref) -> dict:
        """Entry ``ref`` as the table holds it, its children indices."""
        return self.entries[self._check(ref)]

    def monoid(self, ref) -> Monoid:
        m = self.carrier(ref)
        if not isinstance(m, Monoid):
            raise ValueError(f"descriptor {ref} names a {self.entries[ref]['kind']}, not a monoid")
        return m

    def view(self, ref) -> dict:
        """Entry ``ref`` as a nested descriptor, its children's views shared."""
        i = self._check(ref)
        view = self._views.get(i)
        if view is None:
            view = dict(self.entries[i])
            for field in CHILDREN.get(view["kind"], ()):
                if field in view:
                    view[field] = self.view(view[field])
            self._views[i] = view
        return view

    def step(self, ref) -> dict:
        """Step entry ``ref`` with each descriptor field a ``view``, built once."""
        i = _index(ref, len(self.steps), "step")
        view = self._step_views.get(i)
        if view is None:
            view = self._step_views[i] = _map_step(self.steps[i], self.view)
        return view

    def _check(self, ref, bound: int | None = None) -> int:
        return _index(ref, len(self.entries) if bound is None else bound, "descriptor")


def _index(ref, bound: int, what: str) -> int:
    if type(ref) is not int or not 0 <= ref < bound:
        raise ValueError(f"{what} reference {ref!r:.60} is not an index below {bound}")
    return ref


def _map_step(step: dict, f) -> dict:
    out = {key: f(v) if key in STEP_FIELDS else v for key, v in step.items()}
    if "restrict" in step:
        out["restrict"] = {key: f(v) for key, v in step["restrict"].items()}
    return out


def rebuild(desc: dict) -> Monoid:
    """The monoid a nested descriptor names, through a one-off table."""
    table = Descriptors()
    return table.monoid(table.intern(desc))


def build_monoid(table: Descriptors, i: int) -> Monoid:
    """The monoid entry ``i`` of ``table`` names; ``table.monoid`` rebuilds
    its children.  Families come from ``build_family``, which shares them.

    A ``"close"`` descriptor's generators and identity are ``carrier_rows``
    of its carrier, else ``ValueError``.
    """
    from semidec.families import FamilySpec, augmented_monoid, build_family, constants_monoid, u1
    from semidec.monoid import close_generators, direct_product, maximal_subgroup, quotient_by_central_units

    desc = table.entries[i]
    kind = desc["kind"]
    if kind == "family":
        fam = desc["family"]
        if fam == "U1":
            return u1()
        if fam == "constants":
            return constants_monoid(desc["points"])
        return build_family(FamilySpec(fam, desc["n"], build_ring(desc["ring"])))
    if kind == "close":
        carrier = table.carrier(desc["carrier"])
        gens = carrier_rows(carrier, desc["generators"], f"descriptor {i} generator")
        ident = (carrier_rows(carrier, [desc["identity"]], f"descriptor {i} identity") if "identity" in desc
                 else carrier.to_row(carrier.identity_value))
        return close_generators(gens, carrier, ident, label=desc.get("label", ""), provenance=table.view(i))
    if kind == "transformation_close":
        from semidec.families import transformation_closure

        return transformation_closure(
            [tuple(value_from_json(g)) for g in desc["generators"]],
            label=desc.get("label", ""),
        )
    if kind == "product":
        return direct_product(table.monoid(desc["left"]), table.monoid(desc["right"]))
    if kind == "quotient_central":
        base = table.monoid(desc["base"])
        z = [base.index[value_from_json(v)] for v in desc["subgroup"]]
        return quotient_by_central_units(base, z)[0]
    if kind == "h_class_group":
        base = table.monoid(desc["base"])
        return maximal_subgroup(base, base.index[value_from_json(desc["idempotent"])])
    if kind == "augmented":
        return augmented_monoid(table.monoid(desc["base"]))
    if kind == "wreath_enum":
        from semidec.wreath import enumerate_wreath

        return enumerate_wreath(WreathContext(table.monoid(desc["top"]), table.monoid(desc["base"])))
    raise ValueError(f"cannot rebuild monoid from descriptor kind {kind!r}")


def build_carrier(table: Descriptors, i: int):
    """The ``wreath_ctx`` or ``product_carrier`` entry ``i`` of ``table``."""
    desc = table.entries[i]
    if desc["kind"] == "wreath_ctx":
        return WreathContext(table.monoid(desc["top"]), table.monoid(desc["base"]))
    return ProductCarrier(table.carrier(desc["left"]), table.carrier(desc["right"]))
