"""Multiplication carriers and their serializable descriptors.

A carrier is anything a division witness can multiply target values in:
an enumerated Monoid, a direct product of carriers, or a WreathContext,
whose top and base are both enumerated Monoids with tables.  All three
expose identity_value / label / descriptor(), and the row interface of the
closure kernel: ``width``, ``to_row`` / ``from_row`` between a value and a
fixed-width int row, and ``mul_rows``, which multiplies every row of one
block by every row of another; ``mul_value`` is a one-row ``mul_rows``,
except on a Monoid, which multiplies as its ``mul_rows`` does, by its table
or its own carrier.
Descriptors are plain dicts from which ``build_carrier`` reconstructs an
equivalent carrier in a fresh process, which is what makes certificates
re-checkable from their serialized form.
"""

from __future__ import annotations

import json

import numpy as np

from semidec import monoid
from semidec.monoid import Monoid, product_value
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


_MONOIDS: dict[tuple[str, int], Monoid] = {}


def build_monoid(desc: dict) -> Monoid:
    """The monoid ``desc`` names, built once per canonical descriptor and
    ``TABLE_BOUND`` and shared, like ``build_family``: callers must not mutate it.

    A ``"close"`` descriptor's generators and identity must each be fixed on
    the right by the carrier's identity, else ``ValueError``.
    """
    key = (json.dumps(desc, sort_keys=True), monoid.TABLE_BOUND)
    m = _MONOIDS.get(key)
    if m is None:
        m = _MONOIDS[key] = _build_monoid(desc)
    return m


def _build_monoid(desc: dict) -> Monoid:
    from semidec.families import FamilySpec, augmented_monoid, build_family, constants_monoid, u1
    from semidec.keys import value_from_json
    from semidec.monoid import close_generators, direct_product, maximal_subgroup, quotient_by_central_units

    kind = desc["kind"]
    if kind == "family":
        fam = desc["family"]
        if fam == "U1":
            return u1()
        if fam == "constants":
            return constants_monoid(desc["points"])
        return build_family(FamilySpec(fam, desc["n"], build_ring(desc["ring"])))
    if kind == "close":
        carrier = build_carrier(desc["carrier"])
        gens = [value_from_json(g) for g in desc["generators"]]
        ident = value_from_json(desc["identity"]) if "identity" in desc else carrier.identity_value
        for v in gens + [ident]:
            if carrier.mul_value(v, carrier.identity_value) != v:
                raise ValueError(f"{v!r} is not a value of {carrier.label}")
        return close_generators(
            gens,
            carrier,
            ident,
            label=desc.get("label", ""),
            provenance=desc,
        )
    if kind == "transformation_close":
        from semidec.families import transformation_closure

        return transformation_closure(
            [tuple(value_from_json(g)) for g in desc["generators"]],
            label=desc.get("label", ""),
        )
    if kind == "product":
        return direct_product(build_monoid(desc["left"]), build_monoid(desc["right"]))
    if kind == "quotient_central":
        base = build_monoid(desc["base"])
        z = [base.index[value_from_json(v)] for v in desc["subgroup"]]
        return quotient_by_central_units(base, z)[0]
    if kind == "h_class_group":
        base = build_monoid(desc["base"])
        return maximal_subgroup(base, base.index[value_from_json(desc["idempotent"])])
    if kind == "augmented":
        return augmented_monoid(build_monoid(desc["base"]))
    if kind == "wreath_enum":
        from semidec.wreath import enumerate_wreath

        return enumerate_wreath(WreathContext(build_monoid(desc["top"]), build_monoid(desc["base"])))
    raise ValueError(f"cannot rebuild monoid from descriptor kind {kind!r}")


def build_carrier(desc: dict):
    kind = desc["kind"]
    if kind == "wreath_ctx":
        return WreathContext(build_monoid(desc["top"]), build_monoid(desc["base"]))
    if kind == "product_carrier":
        return ProductCarrier(build_carrier(desc["left"]), build_carrier(desc["right"]))
    return build_monoid(desc)
