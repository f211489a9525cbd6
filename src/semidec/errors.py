"""Exception types shared across the package."""


class SemidecError(Exception):
    pass


class InvalidSpec(SemidecError):
    """A ring spec, family spec or degree that names nothing the package builds; the CLI exits 2."""


# -- semiring construction --

class NotPrime(InvalidSpec):
    pass


class BoundExceeded(InvalidSpec):
    pass


class AxiomViolation(InvalidSpec):
    """A semiring law failed; carries the law name and a counterexample."""

    def __init__(self, law, counterexample):
        self.law = law
        self.counterexample = counterexample
        super().__init__(f"axiom violated: {law} at {counterexample}")


class FieldRequired(InvalidSpec):
    """A field-only construction asked of a semiring that is not a field."""


# -- matrices and affine maps --

class DimensionMismatch(SemidecError):
    pass


class DimensionTooSmall(InvalidSpec):
    pass


# -- monoid engine --

class SizeLimitExceeded(SemidecError):
    def __init__(self, limit, detail=""):
        self.limit = limit
        super().__init__(f"size limit {limit} exceeded{': ' + detail if detail else ''}")


class NotIdempotent(SemidecError):
    pass


class InvalidMonoid(SemidecError):
    """A monoid file or multiplication table that does not define a monoid on its elements."""

    def __init__(self, label, detail):
        super().__init__(f"{label or 'monoid'}: {detail}")


class NotCentral(SemidecError):
    """Carries a witness pair (z, x) with zx != xz."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"subgroup not central: counterexample {pair}")


# -- wreath products --

class ContextMismatch(SemidecError):
    pass


class NotClosed(SemidecError):
    """A product is not in the element list; ``pair`` holds the factors' indices when known."""

    def __init__(self, message, pair=None):
        self.pair = pair
        super().__init__(message)

    @classmethod
    def product(cls, what, i, j, elements):
        return cls(
            f"{what or 'monoid'}: the product of elements {i} and {j} "
            f"({elements[i]!r} * {elements[j]!r}) is not in the element list",
            (i, j),
        )


# -- division witnesses --

class WitnessError(SemidecError):
    pass


class NotFunctional(WitnessError):
    """Two closure pairs share a target element with distinct source images."""

    def __init__(self, target, source_a, source_b):
        self.target = target
        self.sources = (source_a, source_b)
        super().__init__(f"relation not functional at target {target!r}: sources {source_a!r}, {source_b!r}")


class NotSurjective(WitnessError):
    def __init__(self, missing):
        self.missing = missing
        super().__init__(f"closure misses {len(missing)} source element(s)")


class PreimageMissing(WitnessError):
    pass


class InvalidCertificate(SemidecError):
    """A certificate whose carriers cannot be rebuilt or whose pairs are not carrier values."""


# -- pipelines and reports --

class PipelineCheckFailed(SemidecError):
    """A pipeline's check of its own result failed; the message names the check."""


class CensusMismatch(SemidecError):
    pass


class UnsupportedFormat(SemidecError):
    pass


class InvalidReport(SemidecError):
    """A report or plan file whose shape is not one ``export`` renders; the CLI exits 2."""
