"""Exception types shared across the package.

Validation failures are ValueError subclasses so that CLI surfaces can map
them onto exit codes uniformly; resource overruns are RuntimeErrors because
they depend on configured caps, not on the input being malformed.  A
property violation is neither: the input is valid, and a check of the
paper's claims on it failed.
"""


class GcdNotOne(ValueError):
    """Generator list has gcd > 1 and so does not define a numerical semigroup."""


class NonMinimalGenerators(ValueError):
    """A generator is representable by the others; carries the offender."""

    def __init__(self, generator: int):
        self.generator = generator
        super().__init__(f"generator {generator} is a combination of the others")


class BaseMismatch(ValueError):
    """Two relative ideals over different semigroups were combined."""


class ResourceLimit(RuntimeError):
    """A configured size or degree cap was exceeded.  Never silent truncation."""


class InhomogeneousMatrix(ValueError):
    """The cyclic exponent data does not give a constant degree gap.

    ``offending`` lists the column indices (1-based) whose gap disagrees
    with column 1.
    """

    def __init__(self, gaps: list[int], offending: list[int]):
        self.gaps = gaps
        self.offending = offending
        super().__init__(
            f"degree gaps {gaps} are not constant (columns {offending} disagree with column 1)"
        )


class IdealMismatch(ValueError):
    """The 2-minor ideal differs from the semigroup's defining ideal."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(f"the 2-minors do not generate the defining ideal: {detail}")


class NotApplicable(ValueError):
    """The requested construction does not apply to this instance."""


class NoTabulatedWitness(ValueError):
    """The case is nearly Gorenstein but no explicit row table covers it."""


class WitnessFailed(ValueError):
    """A symbolic witness row failed verification; carries the nonzero remainder."""

    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class PropertyViolation(Exception):
    """Routes that must agree disagree, or a witness failed its check."""
