"""Exception hierarchy shared by all hopfcore modules."""


class HopfcoreError(Exception):
    """Base class for all errors raised by hopfcore."""


class InputFormatError(HopfcoreError):
    """A file or table does not match the documented schema."""


class NotABialgebra(InputFormatError):
    """Well-formed tables that fail a bialgebra axiom or the antipode law."""


class ForeignGenerator(InputFormatError):
    """An operator names a generator id that is not in the generator set."""


class InnerNotContained(HopfcoreError):
    """complement() called with inner not contained in outer."""


class NoConstrainedComplement(HopfcoreError):
    """complement() found a chosen vector violating the constraint and no
    inner vector to correct it with."""


class TruncationError(HopfcoreError):
    """A value of degree beyond the truncation bound would be required."""


class NotALieAlgebra(HopfcoreError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


class NotExhaustive(HopfcoreError):
    """The filtration stalled before reaching the full truncated space."""


class NotPolynomial(HopfcoreError):
    """Graded generator counts are inconsistent with a polynomial algebra."""


class BasisDefect(HopfcoreError):
    """Ordered divided-power monomials fail to give a basis at some degree."""


class ExpansionViolation(HopfcoreError):
    """A comultiplication expansion has an illegal term (split coefficient
    not 1, or a non-split term that is not strictly smaller)."""


class ZeroElement(HopfcoreError):
    """Leading term of the zero element requested."""


class HostMismatch(HopfcoreError):
    """Convolution operands live over different basis structures."""


class RingMismatch(HopfcoreError):
    """Convolution operands take values in different coefficient rings."""


class NoWitnessFound(HopfcoreError):
    """The bounded witness scan failed; refutes the declared ring property."""


class ProbeAnomaly(HopfcoreError):
    """A probe outcome that a verified property rules out; implementation
    bug signal, aborts with a diagnostic payload."""
