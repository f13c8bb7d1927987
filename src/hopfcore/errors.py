"""Exception hierarchy shared by all hopfcore modules: one class for each
outcome the program catches or tells apart."""


class HopfcoreError(Exception):
    """Base class for all errors raised by hopfcore."""


class InputFormatError(HopfcoreError):
    """A file or table does not match the documented schema."""


class NotABialgebra(InputFormatError):
    """Well-formed tables that fail a bialgebra axiom or the antipode law."""


class TruncationError(HopfcoreError):
    """A value of degree beyond the truncation bound would be required."""


class NotExhaustive(HopfcoreError):
    """The filtration stalled before reaching the full truncated space."""


class BasisDefect(HopfcoreError):
    """Ordered divided-power monomials fail to give a basis at some degree."""


class ExpansionViolation(HopfcoreError):
    """A comultiplication expansion has an illegal term (split coefficient
    not 1, or a non-split term that is not strictly smaller)."""


class NoWitnessFound(HopfcoreError):
    """The bounded witness scan failed; refutes the declared ring property."""
