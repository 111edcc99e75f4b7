"""Exception types shared across the package."""


class HighProbError(Exception):
    """Base class for all package-specific errors."""


class BadPartition(HighProbError):
    pass


class ZeroOrNegativeWeight(HighProbError):
    pass


class WeightsNotNormalized(HighProbError):
    pass


class BadNeighborhood(HighProbError):
    pass


class FormulaSyntaxError(HighProbError):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class ExpansionTooLarge(HighProbError):
    pass


class BoundTooLarge(HighProbError):
    pass


class CellTooLargeForBruteForce(HighProbError):
    pass


class UniverseTooLarge(HighProbError):
    pass


class FrameMismatch(HighProbError):
    pass


class ProofFormatError(HighProbError):
    pass
