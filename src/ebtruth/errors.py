"""Exception hierarchy shared by all ebtruth modules."""


class EbtruthError(Exception):
    """Base class for all ebtruth errors."""


class ValidationError(EbtruthError):
    """Invalid input data or configuration."""


class NonFiniteError(ValidationError):
    def __init__(self, row: int, col: int):
        self.row = row
        self.col = col
        super().__init__(f"non-finite entry at row {row}, col {col}")


class NonFiniteParameterError(ValidationError):
    """A NaN or infinite parameter: of a generator spec, or a variance."""


class EmptyMatrixError(ValidationError):
    pass


class NonPositiveVarianceError(ValidationError):
    pass


class LengthMismatchError(ValidationError):
    pass


class ZeroNormInputError(ValidationError):
    pass


class IterationDivergenceError(EbtruthError):
    pass


class InsufficientReplicatesError(ValidationError):
    pass


class InsufficientSignalError(EbtruthError):
    pass


class InsufficientDataError(ValidationError):
    pass


class RequestTooLargeError(ValidationError):
    pass


class UnreachableFloorError(ValidationError):
    """A worker-variance spec whose floor the redraw loop cannot reach in time."""


class NoGroundTruthError(ValidationError):
    pass


class DuplicateGroundTruthError(ValidationError):
    pass


class ParseError(EbtruthError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
