"""Exception types shared across the package."""


class MaireError(Exception):
    """Base class for all errors raised by this package."""


class LoadError(MaireError):
    """Raised when a table or schema file cannot be loaded or validated."""


class SchemaError(MaireError):
    """Raised when attribute declarations are inconsistent or unusable."""


class ProviderError(MaireError):
    """Raised when a prediction provider fails to label a batch of points.

    ``point_index`` is the index (within the submitted batch) of the first
    point affected by the failure, when it can be determined.
    """

    def __init__(self, message: str, point_index: int | None = None):
        super().__init__(message)
        self.point_index = point_index


class InconsistentExplanationError(MaireError):
    """Raised when bounds cannot be decoded into a meaningful rule.

    The main case is a one-hot encoded attribute whose bounds admit no
    category at all (only the value 0 is selectable), which the containment
    constraint is supposed to rule out.
    """
