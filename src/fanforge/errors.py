"""Shared exception types."""


class StructuralError(ValueError):
    """Input object is malformed (bad indices, ragged table, ...)."""


class NotAFanError(ValueError):
    """A table failed the operative fan criterion; carries a witness."""

    def __init__(self, message: str, witness: tuple = ()):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(RuntimeError):
    """An input size bound or a search cap was exceeded."""


class OrderMismatchError(ValueError):
    """Two spaces have non-isomorphic specialization forests."""

    def __init__(self, code1: str, code2: str):
        super().__init__("specialization forests are not order-isomorphic")
        self.code1 = code1
        self.code2 = code2
