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

    def __init__(self, k: int, j: int, card1: int, card2: int):
        super().__init__("specialization forests are not order-isomorphic")
        self.first_difference = (k, j, card1, card2)     # card(C^k_j) in each
