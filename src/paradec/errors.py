"""Exception types shared across the package.

Every paradec error derives from :class:`ParadecError`, and also from the
builtin type it refines, so ``except ValueError`` keeps catching the input
errors.
"""


class ParadecError(Exception):
    """Base of the errors paradec raises on purpose."""


class ParseError(ParadecError, ValueError):
    """Malformed group-spec string, word, or bracketed literal.

    ``position`` is the character offset of the offending token in the
    original text, or None when it does not apply.
    """

    def __init__(self, message: str, position: "int | None" = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownSymbolError(ParadecError, ValueError):
    """A word references a generator symbol that the spec does not define."""


class MatrixOverflowError(ParadecError, OverflowError):
    """A matrix entry left the signed 64-bit range.

    Raised instead of silently producing huge integers so that certificate
    data stays within the documented machine-integer contract.
    """


class FreeWordLengthError(ParadecError, OverflowError):
    """A free-group word would exceed ``groups.MAX_FREE_WORD_LENGTH`` letters.

    The free-model counterpart of :class:`MatrixOverflowError`: raised
    before the word is built, so a huge exponent cannot exhaust memory.
    """


class VertexBudgetError(ParadecError, RuntimeError):
    """A ball or a freeness search would exceed the configured vertex budget."""


class DisconnectedGraphError(ParadecError, ValueError):
    """Spanning-tree sampling requires a connected graph."""


class RequiredEdgesCycleError(ParadecError, ValueError):
    """The edges a forest must contain already close a cycle.

    For a Cayley patch this signals torsion-like behaviour of the
    distinguished generator within the patch.
    """


class PatchEscapeError(ParadecError, ValueError):
    """A required product lies outside the patch; shrink the sets or grow it."""


class CertificateError(ParadecError, ValueError):
    """A matching certificate failed re-verification."""


class ViolatorError(ParadecError, ValueError):
    """A recorded Hall violator failed re-verification."""


class WitnessError(ParadecError, ValueError):
    """A recorded relation of a freeness search failed re-verification."""
