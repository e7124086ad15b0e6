"""Exception types shared across the package."""


class NormLogicError(Exception):
    """Base class for all package errors."""


class DomainError(NormLogicError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ZeroVector(NormLogicError, ValueError):
    """A nonzero vector was required."""


class ConstructionFailed(NormLogicError, RuntimeError):
    """The unit-circle construction could not satisfy its constraints.

    The message names the first constraint that failed.
    """


class GridTooCoarse(NormLogicError, RuntimeError):
    """Circle-intersection scan hit an ambiguous plateau at this resolution."""


class UnboundVariable(NormLogicError, KeyError):
    """Evaluation met a variable with no value in the assignment."""


class SortError(NormLogicError, TypeError):
    """A term or formula is not well-sorted."""


class NotClosed(NormLogicError, ValueError):
    """A closed sentence was required but free variables remain."""


class ParseError(NormLogicError, ValueError):
    """Concrete-syntax parse failure; carries the input offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class FormulaTooLarge(NormLogicError, ValueError):
    """A formula would compile to a sentence nested deeper than a sentence
    file may be (``sexpr.MAX_DEPTH``); the message starts
    ``formula too large: ``."""


class InputError(NormLogicError, ValueError):
    """An input file that cannot be read as UTF-8 text or JSON, a JSON input
    of the wrong shape, or a config file with an unknown key or a bad
    value."""


class WitnessInvalid(NormLogicError, ValueError):
    """A claimed arithmetic witness does not satisfy the formula."""


class ToleranceBreach(NormLogicError, RuntimeError):
    """A lifted assignment missed an antecedent atom by more than the tolerance.

    The message reports the offending atom and its residual.
    """
