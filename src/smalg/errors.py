"""Exception types shared across the package.

Every error that carries evidence (a witness pair, a violating triple, ...)
stores it on the exception instance so callers and the CLI can report it
without parsing the message string.
"""

from __future__ import annotations


class SmalgError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SmalgError):
    """Operands have incompatible shapes."""


class Singular(SmalgError):
    """A matrix required to be invertible is not."""


class NotClosed(SmalgError):
    """An edge set fails reflexivity or transitivity under validation.

    ``witness`` is either ``("reflexive", i)`` or
    ``("transitive", (i, j), (j, k))`` with the missing pair implied.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotClassUnion(SmalgError):
    """A vertex subset is not a union of equivalence blocks."""


class NotTransitive(SmalgError):
    """A weight assignment violates a multiplicative transitivity relation.

    ``witness`` is the composable pair ``((i, j), (j, k))`` that fails.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ZeroWeight(SmalgError):
    """A transitive map was given a zero weight (values must be units)."""


class SupportViolation(SmalgError):
    """A matrix has a nonzero entry outside the allowed pair set.

    ``pair`` names the offending position.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotDiagonalizable(SmalgError):
    """The minimal polynomial has a repeated root."""


class IrrationalSpectrum(SmalgError):
    """Some eigenvalue lies outside the Gaussian rationals."""


class PreconditionViolated(SmalgError):
    """A documented operation precondition failed a cheap runtime check."""


class NotJordan(SmalgError):
    """A linear map fails the Jordan product identity.

    ``pair`` is a pair of unit positions ``((i, j), (k, l))`` witnessing the
    failure when one was identified.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class VanishingUnitImage(SmalgError):
    """A classification precondition failed: some unit maps to zero."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InternalInconsistency(SmalgError):
    """A theorem-backed reconstruction failed; indicates a bug or a violated
    precondition upstream, never a routine negative verdict."""


class GIsTrivial(SmalgError):
    """A witness construction needs a nontrivial weight map but got a trivial one."""


class NotUnital(SmalgError):
    """An operation requires a unital map (identity maps to identity)."""


class FormatError(SmalgError):
    """A text input does not parse under one of the file formats.

    ``line`` is the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
