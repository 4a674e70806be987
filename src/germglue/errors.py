"""Exception taxonomy shared by the whole package.

The CLI maps these onto its exit-code contract:

* ``ValidationFailure`` and ``AgreementError``  -> exit 2
* ``ShrinkExhausted`` / ``CoverageLossError`` / ``CertificateIncompleteError`` -> exit 3
* ``SchemaError`` and plain I/O failures        -> exit 4

Everything else (``ShapeError`` and friends) indicates a programming error in
the caller and is allowed to propagate.
"""

from __future__ import annotations


class GermGlueError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GermGlueError, ValueError):
    """Operands have incompatible variable counts, orders or dimensions."""


class CompositionDomainError(GermGlueError, ValueError):
    """Substitution target has a constant term, so truncated composition
    would not be well defined on jets."""


class NotInvertibleError(GermGlueError, ValueError):
    """A linear part, matrix or jet required to be invertible is singular."""


class ValidationFailure(GermGlueError):
    """Input data violates a structural condition (germ identities, cocycle,
    pairing axiom, ...).  Carries the machine-readable report when raised by
    a pipeline."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class AgreementError(ValidationFailure):
    """Chart-wise maps or morphism components disagree on an overlap."""


class ShrinkExhausted(GermGlueError):
    """Radius search hit its floor before all inclusions certified."""


class CoverageLossError(GermGlueError):
    """Shrunk cover no longer covers the declared base sample points."""


class CertificateIncompleteError(GermGlueError):
    """A gluing step was invoked without the certificates it relies on."""


class SchemaError(GermGlueError, ValueError):
    """A JSON document does not conform to its published schema."""
