"""Error taxonomy shared by all modules.

Every domain failure raises a subclass of ToolkitError so callers (and the
command line front end) can map failures to structured reports.  Errors carry
plain-text messages; anything needed to reproduce a failure goes into the
message itself.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(ToolkitError):
    """A ring or system descriptor string does not match the grammar."""


class BadInput(ToolkitError):
    """An argument is outside the documented domain of an operation."""


class NonEnumerableRing(ToolkitError):
    """An enumeration was requested over an infinite ring."""


class NotIdempotent(ToolkitError):
    """The supplied ring element is not an idempotent."""


class NotInvertible(ToolkitError):
    """A ring element or matrix has no inverse."""


class ShapeMismatch(ToolkitError):
    """Matrix or vector dimensions are incompatible."""


class DegenerateForm(ToolkitError):
    """A symmetric bilinear form has a non-invertible Gram matrix."""


class DegenerateTrace(ToolkitError):
    """A trace pairing is missing or its Gram matrix is not invertible."""


class IncompatibleRings(ToolkitError):
    """No canonical embedding exists between the given rings."""


class AxiomFailure(ToolkitError):
    """A structure failed its defining identities."""


class NoSquareRootOfMinusOne(ToolkitError):
    """The base ring has no element i with i*i = -1."""


class BadDims(ToolkitError):
    """Dimension parameters are outside the documented range."""


class NotSimilitude(ToolkitError):
    """A linear map is not a similitude of the given form."""


class NotIsometry(ToolkitError):
    """A linear map is not an isometry of the given form."""


class NonFieldRing(ToolkitError):
    """An operation requiring a field (or a product of fields) got neither."""


class NotFactorable(ToolkitError):
    """A triple automorphism did not split as a sign times an algebra
    automorphism.  This would contradict a verified structure theorem, so the
    message carries a full reproducer."""


class BudgetExceeded(ToolkitError):
    """An enumeration or exhaustive check would exceed its candidate budget."""


class MixedSystems(ToolkitError):
    """Two automorphism sets over different systems were compared."""


class GradingViolation(ToolkitError):
    """A bracket landed outside the component prescribed by the grading."""


class UnknownClaim(ToolkitError):
    """The requested claim id is not in the catalog."""


class EngineMismatch(ToolkitError):
    """A fast scan returned an element the pure predicate rejects, or
    missed the identity."""


def check_jobs(jobs: int) -> None:
    """BadInput unless jobs, a worker thread count, is at least 1."""
    if jobs < 1:
        raise BadInput(f"jobs must be at least 1, got {jobs}")
