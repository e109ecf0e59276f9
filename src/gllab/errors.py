"""Exception types shared across the toolkit, and its integer and real rules.

The classes alone decide the CLI's exit code: an ``InvalidInputError`` is
invalid input (2), an ``AlgebraicRejection`` an algebraic rejection (4) and
any other error, a bug included, a construction failure (3).  No numpy.
"""

import math
import numbers


class GLLabError(Exception):
    """Base class for all toolkit errors."""


# --- invalid input -----------------------------------------------------------

class InvalidInputError(GLLabError):
    """Base for input outside a documented domain or a theorem's hypotheses."""


class InvalidSpecError(InvalidInputError):
    """A constructor was given parameters outside its documented domain."""


class DomainMismatchError(InvalidInputError):
    """Two profile functions that must share a domain do not."""


class OutOfRegimeError(InvalidInputError):
    """An inequality check was requested outside the regime where it is valid."""


class InvalidBendError(InvalidInputError):
    """Quarter-bend geometric constraints violated."""


class HypothesisViolationError(InvalidInputError):
    """A declared hypothesis flag required for a cancellation step is missing."""


def _check_ints(least, message, **values):
    """Raise ``InvalidSpecError`` unless each of ``values`` is an integer
    (not a bool) of at least ``least``; ``message`` says what less breaks."""
    for name, d in values.items():
        if type(d) is not int and (isinstance(d, bool)
                                   or not isinstance(d, numbers.Integral)):
            raise InvalidSpecError(f"{name} must be an integer, got {d!r}")
        if d < least:
            raise InvalidSpecError(message)


def _finite_reals(*xs):
    """True if each x is a finite real or a 0-d array of one, not a bool."""
    for x in xs:
        if type(x) is not float:
            x = x.item() if getattr(x, "shape", None) == () else x
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                return False
        if not -math.inf < x < math.inf:
            return False
    return True


# --- construction / certification failure ------------------------------------

class SingularProfileError(GLLabError):
    """A warping function vanishes at an interior point."""


class ConstructionFailedError(GLLabError):
    """A numeric synthesis step (root find / parameter search) failed.

    ``best_margin`` is the largest finite margin the failed step reached,
    or None when it reached none: the constructor stores a NaN or infinite
    margin as None, so a raise may pass any minimum it read.
    """

    def __init__(self, msg, best_margin=None):
        super().__init__(msg)
        finite = best_margin is not None and math.isfinite(best_margin)
        self.best_margin = best_margin if finite else None


class NoFeasibleBendError(ConstructionFailedError):
    """No initial bend angle could be certified within the search budget."""


class AssemblyError(ConstructionFailedError):
    """Bend pieces do not fit together, or the glued curve fails its test."""


class TiltTooLargeError(ConstructionFailedError):
    """Tail tilt drives the profile non-positive."""


class InversionError(ConstructionFailedError):
    """Monotone numeric inversion failed: the function is not monotone or
    not finite, the target is out of range, or the search did not converge.

    ``residual`` is the worst |F(x) - y| left when the search itself failed.
    """

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class CertificationFailedError(ConstructionFailedError):
    """A positivity certificate could not be produced within budget."""


class CompilationFailedError(ConstructionFailedError):
    """Schedule compilation exhausted its search budget."""


class DemoFailedError(ConstructionFailedError):
    """A demo stage failed its certificate (``stage``, ``best_margin``)."""

    def __init__(self, msg, stage=None, best_margin=None):
        super().__init__(msg, best_margin)
        self.stage = stage


# --- algebraic rejection ------------------------------------------------------

class AlgebraicRejection(GLLabError):
    """Base for combinatorial/Morse-algebra rejections."""


class InconsistentBoundaryError(AlgebraicRejection):
    """Declared boundary matrices do not square to zero."""


class NotACylinderError(AlgebraicRejection):
    """Chain complex is not exact, so it cannot come from a cylinder."""


class NoIntegralBasisError(AlgebraicRejection):
    """Normal form has non-unit invariant factors; no integral cancelling basis."""
