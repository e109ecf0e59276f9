"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: invalid input (2),
construction failure (3), algebraic rejection (4).
"""

import math


class GLLabError(Exception):
    """Base class for all toolkit errors."""


# --- invalid input -----------------------------------------------------------

class InvalidSpecError(GLLabError):
    """A constructor was given parameters outside its documented domain."""


class DomainMismatchError(GLLabError):
    """Two profile functions that must share a domain do not."""


class OutOfRegimeError(GLLabError):
    """An inequality check was requested outside the regime where it is valid."""


class InvalidBendError(GLLabError):
    """Quarter-bend geometric constraints violated."""


class HypothesisViolationError(GLLabError):
    """A declared hypothesis flag required for a cancellation step is missing."""


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
