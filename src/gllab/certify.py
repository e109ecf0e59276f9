"""Shared certification primitives.

An :class:`IsotopyCertificate` is a sampled numeric record witnessing strict
positivity of scalar curvature along a constructed metric or family: the grid
it was sampled on, the minimum value found, and the tolerance it was compared
against.  Certificates are produced all over the toolkit (curvature scans,
bend synthesis, schedule compilation) and serialize to JSON.

``pmap`` is the order-preserving map that every scan over grid cells,
leaves or homotopy parameters goes through.  It runs serially: the scans are
GIL-bound Python, and a thread pool measured slower than one thread.
``write_csv`` is the one CSV writer behind every table the toolkit emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def thread_count():
    """Number of workers ``pmap`` uses: always 1."""
    return 1


def pmap(fn, items):
    """Order-preserving map of ``fn`` over ``items``."""
    return [fn(x) for x in items]


def write_csv(path_or_buf, header, rows):
    """Write ``header`` and ``rows`` as CSV to a path or a text buffer.

    Strings are written as they are and numbers with ``%.17g``.
    """
    lines = [header]
    lines += [",".join(v if isinstance(v, str) else "%.17g" % v for v in row)
              for row in rows]
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


@dataclass
class IsotopyCertificate:
    """Positivity witness: pass iff min_scalar > tolerance >= 0."""

    grid: str
    min_scalar: float
    tolerance: float = 0.0
    label: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")

    @property
    def passed(self):
        return self.min_scalar > self.tolerance

    def to_json(self):
        return {
            "grid": self.grid,
            "min_scalar": self.min_scalar,
            "tolerance": self.tolerance,
            "label": self.label,
            "passed": bool(self.passed),
            **({"extra": self.extra} if self.extra else {}),
        }

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        lbl = f" {self.label!r}" if self.label else ""
        return (f"<IsotopyCertificate{lbl} {status}: min R = "
                f"{self.min_scalar:.6g} on {self.grid}>")
