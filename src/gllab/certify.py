"""Shared certification primitives.

An :class:`IsotopyCertificate` is a sampled numeric record witnessing strict
positivity of scalar curvature along a constructed metric or family: the grid
it was sampled on and the minimum value found, which must exceed 0.
Every certificate is the least sample of a family, read by
``family_certificate`` with where it sits; certificates serialize to JSON.

``pmap`` (an order-preserving serial map) and ``thread_count`` have no
caller in the package: a homotopy and a foliation each take one array pass.
They stay because the benchmark's runner, self-check and tracer read them.
``write_csv`` is the one CSV writer behind every table the toolkit emits.
``_Memo`` is the LRU memo of every geometry built once per shape (torpedo
caps too; all in ``_MEMOS``); ``_frozen`` marks memoized arrays read-only.
``_halving_search`` is every search that halves a parameter to certify.
``_family_grid`` is the rule for a family parameter's grid in [0, 1].
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError


def thread_count():
    """Number of workers ``pmap`` uses: always 1."""
    return 1


def pmap(fn, items):
    """Order-preserving map of ``fn`` over ``items``."""
    return [fn(x) for x in items]


# entries kept by each memo (least recently used dropped first), and every
# memo, for a caller that must start from empty ones
_MEMO_SIZE = 2
_MEMOS = []


class _Memo:
    """``build`` memoized on its arguments, types included, keeping at most
    ``_MEMO_SIZE`` results.  Arguments without a value equality (curves,
    profiles) are keys by identity, held by the memo while it keeps them.
    A miss drops the least recently used results before it builds, so no
    build runs beside a full memo; a build that raises stores nothing."""

    def __init__(self, build):
        self.build = build
        self.entries = OrderedDict()
        _MEMOS.append(self)

    def __call__(self, *args):
        # a 0-d array (unhashable) enters as its numpy scalar
        args = [a[()] if getattr(a, "shape", 0) == () else a for a in args]
        key = (*args, *map(type, args))
        if key in self.entries:
            self.entries.move_to_end(key)
            return self.entries[key]
        while len(self.entries) >= _MEMO_SIZE:
            self.entries.popitem(last=False)
        self.entries[key] = value = self.build(*args)
        return value


def _halving_search(x, attempt, budget):
    """Try ``attempt`` at x, x/2, x/4, ..., at most ``budget`` times.

    ``attempt(x)`` returns (margin, result), margin None when it reached
    none.  Returns the first (margin, result) with margin > 0, or else
    (best, None): the largest finite margin seen, or None if none was.
    """
    best = None
    for _ in range(budget):
        margin, result = attempt(x)
        if margin is not None:
            if margin > 0:
                return margin, result
            if math.isfinite(margin) and (best is None or margin > best):
                best = margin
        x *= 0.5
    return best, None


def _family_grid(values, name):
    """``values`` as a float array, if a nonempty one-dimensional sequence of
    numbers in [0, 1] (no NaN), else ``InvalidSpecError``."""
    try:
        grid = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise InvalidSpecError(f"{name} must hold numbers: {err}") from None
    if not (grid.ndim == 1 and grid.size
            and np.all((0 <= grid) & (grid <= 1))):
        raise InvalidSpecError(f"{name} must be a nonempty one-dimensional "
                               f"sequence in [0, 1], got {grid}")
    return grid


def _frozen(*arrays):
    """Mark memoized arrays, also in nested lists and tuples, read-only."""
    for a in arrays:
        if isinstance(a, (list, tuple)):
            _frozen(*a)
        elif isinstance(a, np.ndarray):
            a.flags.writeable = False
    return arrays


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
    """Positivity witness: pass iff min_scalar > 0 (a NaN fails)."""

    grid: str
    min_scalar: float
    label: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.min_scalar > 0

    def to_json(self):
        return {
            "grid": self.grid,
            "min_scalar": self.min_scalar,
            "tolerance": 0.0,  # the report format keeps the retired field
            "label": self.label,
            "passed": bool(self.passed),
            **({"extra": self.extra} if self.extra else {}),
        }

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        lbl = f" {self.label!r}" if self.label else ""
        return (f"<IsotopyCertificate{lbl} {status}: min R = "
                f"{self.min_scalar:.6g} on {self.grid}>")


def family_certificate(values, axes, label, grid, **extra):
    """Certificate of the least entry of ``values``, sampled on ``grid``.

    The least entry is the first in C order attaining the minimum, a NaN
    being least.  ``axes`` maps each name to coordinates that broadcast
    against ``values``; the certificate's ``extra`` holds ``argmin_<name>``,
    each axis's coordinate at the least entry, then the keywords ``extra``.
    """
    values = np.asarray(values, dtype=float)
    i = np.unravel_index(np.argmin(values), values.shape)
    where = {f"argmin_{k}": float(np.broadcast_to(v, values.shape)[i])
             for k, v in axes.items()}
    return IsotopyCertificate(grid=grid, min_scalar=float(values[i]),
                              label=label, extra={**where, **extra})
