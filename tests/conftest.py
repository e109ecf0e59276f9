"""Profile wrappers shared by the evaluation-contract tests, and a fresh
set of geometry memos for every test."""

import numpy as np
import pytest

from gllab import certify


@pytest.fixture(autouse=True)
def empty_memos():
    """Start each test with every memo empty (``certify._MEMOS``), so that
    no test sees a geometry an earlier one built (a memo hit skips the
    counted builds)."""
    for memo in certify._MEMOS:
        memo.entries.clear()


class CountedProfile:
    """A profile that records the order of every ``jet`` call it gets."""

    def __init__(self, f):
        self.f, self.b, self.orders = f, f.b, []

    def jet(self, t, k=2):
        self.orders.append(k)
        return self.f.jet(t, k)


class OnePointEnds:
    """A profile whose jet at t = 0 and t = b comes from one-point calls;
    ``ends_read`` counts the array entries so replaced."""

    def __init__(self, f):
        self.f, self.b, self.ends_read = f, f.b, 0

    def jet(self, t, k=2):
        if np.ndim(t) == 0:
            return self.f.jet(t, k)
        out = [np.array(d) for d in self.f.jet(t, k)]
        for i in np.flatnonzero((t == 0.0) | (t == self.b)):
            self.ends_read += 1
            for d, end in zip(out, self.f.jet(float(t[i]), k)):
                d[i] = end
        return tuple(out)


@pytest.fixture
def counted():
    return CountedProfile


@pytest.fixture
def one_point_ends():
    return OnePointEnds
