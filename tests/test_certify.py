"""The family certifier and the halving search shared by the certified
searches."""

import numpy as np
import pytest

from gllab import curvature, schedule
from gllab.certify import (IsotopyCertificate, _halving_search,
                           family_certificate)
from gllab.errors import (CertificationFailedError, CompilationFailedError,
                          ConstructionFailedError)
from gllab.schedule import round_metric


def scripted(margins):
    """An attempt that returns the next of ``margins`` and records each x."""
    tried = []

    def attempt(x):
        tried.append(x)
        return margins[len(tried) - 1], ("result", x)
    return attempt, tried


class TestHalvingSearch:
    def test_first_positive_margin_ends_the_search(self):
        attempt, tried = scripted([-1.0, None, 0.0, 0.25, 2.0])
        assert _halving_search(3.0, attempt, 10) == (0.25, ("result", 0.375))
        assert tried == [3.0, 1.5, 0.75, 0.375]

    def test_exhausted_search_returns_its_largest_finite_margin(self):
        attempt, tried = scripted([-2.0, np.nan, -0.5, None, -np.inf, -1.0])
        assert _halving_search(1.0, attempt, 6) == (-0.5, None)
        assert tried == [2.0 ** -k for k in range(6)]

    @pytest.mark.parametrize("margins", [
        [], [None, None], [np.nan, -np.inf], [None, np.nan]])
    def test_no_finite_margin_is_none(self, margins):
        attempt, tried = scripted(margins)
        assert _halving_search(1.0, attempt, len(margins)) == (None, None)
        assert len(tried) == len(margins)


def exhaust_standardize(monkeypatch):
    monkeypatch.setattr(schedule, "_STANDARDIZE_BUDGET", 2)
    monkeypatch.setattr(
        schedule, "_certify_homotopy",
        lambda *args: IsotopyCertificate(grid="stub", min_scalar=-np.inf))
    with pytest.raises(CompilationFailedError) as err:
        schedule._standardize_search(2, 4, 1.0)
    return err.value


def exhaust_slowdown(monkeypatch):
    monkeypatch.setattr(curvature, "_SLOWDOWN_BUDGET", 2)
    monkeypatch.setattr(
        curvature, "_slowdown_grid",
        lambda n, jets, sig, sgrid, tgrid, h:
            np.full((sgrid.size, tgrid.size), np.nan))
    with pytest.raises(CertificationFailedError) as err:
        curvature.slowdown_concordance(lambda sig: round_metric(7, 1.0), 7,
                                       grid_shape=(10, 10))
    return err.value


@pytest.mark.parametrize("exhaust", [exhaust_standardize, exhaust_slowdown])
def test_exhausted_search_with_no_finite_margin_reports_none(
        exhaust, monkeypatch):
    # every attempt's minimum is -inf or NaN, so none is a best margin
    err = exhaust(monkeypatch)
    assert err.best_margin is None
    assert "best margin None" in str(err)


@pytest.mark.parametrize("margin", [np.inf, -np.inf, np.nan, None])
def test_error_reads_a_non_finite_margin_as_none(margin):
    assert ConstructionFailedError("stub", margin).best_margin is None


def test_error_keeps_a_finite_numpy_margin():
    margin = np.float64(-0.5)
    assert ConstructionFailedError("stub", margin).best_margin is margin


class TestFamilyCertificate:
    def test_a_nan_anywhere_is_the_minimum_and_its_position_is_recorded(self):
        values = np.array([[1.0, -5.0, 2.0], [3.0, np.nan, -9.0]])
        cert = family_certificate(
            values, {"a": np.array([[10.0], [20.0]]), "b": [0.1, 0.2, 0.3]},
            "nan", "2 x 3")
        assert np.isnan(cert.min_scalar) and not cert.passed
        assert cert.extra == {"argmin_a": 20.0, "argmin_b": 0.2}

    def test_ties_go_to_the_first_entry_in_c_order(self):
        values = [[3.0, 1.0, 1.0], [1.0, 2.0, 1.0]]
        cert = family_certificate(
            values, {"row": [[0.0], [1.0]], "col": [0.0, 0.5, 1.0]},
            "ties", "2 x 3")
        assert cert.min_scalar == 1.0
        assert cert.extra == {"argmin_row": 0.0, "argmin_col": 0.5}

    def test_per_row_coordinates_are_read_at_the_right_row(self):
        # each row has its own t grid, as each foliation leaf does
        t = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 6.0]])
        values = [[5.0, 4.0, 6.0], [7.0, 8.0, 2.0]]
        cert = family_certificate(values, {"nu": [[0.0], [1.0]], "t": t},
                                  "rows", "2 leaves x 3 samples")
        assert cert.extra == {"argmin_nu": 1.0, "argmin_t": 6.0}

    def test_keyword_extras_sit_beside_the_argmin_keys(self):
        cert = family_certificate([2.0, 1.0], {"t": [0.0, 0.5]}, "label",
                                  "2 samples", L_tried=[1.0], profiles=3)
        assert cert.extra == {"argmin_t": 0.5, "L_tried": [1.0],
                              "profiles": 3}
        assert (cert.grid, cert.label, cert.min_scalar) == (
            "2 samples", "label", 1.0)
        assert cert.passed

    def test_every_argmin_is_a_python_float(self):
        values = np.arange(6, dtype=np.float32).reshape(2, 3)[::-1]
        cert = family_certificate(
            values, {"i": np.arange(2)[:, None],
                     "j": np.arange(3, dtype=np.float32)},
            "types", "2 x 3")
        assert cert.extra == {"argmin_i": 1.0, "argmin_j": 0.0}
        assert all(type(v) is float for v in cert.extra.values())
        assert type(cert.min_scalar) is float
