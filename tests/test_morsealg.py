"""Combinatorial handle algebra: normal forms, exactness, plans."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gllab.morsealg as morsealg
from gllab.errors import (HypothesisViolationError, InconsistentBoundaryError,
                          InvalidSpecError, NoIntegralBasisError,
                          NotACylinderError)
from gllab.morsealg import (CancellationPlan, ChainComplex, CriticalPoint,
                            MorseDescription, _bareiss, build_chain_complex,
                            cancellation_plan, check_admissible,
                            check_cylinder_exactness,
                            choose_cancelling_bases, rational_rank, reverse,
                            smith_normal_form, well_index)


def two_point(n=7, b=1):
    return MorseDescription(
        n, [CriticalPoint("w", 3, 0.25), CriticalPoint("z", 4, 0.75)],
        {(4, 3): [[b]]})


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rand_unimod(rng, n):
    """Identity scrambled by 3n random row operations with c in [-2, 2]."""
    m = eye(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += c * m[j][k]
    return m


def fraction_rank_det(m):
    """Reference (rank, det) by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    det, r = Fraction(1), 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][c]
        for i in range(r + 1, rows):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r, (det if r == rows == cols else 0)


class TestDescriptions:
    def test_level_interior(self):
        with pytest.raises(InvalidSpecError):
            CriticalPoint("a", 2, 0.0)
        with pytest.raises(InvalidSpecError):
            CriticalPoint("a", 2, 1.0)

    def test_admissibility(self):
        assert check_admissible(two_point())
        assert check_admissible(MorseDescription(7, []))
        assert not check_admissible(
            MorseDescription(7, [CriticalPoint("x", 6, 0.5)]))

    def test_shape_validation(self):
        with pytest.raises(InvalidSpecError):
            MorseDescription(7, [CriticalPoint("w", 3, 0.25)],
                             {(4, 3): [[1]]})

    def test_well_index(self):
        d = MorseDescription(7, [CriticalPoint("a", 4, 0.3),
                                 CriticalPoint("b", 3, 0.7)])
        w = well_index(d)
        assert w.points[0].id == "a" and w.points[0].level > w.points[1].level
        # already well-indexed -> identity on levels
        w2 = well_index(w)
        assert [p.level for p in w2.points] == [p.level for p in w.points]
        # equal indices merged to a single level
        d3 = MorseDescription(7, [CriticalPoint("a", 3, 0.2),
                                  CriticalPoint("b", 3, 0.8)])
        w3 = well_index(d3)
        assert w3.points[0].level == w3.points[1].level

    def test_reverse(self):
        d = two_point()
        r = reverse(d)
        assert [p.index for p in r.points] == [5, 4]
        assert r.matrix(5, 4) == [[1]]
        rr = reverse(r)
        assert [(p.id, p.index) for p in rr.points] == \
            [(p.id, p.index) for p in d.points]
        assert rr.matrix(4, 3) == d.matrix(4, 3)

    def test_reverse_inadmissible_flagged(self):
        r = reverse(MorseDescription(7, [CriticalPoint("a", 2, 0.5)]))
        assert r.points[0].index == 6
        assert r.flags["admissible"] is False

    def test_json_round_trip(self):
        d = two_point()
        blob = json.dumps(d.to_json())
        d2 = MorseDescription.from_json(blob)
        assert d2.to_json() == d.to_json()


class TestChainComplex:
    def test_build_and_exactness(self):
        cc = build_chain_complex(two_point())
        assert cc.ranks == {3: 1, 4: 1}
        assert check_cylinder_exactness(cc)

    def test_zero_boundary_not_exact(self):
        cc = build_chain_complex(two_point(b=0))
        assert not check_cylinder_exactness(cc)

    def test_empty_complex(self):
        cc = build_chain_complex(MorseDescription(7, []))
        assert cc.ranks == {}
        assert check_cylinder_exactness(cc)

    def test_d_squared_enforced(self):
        bad = MorseDescription(
            7,
            [CriticalPoint("a", 2, 0.2), CriticalPoint("b", 3, 0.5),
             CriticalPoint("c", 4, 0.8)],
            {(3, 2): [[1]], (4, 3): [[1]]})
        with pytest.raises(InconsistentBoundaryError):
            build_chain_complex(bad)

    def test_exact_over_Q_not_Z(self):
        cc = ChainComplex({3: 2, 4: 2}, {4: [[1, 0], [0, 2]]})
        assert check_cylinder_exactness(cc)
        with pytest.raises(NoIntegralBasisError):
            choose_cancelling_bases(cc)

    def test_exactness_ranks_each_boundary_once(self, monkeypatch):
        ranked = []

        def counting_rank(m):
            ranked.append(m)
            return rational_rank(m)

        monkeypatch.setattr(morsealg, "rational_rank", counting_rank)
        cc = build_chain_complex(two_point())
        assert check_cylinder_exactness(cc)
        # d_3, d_4 and d_5, each once (d_4 enters the checks at degrees 3, 4)
        assert ranked == [cc.d(3), cc.d(4), cc.d(5)]

    def test_rational_rank(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 2]]) == 2
        assert rational_rank([]) == 0

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_bareiss_matches_fraction_elimination(self, r, c, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            c = r
        lim = rng.choice([1, 2, 30])           # small entries give zero pivots
        m = [[rng.randint(-lim, lim) for _ in range(c)] for _ in range(r)]
        if r >= 3 and rng.random() < 0.5:      # rank-deficient
            i, j, k = rng.sample(range(r), 3)
            m[i] = [x + y for x, y in zip(m[j], m[k])]
        if r and rng.random() < 0.3:
            m[rng.randrange(r)] = [0] * c
        if c and rng.random() < 0.3:
            zero = rng.randrange(c)
            for row in m:
                row[zero] = 0
        rank, det = _bareiss(m)
        assert (rank, det) == fraction_rank_det(m)
        assert type(det) is int
        assert rational_rank(m) == rank

    def test_bareiss_small_cases(self):
        assert _bareiss([]) == (0, 1)
        assert rational_rank([[]]) == 0
        assert _bareiss([[0, 1], [1, 0]]) == (2, -1)
        assert _bareiss([[0, 0], [0, 3]]) == (1, 0)


class TestNormalForm:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_snf_random(self, r, c, seed):
        rng = random.Random(seed)
        m = [[rng.randint(-50, 50) for _ in range(c)] for _ in range(r)]
        d, s, s_inv, t = smith_normal_form(m)
        assert mat_mul(mat_mul(s, m), t) == d
        assert mat_mul(s, s_inv) == eye(r)
        diag = [d[i][i] for i in range(min(r, c))]
        assert all(a >= 0 for a in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0

    # scrambled unimodular cylinders whose transforms swell to thousands of
    # bits (and take minutes) unless each pass re-picks the smallest pivot
    @pytest.mark.parametrize("rank, gen_seed", [
        (8, 8044), (12, 12009), (13, 13006), (14, 14001)])
    def test_snf_scrambled_unimodular_stays_small(self, rank, gen_seed):
        rng = random.Random(gen_seed)
        m = mat_mul(rand_unimod(rng, rank), rand_unimod(rng, rank))
        d, s, s_inv, t = smith_normal_form(m)
        assert mat_mul(mat_mul(s, m), t) == d
        assert mat_mul(s, s_inv) == eye(rank)
        assert d == eye(rank)
        for mat in (s, s_inv, t):
            assert all(-2 ** 63 <= x < 2 ** 63 for row in mat for x in row)

    def test_bases_identity(self):
        bases = choose_cancelling_bases(build_chain_complex(two_point()))
        assert bases[4]["b"] == [[1]]
        assert bases[4]["z"] == [[1]]

    def test_bases_rotation(self):
        cc = ChainComplex({3: 2, 4: 2}, {4: [[0, 1], [-1, 0]]})
        bases = choose_cancelling_bases(cc)
        d4 = cc.d(4)
        for bvec, zvec in zip(bases[4]["b"], bases[4]["z"]):
            img = [sum(d4[i][j] * bvec[j] for j in range(2))
                   for i in range(2)]
            assert img == zvec
        assert abs(bases[4]["det_s"]) == 1
        assert abs(bases[4]["det_t"]) == 1

    def test_factor_two_rejected(self):
        with pytest.raises(NoIntegralBasisError):
            choose_cancelling_bases(build_chain_complex(two_point(b=2)))


class TestPlans:
    def test_two_point_single_direct_pair(self):
        plan = cancellation_plan(two_point())
        assert len(plan.steps) == 1
        st0 = plan.steps[0]
        assert st0["kind"] == "direct"
        assert set(st0["pair"]) == {"w", "z"}
        assert st0["certificate"] in (1, -1)

    def test_empty_plan(self):
        plan = cancellation_plan(MorseDescription(7, []))
        assert plan.steps == []

    def test_inexact_rejected(self):
        with pytest.raises(NotACylinderError):
            cancellation_plan(two_point(b=0))

    def test_inadmissible_rejected(self):
        with pytest.raises(HypothesisViolationError):
            cancellation_plan(
                MorseDescription(7, [CriticalPoint("x", 6, 0.5)]))

    def test_excess_index1_single_auxiliary_insertion(self):
        desc = MorseDescription(
            6, [CriticalPoint("x", 1, 0.3), CriticalPoint("y", 2, 0.7)],
            {(2, 1): [[1]]}, {"simply_connected": True})
        plan = cancellation_plan(desc)
        aux = [s for s in plan.steps if s["kind"] == "auxiliary-inserted"]
        assert len(plan.auxiliary_points) == 2          # one (2,3) insertion
        assert len(aux) == 2 and len(plan.steps) == 2
        covered = plan.covered_ids()
        assert covered.count("x") == 1 and covered.count("y") == 1
        # plan length = (total points + 2 * insertions) / 2
        assert len(plan.steps) == (2 + 2) // 2

    def test_missing_simply_connected_flag(self):
        desc = MorseDescription(
            6, [CriticalPoint("x", 1, 0.3), CriticalPoint("y", 2, 0.7)],
            {(2, 1): [[1]]})
        with pytest.raises(HypothesisViolationError):
            cancellation_plan(desc)

    def test_every_point_once_multi_degree(self):
        desc = MorseDescription(
            7,
            [CriticalPoint("a", 2, 0.2), CriticalPoint("b1", 3, 0.5),
             CriticalPoint("b2", 3, 0.5), CriticalPoint("c", 4, 0.8)],
            {(3, 2): [[1, 0]], (4, 3): [[0], [1]]})
        plan = cancellation_plan(desc)
        assert sorted(plan.covered_ids()) == ["a", "b1", "b2", "c"]
        assert len(plan.steps) == 2

    def test_column_slides_propagate_one_degree_up(self):
        # pairing index 2 with index 3 slides the index-3 columns; the
        # pairing of index 3 with index 4 only finds units in the slid rows
        pts = ([CriticalPoint("a", 2, 0.2)]
               + [CriticalPoint(f"b{i}", 3, 0.5) for i in range(3)]
               + [CriticalPoint(f"c{i}", 4, 0.8) for i in range(2)])
        desc = MorseDescription(
            7, pts, {(3, 2): [[-2, 2, -11]],
                     (4, 3): [[-47, 8], [19, -3], [12, -2]]})
        plan = cancellation_plan(desc)
        assert [s["pair"] for s in plan.steps] == \
            [("b2", "a"), ("c0", "b0"), ("c1", "b1")]
        assert all(s["certificate"] in (1, -1) for s in plan.steps)

    def test_pivot_dividing_its_row_is_stuck(self):
        # exact over Q, but det = 2: the pivot 2 divides its row [2, 4], so
        # every maximal minor is even and no slide reaches a unit
        pts = [CriticalPoint(f"l{i}", 3, 0.3) for i in range(2)] + \
              [CriticalPoint(f"h{i}", 4, 0.7) for i in range(2)]
        desc = MorseDescription(7, pts, {(4, 3): [[2, 4], [3, 7]]})
        with pytest.raises(NoIntegralBasisError,
                           match="intersection number 2 is not a unit"):
            cancellation_plan(desc)

    @given(st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_scrambled_cylinders(self, m_pairs, seed):
        rng = random.Random(seed)
        M = mat_mul(rand_unimod(rng, m_pairs), rand_unimod(rng, m_pairs))
        pts = [CriticalPoint(f"l{i}", 3, 0.3) for i in range(m_pairs)] + \
              [CriticalPoint(f"h{i}", 4, 0.7) for i in range(m_pairs)]
        desc = MorseDescription(7, pts, {(4, 3): M})
        plan = cancellation_plan(desc)
        assert sorted(plan.covered_ids()) == sorted(p.id for p in pts)
        assert all(s["certificate"] in (1, -1) for s in plan.steps)
        assert len(plan.steps) == m_pairs

    def test_plan_serializes(self):
        plan = cancellation_plan(two_point())
        blob = json.dumps(plan.to_json())
        assert json.loads(blob)["steps"][0]["kind"] == "direct"
