"""Combinatorial handle algebra: normal forms, exactness, plans."""

import hashlib
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
                            choose_cancelling_bases, rational_rank,
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


def unimod_pair(rng, n):
    """A random unimodular matrix and its inverse (2n row operations)."""
    u, v = eye(n), eye(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for r in v:
                r[j] -= c * r[i]
    return u, v


def multi_degree_complex(rng):
    """An n = 7 description on degrees 0..5 with a scrambled boundary.

    Built from 1-7 elementary (k+1 -> k) pairs with factor +-1 or 2, plus
    a free generator with probability 0.3; each boundary is conjugated by
    random unimodular matrices, so d o d = 0 still holds.  Returns the
    description, whether it has a free generator, and whether a pair has
    factor 2.
    """
    ranks = [0] * 6
    pairs = []
    for _ in range(rng.randint(1, 7)):
        k = rng.randrange(5)
        pairs.append((k, ranks[k], ranks[k + 1], rng.choice([1, 1, -1, 2])))
        ranks[k] += 1
        ranks[k + 1] += 1
    free = rng.random() < 0.3
    if free:
        ranks[rng.randrange(6)] += 1
    conj = [unimod_pair(rng, r) for r in ranks]
    boundary = {}
    for k in range(5):
        if ranks[k] and ranks[k + 1]:
            d = [[0] * ranks[k + 1] for _ in range(ranks[k])]
            for kk, i, j, f in pairs:
                if kk == k:
                    d[i][j] = f
            boundary[(k + 1, k)] = mat_mul(mat_mul(conj[k][0], d),
                                           conj[k + 1][1])
    pts = [CriticalPoint(f"p{k}_{i}", k, (k + 1) / 7)
           for k in range(6) for i in range(ranks[k])]
    desc = MorseDescription(7, pts, boundary, {"simply_connected": True})
    return desc, free, any(f == 2 for *_, f in pairs)


def small_complex(rng):
    """An n = 7 description on two or three adjacent degrees from 2 with
    0-3 points each and entries in [-lim, lim], lim in 1..3; each boundary
    is declared with probability 0.9 (else it reads as zero)."""
    k0, degrees = rng.randint(2, 3), rng.choice([2, 3])
    counts = [rng.randint(0, 3) for _ in range(degrees)]
    lim = rng.choice([1, 1, 2, 3])
    pts = [CriticalPoint(f"p{k0 + i}_{j}", k0 + i, 0.5)
           for i in range(degrees) for j in range(counts[i])]
    boundary = {}
    for i in range(degrees - 1):
        if counts[i] and counts[i + 1] and rng.random() < 0.9:
            boundary[(k0 + i + 1, k0 + i)] = [
                [rng.randint(-lim, lim) for _ in range(counts[i + 1])]
                for _ in range(counts[i])]
    return MorseDescription(7, pts, boundary)


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


# scrambled unimodular cylinders whose transforms swell to thousands of
# bits (and take minutes) unless each pass re-picks the smallest pivot
SCRAMBLED = [(8, 8044), (12, 12009), (13, 13006), (14, 14001)]


def scrambled(rank, gen_seed):
    rng = random.Random(gen_seed)
    return mat_mul(rand_unimod(rng, rank), rand_unimod(rng, rank))


def snf_digest(snf):
    """sha256 of (d, s_inv, t) over SCRAMBLED and 200 seeded random
    matrices up to 8 x 8, so that any change of pivot rule shows."""
    rng = random.Random(4520)
    mats = [scrambled(*case) for case in SCRAMBLED]
    for _ in range(200):
        r, c, lim = rng.randint(1, 8), rng.randint(1, 8), rng.choice([1, 3, 50])
        mats.append([[rng.randint(-lim, lim) for _ in range(c)]
                     for _ in range(r)])
    h = hashlib.sha256()
    for m in mats:
        h.update(repr(snf(m)[:3]).encode())
    return h.hexdigest()


NOT_EXACT = "^chain complex is not exact: description is not a cylinder$"

SNF_DIGEST = \
    "c9001bdd02ffded2cfd2b73569dc6e82b806f20c6078ccf93c9a40d1e979ba3c"


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

    def test_flag_must_be_a_bool(self):
        # a truthy string must not declare simply_connected
        with pytest.raises(InvalidSpecError,
                           match="flag 'simply_connected' must be a bool"):
            MorseDescription(7, [], flags={"simply_connected": "false"})
        assert MorseDescription(7, [], flags={"simply_connected": False})

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

    def test_direct_complex_normalises_its_matrices(self):
        cc = ChainComplex({3: 1, 4: 1}, {4: [(1.0,)]})
        assert cc.boundary == {4: [[1]]} and type(cc.boundary[4][0][0]) is int
        with pytest.raises(InvalidSpecError, match="non-integer entry 0.5"):
            ChainComplex({3: 1, 4: 1}, {4: [[0.5]]})

    @pytest.mark.parametrize("build", [
        lambda entry: two_point(b=entry).boundary[(4, 3)],
        lambda entry: ChainComplex({3: 1, 4: 1}, {4: [[entry]]}).boundary[4],
        lambda entry: MorseDescription.from_json(json.dumps(
            two_point().to_json()).replace("[[1]]", json.dumps([[entry]])))
        .boundary[(4, 3)]], ids=["description", "complex", "json"])
    def test_boundary_entry_is_an_integer_not_a_bool(self, build):
        # the integer rule of n and an index: a bool is no entry, JSON's
        # integral 1.0 is
        with pytest.raises(InvalidSpecError,
                           match=r"non-integer entry True at \[0\]\[0\]"):
            build(True)
        for entry in (1.0, 1):
            out = build(entry)
            assert out == [[1]] and type(out[0][0]) is int

    def test_described_complex_is_not_normalised_again(self, monkeypatch):
        # the description normalised its matrices; d o d is still checked
        desc = two_point()
        monkeypatch.setattr(morsealg, "_as_int_matrix", None)
        assert build_chain_complex(desc).boundary == {4: [[1]]}

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
        d, s_inv, t, det_s, det_t = smith_normal_form(m)
        assert mat_mul(m, t) == mat_mul(s_inv, d)
        assert (det_s, det_t) == (_bareiss(s_inv)[1], _bareiss(t)[1])
        assert abs(det_s) == abs(det_t) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        assert all(a >= 0 for a in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert d[i][j] == 0

    @pytest.mark.parametrize("rank, gen_seed", SCRAMBLED)
    def test_snf_scrambled_unimodular_stays_small(self, rank, gen_seed):
        m = scrambled(rank, gen_seed)
        d, s_inv, t, det_s, det_t = smith_normal_form(m)
        assert mat_mul(m, t) == mat_mul(s_inv, d)
        assert (det_s, det_t) == (_bareiss(s_inv)[1], _bareiss(t)[1])
        assert abs(det_s) == abs(det_t) == 1
        assert d == eye(rank)
        for mat in (s_inv, t):
            assert all(-2 ** 63 <= x < 2 ** 63 for row in mat for x in row)

    def test_snf_stops_at_an_all_zero_block(self):
        # rank 1: after the first pivot the remaining block is zero
        m = [[1, 2], [2, 4]]
        d, s_inv, t, det_s, det_t = smith_normal_form(m)
        assert d == [[1, 0], [0, 0]]
        assert mat_mul(m, t) == mat_mul(s_inv, d)
        assert (det_s, det_t) == (_bareiss(s_inv)[1], _bareiss(t)[1])
        assert abs(det_s) == abs(det_t) == 1

    def test_snf_pivots_pinned(self):
        # (d, s_inv, t) of the pivot rule that re-picks the least entry on
        # every pass, ties to the lowest index; another rule changes them
        assert snf_digest(smith_normal_form) == SNF_DIGEST

    def test_bases_skip_an_empty_boundary(self):
        assert choose_cancelling_bases(ChainComplex({4: 2}, {4: []})) == {}

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

    def test_auxiliary_ids_never_repeat_a_described_id(self):
        desc = MorseDescription(
            6, [CriticalPoint("aux2_0", 1, 0.3), CriticalPoint("x", 2, 0.7)],
            {(2, 1): [[1]]}, {"simply_connected": True})
        plan = cancellation_plan(desc)
        assert all(a != b for a, b in (s["pair"] for s in plan.steps))
        # every described id is covered exactly once
        ids = [pt.id for pt in desc.points]
        assert sorted(c for c in plan.covered_ids() if c in ids) == \
            sorted(ids)
        assert [p["id"] for p in plan.auxiliary_points] == \
            ["aux2_1", "aux3_1"]

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

    def test_inexact_and_stuck_reports_inexact(self):
        # the pivot 2 divides its row [2, 0], and rank d_4 = 1 < 2 leaves
        # the complex inexact: inexactness decides the error
        desc = MorseDescription(
            7, _points(("l0", 3), ("l1", 3), ("h0", 4), ("h1", 4)),
            {(4, 3): [[2, 0], [0, 0]]})
        with pytest.raises(NotACylinderError, match=NOT_EXACT):
            cancellation_plan(desc)

    def test_plan_ranks_only_for_a_stuck_pivot(self, monkeypatch):
        # a pairing of every point, or rows left with no nonzero entry,
        # decides exactness without a rank
        ranked = []

        def counting_rank(m):
            ranked.append(m)
            return rational_rank(m)

        monkeypatch.setattr(morsealg, "rational_rank", counting_rank)
        cancellation_plan(two_point())
        with pytest.raises(NotACylinderError, match=NOT_EXACT):
            cancellation_plan(two_point(b=0))
        assert ranked == []
        with pytest.raises(NoIntegralBasisError):
            cancellation_plan(two_point(b=2))
        assert ranked

    def test_errors_follow_the_rank_first_rule(self):
        # the rule of ranking every boundary before pairing: d o d != 0 is
        # inconsistent, an inexact complex is not a cylinder, and an exact
        # one plans exactly when every boundary has unit invariant factors
        rng = random.Random(45)
        seen = dict.fromkeys(["inconsistent", "inexact", "non-unit", "plan"],
                             0)
        for _ in range(2000):
            desc = small_complex(rng)
            try:
                cc = build_chain_complex(desc)
            except InconsistentBoundaryError:
                with pytest.raises(InconsistentBoundaryError):
                    cancellation_plan(desc)
                seen["inconsistent"] += 1
                continue
            if not check_cylinder_exactness(cc):
                with pytest.raises(NotACylinderError, match=NOT_EXACT):
                    cancellation_plan(desc)
                seen["inexact"] += 1
                continue
            try:
                choose_cancelling_bases(cc)
            except NoIntegralBasisError:
                with pytest.raises(NoIntegralBasisError,
                                   match="is not a unit"):
                    cancellation_plan(desc)
                seen["non-unit"] += 1
                continue
            plan = cancellation_plan(desc)
            assert sorted(plan.covered_ids()) == \
                sorted(pt.id for pt in desc.points)
            seen["plan"] += 1
        assert min(seen.values()) >= 50, seen

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

    def test_scrambled_multi_degree_complexes(self, monkeypatch):
        # the auxiliary path and the slides carried one degree up both run
        carried = []
        pairing = morsealg._unit_pivot_pairing

        def recording(mat, row_ids, col_ids):
            pairs, col_ops = pairing(mat, row_ids, col_ids)
            # slides of the index-(k+1) columns, with index-(k+2) points
            carried.append(bool(col_ops)
                           and int(col_ids[0][1]) + 1 in desc.counts())
            return pairs, col_ops

        monkeypatch.setattr(morsealg, "_unit_pivot_pairing", recording)
        rng = random.Random(7)
        outcomes = {"plan": 0, "free": 0, "factor 2": 0, "auxiliary": 0}
        for _ in range(300):
            desc, free, factor2 = multi_degree_complex(rng)
            if free:
                outcomes["free"] += 1
                with pytest.raises(NotACylinderError):
                    cancellation_plan(desc)
                continue
            if factor2:
                outcomes["factor 2"] += 1
                with pytest.raises(NoIntegralBasisError):
                    cancellation_plan(desc)
                continue
            outcomes["plan"] += 1
            plan = cancellation_plan(desc)
            covered = plan.covered_ids()
            real = [pid for pid in covered if pid.startswith("p")]
            assert sorted(real) == sorted(pt.id for pt in desc.points)
            assert all(s["certificate"] in (1, -1) for s in plan.steps)
            m = len(plan.auxiliary_points) // 2
            outcomes["auxiliary"] += m > 0
            assert plan.auxiliary_points == [
                {"id": f"aux{j}_{i}", "index": j}
                for i in range(m) for j in (2, 3)]
            assert [pid for pid in covered if pid.startswith("aux")] == \
                [p["id"] for p in plan.auxiliary_points]
        assert min(outcomes.values()) >= 20, outcomes
        assert sum(carried) >= 20

    def test_plan_serializes(self):
        plan = cancellation_plan(two_point())
        blob = json.dumps(plan.to_json())
        assert json.loads(blob)["steps"][0]["kind"] == "direct"


def _points(*specs):
    return [CriticalPoint(pid, index, 0.5) for pid, index in specs]


@pytest.mark.parametrize("call, error, message", [
    (lambda: two_point(b=1.5), InvalidSpecError, "non-integer entry 1.5"),
    (lambda: MorseDescription.from_json("not json"), InvalidSpecError,
     "not a JSON document"),
    (lambda: MorseDescription(0, []), InvalidSpecError,
     "n must be a positive dimension"),
    # the integer rule of every dimension: no S^7.5
    (lambda: MorseDescription(7.5, []), InvalidSpecError,
     "n must be an integer, got 7.5"),
    (lambda: MorseDescription(7, _points(("w", 3), ("w", 4))),
     InvalidSpecError, "duplicate point ids"),
    (lambda: MorseDescription(7, _points(("w", 9))), InvalidSpecError,
     r"outside \[0, n\+1\]"),
    (lambda: MorseDescription(7, _points(("w", 3), ("z", 4)),
                              {(4, 2): [[1]]}),
     InvalidSpecError, "indices must be adjacent"),
    # a key that is not a pair of indices, as from_json types "4to3"
    (lambda: MorseDescription(7, [], {(3,): []}), InvalidSpecError,
     r"malformed boundary key \(3,\)"),
    (lambda: MorseDescription(7, [], {3: []}), InvalidSpecError,
     "malformed boundary key 3"),
    (lambda: MorseDescription(7, [], {("4", "3"): []}), InvalidSpecError,
     "malformed boundary key"),
    # a point states its whole contract: the chain complex would drop an
    # index that is not an integer, and a level must be a finite number
    (lambda: CriticalPoint("w", 2.5, 0.5), InvalidSpecError,
     "index must be an integer, got 2.5"),
    (lambda: CriticalPoint("w", True, 0.5), InvalidSpecError,
     "index must be an integer, got True"),
    (lambda: CriticalPoint("w", -1, 0.5), InvalidSpecError,
     "index must be >= 0"),
    (lambda: CriticalPoint(3, 3, 0.5), InvalidSpecError,
     "id must be a string, got 3"),
    (lambda: CriticalPoint("w", 3, "0.5"), InvalidSpecError,
     r"level must lie strictly in \(0, 1\)"),
    (lambda: cancellation_plan(MorseDescription(4, _points(("w", 2),
                                                           ("z", 2)))),
     HypothesisViolationError, r"requires declared dimension n >= 5"),
])
def test_argument_checks_raise_typed(call, error, message):
    with pytest.raises(error, match=message):
        call()
