import math

import numpy as np
import pytest

from ringchain import (
    ChainParams,
    DistantPair,
    FitFailed,
    PerturbationPattern,
    WeakCouplingProblem,
    band_edges,
    distant_residual,
    distant_solve,
    solve_gap,
    splitting_rate,
    weak_exact,
    weak_gap_distance_scaling,
    weak_predictor,
)
from ringchain.errors import InvalidParameter

EPS_LADDER = [1e-2, 5e-3, 2.5e-3, 1.25e-3]


@pytest.fixture(scope="module")
def gap0(params07_module):
    return params07_module


@pytest.fixture(scope="module")
def params07_module():
    return ChainParams.from_cos_flux(0.7, 1.0)


@pytest.fixture(scope="module")
def layout07_module(params07_module):
    return band_edges(params07_module, 25.0)


class TestWeakCoupling:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            WeakCouplingProblem((1.0,), 0.0)
        with pytest.raises(ValueError):
            WeakCouplingProblem((1.0,), 1.0)

    def test_existence_iff_negative_sum(self, params07_module, layout07_module, rng):
        gap = layout07_module.gaps[0]
        for _ in range(50):
            m = int(rng.integers(1, 5))
            gammas = rng.uniform(-2.0, 2.0, size=m)
            while abs(gammas.sum()) < 0.2:
                gammas = rng.uniform(-2.0, 2.0, size=m)
            problem = WeakCouplingProblem(tuple(gammas), 1e-3)
            states = weak_exact(gap, problem, params07_module)
            assert (len(states) > 0) == (gammas.sum() < 0)

    def test_positive_sum_has_no_gap0_predictor(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        assert weak_predictor(gap, WeakCouplingProblem((0.5, 0.6), 1e-3), params07_module) is None

    def test_zero_sum_predictor_degenerates(self, params07_module, layout07_module):
        problem = WeakCouplingProblem((1.0, -1.0), 1e-3)
        for gap in layout07_module.gaps[:4]:
            assert weak_predictor(gap, problem, params07_module) is None

    def test_predictor_matches_exact_for_single_vertex(self, params07_module, layout07_module):
        # m = 1: the characteristic equation is exactly f(E) = eps*gamma
        gap = layout07_module.gaps[0]
        problem = WeakCouplingProblem((-1.0,), 1e-3)
        pred = weak_predictor(gap, problem, params07_module)
        exact = weak_exact(gap, problem, params07_module)
        assert len(exact) == 1
        assert pred == pytest.approx(exact[0].E, abs=1e-9)

    def test_edge_distance_scaling_slope_two(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        problem = WeakCouplingProblem((-1.0,), 1e-2)
        fit = weak_gap_distance_scaling(gap, problem, params07_module, EPS_LADDER)
        assert fit.slope == pytest.approx(2.0, abs=0.1)
        assert fit.r2 >= 0.99

    def test_slope_independent_of_pattern_split(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        fit1 = weak_gap_distance_scaling(
            gap, WeakCouplingProblem((-1.0,), 1e-2), params07_module, EPS_LADDER
        )
        fit3 = weak_gap_distance_scaling(
            gap,
            WeakCouplingProblem((-1.0 / 3.0,) * 3, 1e-2),
            params07_module,
            EPS_LADDER,
        )
        assert fit1.slope == pytest.approx(fit3.slope, abs=0.1)

    def test_state_enters_gap_from_edge(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        edge = gap[1]
        last = None
        for eps in EPS_LADDER:
            E = weak_exact(gap, WeakCouplingProblem((-1.0,), eps), params07_module)[0].E
            assert E < edge  # inside the gap
            dist = edge - E
            if last is not None:
                assert dist < last  # approaches the edge monotonically
            last = dist

    def test_predictor_error_bounded_by_eps_squared(self, params07_module, layout07_module):
        # the predictor drops an O(eps^2) term in the characteristic
        # equation; through the square-root edge behavior of f the energy
        # error is in fact O(eps^3), so C*eps^2 bounds it with margin
        gap = layout07_module.gaps[0]
        gammas = (-0.7, -0.5)
        errs = []
        for eps in [2e-2, 1e-2, 5e-3, 2.5e-3]:
            problem = WeakCouplingProblem(gammas, eps)
            pred = weak_predictor(gap, problem, params07_module)
            exact = weak_exact(gap, problem, params07_module)[0].E
            errs.append((eps, abs(pred - exact)))
        C = 2.0 * errs[0][1] / errs[0][0] ** 2
        for eps, err in errs:
            assert err <= C * eps * eps
        slope = np.polyfit([math.log(e) for e, _ in errs], [math.log(x) for _, x in errs], 1)[0]
        assert 1.9 <= slope <= 3.5

    def test_exact_converges_to_band_edge(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        edge = gap[1]
        E = weak_exact(gap, WeakCouplingProblem((-0.5,), 2e-4), params07_module)[0].E
        assert abs(E - edge) < 1e-6

    def test_positive_sum_lands_in_next_gap_piece(self, params07_module, layout07_module):
        # positive total strength: no gap-0 state, one in the piece just
        # above the first band, where the coupling function is positive
        gap1 = layout07_module.gaps[1]
        problem = WeakCouplingProblem((0.6, 0.5), 1e-3)
        pred = weak_predictor(gap1, problem, params07_module)
        exact = weak_exact(gap1, problem, params07_module)
        assert pred is not None and len(exact) == 1
        assert pred == pytest.approx(exact[0].E, abs=1e-6)
        # the state hugs the first band's upper edge (where f vanishes)
        assert abs(pred - gap1[0]) < 0.05 * (gap1[1] - gap1[0])

    def test_edge_distance_scaling_in_finite_gap(self, params07_module, layout07_module):
        gap1 = layout07_module.gaps[1]
        fit = weak_gap_distance_scaling(
            gap1, WeakCouplingProblem((1.0,), 1e-2), params07_module, EPS_LADDER
        )
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_fit_failed_when_no_state(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        with pytest.raises(FitFailed):
            weak_gap_distance_scaling(
                gap, WeakCouplingProblem((0.8,), 1e-2), params07_module, EPS_LADDER
            )

    @pytest.mark.parametrize("eps_list", [[1e-3] * 4, EPS_LADDER[:3] + EPS_LADDER[:2]])
    def test_fit_failed_with_fewer_than_four_distinct_eps(self, params07_module, layout07_module, eps_list):
        # four equal eps used to fit a slope of 1.2128 with r2 = 1.0
        with pytest.raises(FitFailed, match="distinct"):
            weak_gap_distance_scaling(
                layout07_module.gaps[0], WeakCouplingProblem((-1.0,), 1e-2), params07_module, eps_list
            )


class TestDistantPairs:
    def test_pair_validation(self, params07_module, layout07_module):
        with pytest.raises(ValueError):
            DistantPair(1.0, 0.0, 3)
        with pytest.raises(ValueError):
            DistantPair(1.0, 1.0, -1)
        # no chain has a fractional separation; 2.5 used to solve, nan to
        # return no states, and 2.0 to fail only in pattern()
        for bad in (2.5, math.nan, 2.0):
            with pytest.raises(ValueError, match="integer"):
                DistantPair(-1.5, -1.5, bad)
        assert DistantPair(-1.5, -1.5, np.int64(3)).pattern().gammas == (-1.5, 0.0, 0.0, 0.0, -1.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                DistantPair(bad, -1.0, 3)
            with pytest.raises(ValueError, match="finite"):
                DistantPair(-1.0, bad, 3)
        # splitting_rate's separations are DistantPair's: 4.4 used to fit the
        # n = 4 splitting at x = 4.4 (slope -1.2222 against -1.1520)
        gap = layout07_module.gaps[0]
        with pytest.raises(InvalidParameter, match="integer"):
            splitting_rate(DistantPair(-1.5, -1.5, 4), gap, params07_module, [4.4, 6, 8, 10])
        fit, _ = splitting_rate(DistantPair(-1.5, -1.5, 4), gap, params07_module, [4, 6, 8, 10])
        assert splitting_rate(DistantPair(-1.5, -1.5, 4), gap, params07_module,
                              [np.int64(n) for n in (4, 6, 8, 10)])[0] == fit

    def test_memory_does_not_grow_with_separation(self, params07_module, layout07_module):
        # the residual is closed-form in n; a scan pattern of n + 2 entries
        # peaked at 16.7 MB here
        import tracemalloc

        gap = layout07_module.gaps[0]
        distant_solve(DistantPair(-1.5, -1.5, 4), gap, params07_module)   # warm caches
        tracemalloc.start()
        try:
            roots = distant_solve(DistantPair(-1.5, -1.5, 10**6), gap, params07_module)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(roots) == 2 and peak < 1_000_000   # the pair, split below double precision

    def test_pattern_expansion(self):
        pair = DistantPair(-1.5, 0.7, 3)
        assert pair.pattern().gammas == (-1.5, 0.0, 0.0, 0.0, 0.7)

    def test_large_separation_approaches_single_impurities(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        pair = DistantPair(-1.5, -0.9, 40)
        roots = [s.E for s in distant_solve(pair, gap, params07_module)]
        singles = []
        for gamma in (-1.5, -0.9):
            singles.extend(
                s.E for s in solve_gap(PerturbationPattern.single(gamma), gap, params07_module)
            )
        assert len(roots) == 2
        for r, s in zip(sorted(roots), sorted(singles)):
            assert r == pytest.approx(s, abs=1e-8)

    def test_equivalence_with_pattern_solver(self, params07_module, layout07_module, rng):
        gap = layout07_module.gaps[0]
        checked = 0
        while checked < 50:
            n = int(rng.integers(0, 13))
            g1 = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
            g2 = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
            pair = DistantPair(g1, g2, n)
            direct = [s.E for s in distant_solve(pair, gap, params07_module)]
            via_pattern = [s.E for s in solve_gap(pair.pattern(), gap, params07_module)]
            assert len(direct) == len(via_pattern)
            for a, b in zip(direct, via_pattern):
                assert a == pytest.approx(b, abs=1e-9)
            checked += 1

    def test_opposite_signs_single_root_per_gap(self, params07_module, layout07_module):
        for gi in (0, 1, 2):
            pair = DistantPair(-1.2, 0.9, 10)
            roots = distant_solve(pair, layout07_module.gaps[gi], params07_module, gap_index=gi)
            assert len(roots) == 1

    def test_same_sign_two_roots_or_none(self, params07_module, layout07_module):
        # f < 0 on gap 0: negative pairs give two roots, positive none
        gap = layout07_module.gaps[0]
        assert len(distant_solve(DistantPair(-1.5, -1.1, 8), gap, params07_module)) == 2
        assert len(distant_solve(DistantPair(1.5, 1.1, 8), gap, params07_module)) == 0

    def test_residual_n0_matches_adjacent_solver(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        pair = DistantPair(-1.5, -1.1, 0)
        direct = [s.E for s in distant_solve(pair, gap, params07_module)]
        adjacent = [s.E for s in solve_gap(PerturbationPattern((-1.5, -1.1)), gap, params07_module)]
        assert len(direct) == len(adjacent)
        for a, b in zip(direct, adjacent):
            assert a == pytest.approx(b, abs=1e-9)

    def test_same_sign_parity_structure(self, params07_module, layout07_module):
        # far apart, equal-sign pairs populate only the gap pieces whose
        # coupling function carries their sign: negative pairs the odd
        # pieces in 1-based counting (even indices here), positive pairs
        # the 1-based-even pieces (odd indices)
        for g, allowed in ((-1.3, {0, 2}), (1.3, {1, 3})):
            pair = DistantPair(g, g, 10)
            for gi in range(4):
                roots = distant_solve(pair, layout07_module.gaps[gi], params07_module, gap_index=gi)
                if gi in allowed:
                    assert len(roots) == 2
                else:
                    assert roots == []

    def test_residual_sign_structure(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        pair = DistantPair(-1.5, -1.1, 6)
        roots = [s.E for s in distant_solve(pair, gap, params07_module)]
        E_mid = 0.5 * (roots[0] + roots[1])
        assert distant_residual(roots[0] - 1e-4, pair, params07_module) * distant_residual(
            E_mid, pair, params07_module
        ) < 0


class TestSplitting:
    def test_rate_matches_log_lambda(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        fit, ref = splitting_rate(DistantPair(-1.5, -1.5, 4), gap, params07_module, [4, 6, 8, 10])
        assert fit.slope == pytest.approx(ref, rel=0.10)
        assert fit.r2 >= 0.99

    def test_splitting_monotone_decreasing(self, params07_module, layout07_module):
        gap = layout07_module.gaps[0]
        last = None
        for n in (4, 6, 8, 10):
            roots = [s.E for s in distant_solve(DistantPair(-1.5, -1.5, n), gap, params07_module)]
            assert len(roots) == 2
            split = abs(roots[1] - roots[0])
            if last is not None:
                assert split < last
            last = split

    def test_requires_equal_strengths(self, params07_module, layout07_module):
        with pytest.raises(ValueError):
            splitting_rate(
                DistantPair(-1.5, -1.0, 4), layout07_module.gaps[0], params07_module, [4, 6, 8, 10]
            )

    def test_fit_failed_with_fewer_than_four_distinct_separations(self, params07_module, layout07_module):
        with pytest.raises(FitFailed, match="distinct"):
            splitting_rate(DistantPair(-1.0, -1.0, 4), layout07_module.gaps[0], params07_module, [4, 4, 4, 4])

    def test_fit_report_shape(self, params07_module, layout07_module):
        fit, _ = splitting_rate(
            DistantPair(-1.5, -1.5, 4), layout07_module.gaps[0], params07_module, [4, 6, 8, 10]
        )
        doc = fit.to_json_dict()
        assert set(doc) == {"slope", "intercept", "r2", "points"}
        assert len(doc["points"]) == 4
