import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ringchain import (
    ChainParams,
    FlatBandPole,
    PerturbationPattern,
    band_edges,
    char_residual,
    f_pm,
    f_single,
    lambda_small,
    solve_gap,
)
from ringchain import impurity
from ringchain.core import gap_surd, kernels, s_kernel, xi
from ringchain.impurity import all_states, results_json_dict
from tests.paper_forms import (
    bound_state_lattice,
    count_states_per_gap,
    identical_conditions,
    ring_l2_norm,
    vertex_condition_residual,
)
from tests.test_core import coupling_for_xi
from tests.test_kernels_vec import PARAMS, PATTERN_IDS, PATTERNS, float_on_grid


def gap_samples(layout, gap_index, n, margin=1e-4):
    lo, hi = layout.gaps[gap_index]
    if math.isinf(lo):
        lo = hi - 2.0
    return np.linspace(lo + margin, hi - margin, n)


def per_vertex_residual(E, pattern, params):
    """char_residual on a float as first written, with xi and one
    recursion step per vertex (test oracle)."""
    cs = kernels(E)
    x = xi(E, params.alpha, params, cs)
    sgn, root = gap_surd(E, x)
    lam = sgn / (abs(x) + root)
    P, Q, P_prev, Q_prev = 1.0, 0.0, 0.0, -1.0
    for g in pattern.gammas:
        two_xi = 2.0 * xi(E, params.alpha + g, params, cs)
        P, Q, P_prev, Q_prev = two_xi * P - P_prev, two_xi * Q - Q_prev, P, Q
    return Q_prev * lam * lam - (P_prev + Q) * lam + P


class TestCharResidual:
    @pytest.mark.parametrize("params", PARAMS, ids=str)
    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_float_bit_identical_to_per_vertex_recursion(self, params, pattern):
        got = float_on_grid(lambda E: char_residual(E, pattern, params))
        want = float_on_grid(lambda E: per_vertex_residual(E, pattern, params))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
    def test_xi_once_per_distinct_coupling(self, params07, pattern, monkeypatch):
        calls = []

        def counting_xi(*args, **kwargs):
            calls.append(args[1])
            return xi(*args, **kwargs)

        monkeypatch.setattr(impurity, "xi", counting_xi)
        want = len(set(pattern.gammas)) + 1   # the background alpha too
        for E in (-3.0, np.linspace(-3.0, 30.0, 7)):
            calls.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                char_residual(E, pattern, params07)
            assert len(calls) == want
            assert sorted(calls) == sorted([params07.alpha] + [params07.alpha + g for g in set(pattern.gammas)])

    def test_single_vertex_is_scaled_f_defect(self, params06, layout06):
        # m = 1: residual = (gamma - f(E)) * s_kernel/(2 cos A pi) identically
        gamma = -1.3
        pattern = PerturbationPattern.single(gamma)
        for gi in (0, 1, 2):
            for E in gap_samples(layout06, gi, 25):
                E = float(E)
                got = char_residual(E, pattern, params06)
                want = (gamma - f_single(E, params06)) * s_kernel(E) / (2 * params06.cos_flux)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_zero_pattern_no_roots(self, params06, layout06):
        pattern = PerturbationPattern((0.0, 0.0, 0.0))
        for gi, gap in enumerate(layout06.gaps[:5]):
            assert solve_gap(pattern, gap, params06, gap_index=gi) == []

    def test_flat_band_rejected(self, params06):
        with pytest.raises(FlatBandPole):
            char_residual(4.0, PerturbationPattern.single(1.0), params06)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            PerturbationPattern(())
        with pytest.raises(ValueError):
            PerturbationPattern((math.nan,))


class TestSolveGap:
    def test_single_negative_matches_f_bisection(self, params06, layout06):
        pattern = PerturbationPattern.single(-2.0)
        states = solve_gap(pattern, layout06.gaps[0], params06)
        assert len(states) == 1
        lo = layout06.gaps[0][1] - 2.0
        ref = brentq(lambda E: f_single(E, params06) + 2.0, lo, layout06.gaps[0][1] - 1e-9, xtol=1e-13)
        assert states[0].E == pytest.approx(ref, abs=1e-9)
        assert states[0].residual <= 1e-9

    def test_single_positive_moves_to_even_gap(self, params06, layout06):
        pattern = PerturbationPattern.single(2.0)
        assert solve_gap(pattern, layout06.gaps[0], params06) == []
        assert len(solve_gap(pattern, layout06.gaps[1], params06, gap_index=1)) == 1

    def test_identical_pair_below_first_band(self):
        p = ChainParams.from_cos_flux(-0.6, 1.0)
        layout = band_edges(p, 10.0)
        pattern = PerturbationPattern((-1.0, -1.0))
        states = solve_gap(pattern, layout.gaps[0], p)
        assert len(states) >= 1

    def test_gap_index_recorded(self, params06, layout06):
        states = all_states(PerturbationPattern.single(-2.0), layout06, params06)
        for s in states:
            lo, hi = layout06.gaps[s.gap_index]
            assert lo < s.E < hi

    def test_results_json_shape(self, params06, layout06):
        pattern = PerturbationPattern.single(-2.0)
        states = all_states(pattern, layout06, params06)
        doc = results_json_dict(pattern, layout06, states)
        assert doc["pattern"] == [-2.0]
        assert doc["regime"] == "magnetic"
        total = sum(len(g["states"]) for g in doc["gaps"])
        assert total == len(states)


class TestFPm:
    def test_roots_match_characteristic_equation(self):
        p = ChainParams.from_cos_flux(-0.6, 1.0)
        layout = band_edges(p, 12.0)
        g1, g2 = 3.0, 1.0
        pattern = PerturbationPattern((g1, g2))
        for gi, gap in enumerate(layout.gaps[:5]):
            char_roots = [s.E for s in solve_gap(pattern, gap, p, gap_index=gi)]
            fpm_roots = []
            lo, hi = gap
            if math.isinf(lo):
                lo = hi - 3.0
            grid = np.linspace(lo + 1e-7, hi - 1e-7, 1500)
            for branch in (0, 1):
                vals = []
                for E in grid:
                    try:
                        vals.append(f_pm(float(E), g1, g2, p)[branch] - (g1 + g2))
                    except Exception:
                        vals.append(math.nan)
                vals = np.array(vals)
                for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
                    fpm_roots.append(
                        brentq(
                            lambda E: f_pm(E, g1, g2, p)[branch] - (g1 + g2),
                            float(grid[i]),
                            float(grid[i + 1]),
                            xtol=1e-13,
                        )
                    )
            assert len(char_roots) == len(fpm_roots)
            for a, b in zip(sorted(char_roots), sorted(fpm_roots)):
                assert a == pytest.approx(b, abs=1e-9)

    def test_symmetric_under_swap(self, params06, layout06):
        for E in gap_samples(layout06, 0, 10):
            a = f_pm(float(E), 2.0, -0.5, params06)
            b = f_pm(float(E), -0.5, 2.0, params06)
            assert a == pytest.approx(b, rel=1e-14)

    def test_increasing_and_non_intersecting(self, params06, layout06):
        for gi in (0, 1, 2):
            grid = gap_samples(layout06, gi, 60)
            fm = np.array([f_pm(float(E), 3.0, 1.0, params06)[0] for E in grid])
            fp = np.array([f_pm(float(E), 3.0, 1.0, params06)[1] for E in grid])
            assert np.all(np.diff(fm) > 0)
            assert np.all(np.diff(fp) > 0)
            # separated by 2*base*sqrt(1+d^2) whose sign is fixed per gap piece
            assert np.all(fm > fp) or np.all(fm < fp)

    def test_permutation_symmetry_of_spectra(self, params06, layout06):
        a = all_states(PerturbationPattern((1.5, -0.7)), layout06, params06)
        b = all_states(PerturbationPattern((-0.7, 1.5)), layout06, params06)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert s.E == pytest.approx(t.E, abs=1e-10)

    def test_near_equal_limit_matches_identical_conditions(self, params06, layout06):
        # gamma_2 -> gamma_1: sqrt factor -> 1 and both formulations agree
        gamma = -1.1
        gap = layout06.gaps[0]
        states_eq = solve_gap(PerturbationPattern((gamma, gamma)), gap, params06)
        states_near = solve_gap(PerturbationPattern((gamma, gamma + 1e-8)), gap, params06)
        assert len(states_eq) == len(states_near)
        for s, t in zip(states_eq, states_near):
            assert s.E == pytest.approx(t.E, abs=1e-6)


class TestIdenticalConditions:
    def test_m2_reduction_identity(self, params06, layout06):
        # cond_cot - gamma == f_plus - 2 gamma and cond_tan - gamma == f_minus - 2 gamma
        for gamma in (-1.2, 0.8, 2.5):
            for E in gap_samples(layout06, 0, 12):
                E = float(E)
                cot_b, tan_b = identical_conditions(E, gamma, 2, params06)
                fm, fp = f_pm(E, gamma, gamma, params06)
                assert cot_b - gamma == pytest.approx(fp - 2 * gamma, rel=1e-9, abs=1e-9)
                assert tan_b - gamma == pytest.approx(fm - 2 * gamma, rel=1e-9, abs=1e-9)

    def test_m3_zero_xi1_gives_f(self, params06, layout06):
        # cos(phi) = xi_1 = 0 makes the cot branch collapse onto f
        E = float(gap_samples(layout06, 0, 3)[1])
        gamma = coupling_for_xi(E, 0.0, params06) - params06.alpha
        cot_b, _ = identical_conditions(E, gamma, 3, params06)
        assert cot_b == pytest.approx(f_single(E, params06), rel=1e-12)

    def test_roots_satisfy_conditions(self, params06, layout06):
        gamma, m = -1.5, 3
        states = solve_gap(PerturbationPattern.identical(gamma, m), layout06.gaps[0], params06)
        assert states
        for s in states:
            cot_b, tan_b = identical_conditions(s.E, gamma, m, params06)
            assert min(abs(cot_b - gamma), abs(tan_b - gamma)) <= 1e-8

    def test_interior_pole_count_bound(self, params06, layout06):
        # poles sit at zeros of sin((m-1)phi/2) (cot branch) and of
        # cos((m-1)phi/2) (tan branch) with cos(phi) = xi_1; the m - 2
        # bound counts both branches together
        from ringchain import xi

        gamma = -1.0
        for m in (3, 4, 5, 6):
            grid = gap_samples(layout06, 0, 1200)
            half_sin, half_cos = [], []
            for E in grid:
                x1 = xi(float(E), params06.alpha + gamma, params06)
                if abs(x1) > 1.0:
                    half_sin.append(math.nan)
                    half_cos.append(math.nan)
                    continue
                half = 0.5 * (m - 1) * math.acos(x1)
                half_sin.append(math.sin(half))
                half_cos.append(math.cos(half))
            half_sin, half_cos = np.array(half_sin), np.array(half_cos)
            n_poles = int((half_sin[:-1] * half_sin[1:] < 0).sum())
            n_poles += int((half_cos[:-1] * half_cos[1:] < 0).sum())
            assert n_poles <= m - 2

    def test_m1_rejected(self, params06):
        with pytest.raises(ValueError):
            identical_conditions(0.05, 1.0, 1, params06)


class TestTheoremCounts:
    @pytest.mark.parametrize("alpha", [1.0, -1.0, -3.0])
    def test_m1_magnetic(self, alpha):
        p = ChainParams.from_cos_flux(0.6, alpha)
        layout = band_edges(p, 12.0)
        neg = count_states_per_gap(PerturbationPattern.single(-2.0), layout, p)[:6]
        pos = count_states_per_gap(PerturbationPattern.single(+2.0), layout, p)[:6]
        assert neg == [1, 0, 1, 0, 1, 0]
        assert pos == [0, 1, 0, 1, 0, 1]

    def test_m1_non_magnetic(self):
        # A integer: the four sign cases of the single-impurity theorem
        for alpha, gamma, expect in [
            (1.0, 1.5, "none"),
            (1.0, -1.5, "every"),
            (-1.0, 1.5, "all_but_first"),
            (-1.0, -1.5, "only_first"),
        ]:
            p = ChainParams(0.0, alpha)
            layout = band_edges(p, 12.0)
            counts = count_states_per_gap(PerturbationPattern.single(gamma), layout, p)
            if expect == "none":
                assert all(c == 0 for c in counts)
            elif expect == "every":
                assert all(c == 1 for c in counts)
            elif expect == "all_but_first":
                assert counts[0] == 0 and all(c == 1 for c in counts[1:])
            else:
                assert counts[0] == 1 and all(c == 0 for c in counts[1:])

    def test_m2_magnetic_odd_gaps(self):
        p = ChainParams.from_cos_flux(0.6, 1.0)
        layout = band_edges(p, 12.0)
        counts = count_states_per_gap(PerturbationPattern((-1.0, -0.8)), layout, p)[:6]
        # negative sum: one or two states in every 1-based-odd gap (indices 0, 2, 4)
        assert all(1 <= counts[i] <= 2 for i in (0, 2, 4))

    def test_count_bound_random_patterns(self, params06, layout06, rng):
        for _ in range(200):
            m = int(rng.integers(1, 7))
            pattern = PerturbationPattern(tuple(rng.uniform(-2.5, 2.5, size=m)))
            for gi, gap in enumerate(layout06.gaps[:5]):
                found = solve_gap(pattern, gap, params06, gap_index=gi, grid_points=250)
                assert len(found) <= m


class TestEigenfunctionValidity:
    def test_reported_roots_reconstruct(self, params06, layout06):
        for pattern in (
            PerturbationPattern.single(-2.0),
            PerturbationPattern((3.0, 1.0)),
            PerturbationPattern.identical(-1.5, 3),
        ):
            for s in all_states(pattern, layout06, params06)[:3]:
                lat = bound_state_lattice(s.E, pattern.gammas, params06, margin=8)
                assert vertex_condition_residual(s.E, lat, pattern.gammas, params06) <= 1e-6
                lam2 = lambda_small(s.E, params06.alpha, params06) ** 2
                n0 = ring_l2_norm(s.E, lat.value(pattern.m + 2), lat.value(pattern.m + 3), params06) ** 2
                n1 = ring_l2_norm(s.E, lat.value(pattern.m + 3), lat.value(pattern.m + 4), params06) ** 2
                assert n1 / n0 == pytest.approx(lam2, rel=0.1)
