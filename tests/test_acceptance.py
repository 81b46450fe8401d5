"""Acceptance suite: one test per top-level correctness criterion.

Each test prints a single PASS line with its headline numbers so a plain
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.
Budgets (wall clock) are asserted loosely to catch pathological slowdowns
without flaking on machine noise.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from ringchain import (
    ChainParams,
    DistantPair,
    PerturbationPattern,
    WeakCouplingProblem,
    band_edges,
    distant_solve,
    first_band,
    lambda_small,
    solve_gap,
    splitting_rate,
    weak_exact,
    weak_gap_distance_scaling,
    weak_predictor,
)
from ringchain import crosscheck
from ringchain.impurity import all_states
from tests.paper_forms import (
    bound_state_lattice,
    count_states_per_gap,
    identical_closed_form,
    in_spectrum,
    local_matrix,
    product_matrix,
    ring_l2_norm,
    vertex_condition_residual,
)
from tests.test_transfer import det, entries, naive_product


def test_criterion_1_band_structure():
    t0 = time.time()
    p = ChainParams.from_cos_flux(0.7, 1.0)
    layout = band_edges(p, 25.0)
    for lo, hi in layout.bands[1:]:
        n = math.floor(math.sqrt(lo))
        assert n * n < lo < hi < (n + 1) * (n + 1)
    lo_alpha = -4.0 * (0.7 + 1.0) / math.pi
    hi_alpha = 4.0 * (0.7 - 1.0) / math.pi
    for alpha, expect in [
        (lo_alpha + 1e-6, True),
        (lo_alpha - 1e-6, False),
        (hi_alpha - 1e-6, True),
        (hi_alpha + 1e-6, False),
    ]:
        assert in_spectrum(0.0, ChainParams.from_cos_flux(0.7, alpha)) == expect
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(
        f"\ncriterion 1 PASS: {len(layout.bands)} bands confined to (n^2,(n+1)^2); "
        f"E=0 window [{lo_alpha:.6f}, {hi_alpha:.6f}] sharp to 1e-6 ({elapsed:.2f}s)"
    )


def test_criterion_2_first_band_sweep():
    t0 = time.time()
    alphas = -4.0 + 0.01 * np.arange(601)
    edges = [first_band(ChainParams.from_cos_flux(0.7, float(a))) for a in alphas]
    lows = np.array([e[0] for e in edges])
    highs = np.array([e[1] for e in edges])
    assert np.all(np.diff(lows) > 0)
    assert np.all(np.diff(highs) > 0)

    def upper_edge(alpha):
        return first_band(ChainParams.from_cos_flux(0.7, float(alpha)))[1]

    alpha_star = brentq(upper_edge, -2.5, -1.8, xtol=1e-9)
    expected = -4.0 * 1.7 / math.pi
    assert abs(alpha_star - expected) <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(
        f"criterion 2 PASS: 601-point sweep monotone; upper edge crosses 0 at "
        f"alpha = {alpha_star:.8f} vs -4*1.7/pi = {expected:.8f} ({elapsed:.2f}s)"
    )


def test_criterion_3_transfer_algebra():
    t0 = time.time()
    rng = np.random.default_rng(314159)
    worst_det, worst_agree = 0.0, 0.0
    for _ in range(1000):
        c = float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.95))
        p = ChainParams.from_cos_flux(c, float(rng.uniform(-3, 3)))
        E = float(rng.uniform(-6, 20))
        if abs(math.sqrt(abs(E)) - round(math.sqrt(abs(E)))) < 1e-6 and E > 0:
            continue
        gamma = float(rng.uniform(-2, 2))
        m = int(rng.integers(1, 65))
        N = local_matrix(E, gamma, p)
        worst_det = max(worst_det, abs(det(N) - 1.0))
        a = entries(product_matrix(E, [gamma] * m, p))
        b = entries(naive_product(E, [gamma] * m, p))
        cfm = entries(identical_closed_form(E, gamma, m, p))
        scale = max(1.0, np.abs(a).max())
        worst_agree = max(worst_agree, np.abs(a - b).max() / scale, np.abs(a - cfm).max() / scale)
        if scale < 1e150:  # beyond this the det products overflow doubles
            det_scale = max(1.0, abs(a[0] * a[3]), abs(a[1] * a[2]))
            worst_det = max(worst_det, abs((a[0] * a[3] - a[1] * a[2]) - 1.0) / det_scale)
    assert worst_det <= 1e-10
    assert worst_agree <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 2.0
    print(
        f"criterion 3 PASS: 1000 draws, det defect {worst_det:.2e}, "
        f"three-way agreement {worst_agree:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_4_single_impurity_counts():
    t0 = time.time()
    for alpha in (1.0, -1.0, -3.0):
        p = ChainParams.from_cos_flux(0.6, alpha)
        layout = band_edges(p, 12.0)
        neg = count_states_per_gap(PerturbationPattern.single(-2.0), layout, p)[:6]
        pos = count_states_per_gap(PerturbationPattern.single(+2.0), layout, p)[:6]
        assert neg == [1, 0, 1, 0, 1, 0], f"alpha={alpha}: {neg}"
        assert pos == [0, 1, 0, 1, 0, 1], f"alpha={alpha}: {pos}"
    elapsed = time.time() - t0
    assert elapsed < 2.0
    print(
        f"criterion 4 PASS: counts over gaps 0-5 odd/even exact for "
        f"alpha in {{1,-1,-3}}, gamma = -+2 ({elapsed:.2f}s)"
    )


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    results = crosscheck.run_cases(seed=424243, n_cases=20)
    elapsed = time.time() - t0
    n_match = sum(1 for r in results if r.matched)
    worst_raw = max(r.err_raw for r in results)
    worst_rich = max(r.err_rich for r in results)
    assert n_match == len(results), crosscheck.summary_line(results)
    assert worst_raw <= 1e-4 and worst_rich <= 1e-6
    # the draw must exercise both energy signs, several pattern lengths,
    # and more than one flux regime
    assert sum(1 for r in results if r.E_char < 0) >= 3
    assert sum(1 for r in results if r.E_char > 0) >= 3
    assert {len(r.gammas) for r in results} >= {1, 2, 3}
    assert any(abs(abs(r.cos_flux) - 1.0) < 1e-12 for r in results)
    assert any(abs(abs(r.cos_flux) - 1.0) > 0.1 for r in results)
    assert elapsed < 300.0
    print(
        f"criterion 5 PASS: {crosscheck.summary_line(results)}; worst raw "
        f"{worst_raw:.2e}, worst extrapolated {worst_rich:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_6_weak_coupling():
    t0 = time.time()
    p = ChainParams.from_cos_flux(0.7, 1.0)
    layout = band_edges(p, 25.0)
    gap0 = layout.gaps[0]
    rng = np.random.default_rng(777)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        gammas = rng.uniform(-2.0, 2.0, size=m)
        while abs(gammas.sum()) < 0.2:
            gammas = rng.uniform(-2.0, 2.0, size=m)
        states = weak_exact(gap0, WeakCouplingProblem(tuple(gammas), 1e-3), p)
        assert (len(states) > 0) == (gammas.sum() < 0)
    # the eps^2 law: gap-edge distance of the weak state over a decade
    eps_list = [1e-2, 5e-3, 2.5e-3, 1.25e-3, 1e-3]
    fit = weak_gap_distance_scaling(gap0, WeakCouplingProblem((-1.0,), 1e-2), p, eps_list)
    assert abs(fit.slope - 2.0) <= 0.1
    # the predictor stays within O(eps^2) of the exact root
    for eps in eps_list:
        problem = WeakCouplingProblem((-0.7, -0.5), eps)
        pred = weak_predictor(gap0, problem, p)
        exact = weak_exact(gap0, problem, p)[0].E
        assert abs(pred - exact) <= 0.5 * eps * eps
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"criterion 6 PASS: existence iff sum(gamma)<0 on 50 patterns; edge-distance "
        f"slope {fit.slope:.4f} (r2 {fit.r2:.6f}); predictor error << eps^2 ({elapsed:.1f}s)"
    )


def test_criterion_7_distant_impurities():
    t0 = time.time()
    p = ChainParams.from_cos_flux(0.7, 1.0)
    layout = band_edges(p, 25.0)
    gap0 = layout.gaps[0]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(0, 13))
        g1 = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
        g2 = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
        pair = DistantPair(g1, g2, n)
        direct = [s.E for s in distant_solve(pair, gap0, p)]
        via = [s.E for s in solve_gap(pair.pattern(), gap0, p)]
        assert len(direct) == len(via)
        for a, b in zip(direct, via):
            worst = max(worst, abs(a - b))
    assert worst <= 1e-9
    fit, ref = splitting_rate(DistantPair(-1.5, -1.5, 4), gap0, p, list(range(4, 13)))
    assert abs(fit.slope - ref) <= 0.1 * abs(ref)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        f"criterion 7 PASS: distant == pattern solver to {worst:.1e}; splitting "
        f"slope {fit.slope:.5f} vs ln|lambda| = {ref:.5f} ({elapsed:.1f}s)"
    )


def test_criterion_8_eigenfunction_validity():
    t0 = time.time()
    p = ChainParams.from_cos_flux(0.6, 1.0)
    layout = band_edges(p, 12.0)
    n_checked = 0
    for pattern in (
        PerturbationPattern.single(-2.0),
        PerturbationPattern.single(2.0),
        PerturbationPattern((3.0, 1.0)),
        PerturbationPattern.identical(-1.5, 3),
    ):
        for s in all_states(pattern, layout, p):
            lat = bound_state_lattice(s.E, pattern.gammas, p, margin=8)
            assert vertex_condition_residual(s.E, lat, pattern.gammas, p) <= 1e-6
            lam2 = lambda_small(s.E, p.alpha, p) ** 2
            j = pattern.m + 2
            n0 = ring_l2_norm(s.E, lat.value(j), lat.value(j + 1), p) ** 2
            n1 = ring_l2_norm(s.E, lat.value(j + 1), lat.value(j + 2), p) ** 2
            assert n1 / n0 == pytest.approx(lam2, rel=0.10)
            n_checked += 1
    assert n_checked >= 10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        f"criterion 8 PASS: {n_checked} bound states reconstruct with vertex residual "
        f"<= 1e-6 and ring decay |lambda|^2 +- 10% ({elapsed:.1f}s)"
    )
