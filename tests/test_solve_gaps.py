"""The one-pass solver against the per-piece one it replaces.

solve_gaps builds the grids of all gap pieces at once, scans
char_residual once over them and polishes all the brackets in lockstep on
batch_residual.  Each step is pinned here to the per-piece version,
written out as all_states ran it piece by piece: np.linspace grids, one
char_residual scan per piece, and char_residual itself in the polish.  Roots compare as
hex floats.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringchain import (
    ChainParams,
    FlatBandPole,
    InsideBand,
    PerturbationPattern,
    band_edges,
    char_residual,
    crosscheck,
    solve_gap,
)
from ringchain import impurity
from ringchain.asymptotics import DistantPair, WeakCouplingProblem, distant_solve, splitting_rate, weak_predictor
from ringchain.core import find_roots, lambda_small
from ringchain.errors import InvalidParameter
from ringchain.impurity import all_states, batch_residual, interior_states, solve_gaps
from tests.paper_forms import count_states_per_gap


def reference_gap_grid(lo, hi, n_base):
    """One piece's scan grid as np.linspace and the edge offsets give it."""
    width = hi - lo
    offsets = width * np.power(10.0, -np.arange(2.0, 12.5, 0.5))
    pts = np.concatenate(
        [
            np.linspace(lo + 1e-13 * max(1.0, abs(lo)), hi - 1e-13 * max(1.0, abs(hi)), n_base),
            lo + offsets,
            hi - offsets,
        ]
    )
    pts = pts[(pts > lo) & (pts < hi)]
    return np.unique(pts)


def reference_solve_gap(pattern, gap, params, gap_index=0, grid_points=impurity.GRID_POINTS):
    """One piece on its own grid, scanned and polished on char_residual."""
    lo, hi = gap
    if math.isinf(lo):
        lo = min(impurity.gap0_scan_floor(pattern, params), hi - 1e-9)
    F = lambda E: char_residual(E, pattern, params)  # noqa: E731
    roots = find_roots(F, reference_gap_grid(lo, hi, grid_points), 1e-13)
    return interior_states(roots, gap, gap_index, F)


def reference_all_states(pattern, gaps, params):
    states = []
    for i, gap in enumerate(gaps):
        states.extend(reference_solve_gap(pattern, gap, params, gap_index=i))
    return states


def hexed(states):
    return [(s.gap_index, s.E.hex(), s.residual.hex()) for s in states]


# seeded chains, every 3rd non-magnetic, and patterns of every length 1..50
CASES = []
for m in range(1, 51):
    rng = np.random.default_rng(1000 + m)
    cos_flux = float(rng.choice([-1.0, 1.0])) if m % 3 == 0 else float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.95))
    CASES.append((ChainParams.from_cos_flux(cos_flux, float(rng.uniform(-4.0, 3.0))),
                  PerturbationPattern(tuple(rng.uniform(-2.5, 2.5, m)))))
CASES.append((ChainParams.from_cos_flux(0.7, 1.0), PerturbationPattern.identical(-1.0, 50)))
CASES.append((ChainParams.from_cos_flux(1.0, 0.5), PerturbationPattern.identical(-1.0, 50)))
CASE_IDS = [f"m{len(pat.gammas)}-cos{p.cos_flux:.2f}" for p, pat in CASES]


@st.composite
def ascending_pieces(draw):
    """Disjoint ascending pieces: some abut, some narrower than 1e-12,
    some at negative energies, some ending at a flat band E = n^2."""
    x = draw(st.floats(-60.0, 60.0))
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            n = math.floor(math.sqrt(max(x, 0.0))) + 1
            hi = float(n * n)
        else:
            hi = x + draw(st.one_of(st.floats(1e-16, 1e-12), st.floats(1e-12, 20.0)))
        if hi > x:
            pieces.append((x, hi))
            x = hi
        x += draw(st.sampled_from([0.0, 1e-13, 0.5, 3.0]))
    return pieces


class TestBatchedGrid:
    @given(ascending_pieces().filter(bool), st.sampled_from([2, 3, 17, 600]))
    @example([(0.0, 2e-13), (1.0, 4.0)], 600)     # linspace with a zero step, and one without
    @example([(-3.0, -3.0 + 5e-14), (-3.0 + 5e-14, 1.0), (1.0, 4.0)], 600)
    def test_equals_per_piece_grids(self, pieces, n_base):
        lo, hi = np.array(pieces).T
        grid = impurity._gap_grids(lo, hi, n_base)
        want = [reference_gap_grid(a, b, n_base) for a, b in pieces]
        assert np.array_equal(grid.view(np.int64), np.concatenate(want).view(np.int64))
        # and each piece's share ends where the scan grids say it does
        _, ends = impurity.gap_scan_grids(pieces, PerturbationPattern.single(1.0), ChainParams(0.3, 0.0), n_base)
        starts = [0, *ends[:-1]]
        for (a, b), s, e, w in zip(pieces, starts, ends, want):
            assert np.array_equal(grid[s:e], w)
            assert np.array_equal(impurity._gap_grid(a, b, n_base), w)

    def test_pieces_out_of_order_rejected(self):
        p = ChainParams.from_cos_flux(0.7, 1.0)
        with pytest.raises(InvalidParameter):
            solve_gaps(PerturbationPattern.single(-1.0), [(1.0, 4.0), (0.0, 0.5)], p)
        with pytest.raises(InvalidParameter):   # only gap 0 may start at -inf
            solve_gaps(PerturbationPattern.single(-1.0), [(-math.inf, -3.0), (-math.inf, -1.0)], p)

    @pytest.mark.parametrize("gap", [(5.0, 3.0), (math.nan, 3.0), (3.0, 3.0), (2.0, math.nan), (-math.inf, math.inf),
                                     (2.0, math.inf), (math.inf, math.inf)])
    def test_malformed_piece_rejected_by_every_solver(self, gap):
        p = ChainParams.from_cos_flux(0.7, 1.0)
        solvers = [
            lambda: solve_gap(PerturbationPattern.single(-1.0), gap, p),
            lambda: solve_gaps(PerturbationPattern.single(-1.0), [(-math.inf, -1.0), gap], p),
            lambda: distant_solve(DistantPair(-1.5, -1.5, 4), gap, p),
            lambda: distant_solve(DistantPair(-1.5, 0.5, 4), gap, p),
            lambda: weak_predictor(gap, WeakCouplingProblem((-1.0,), 1e-2), p),
            lambda: splitting_rate(DistantPair(-1.5, -1.5, 4), gap, p, [4, 5, 6, 7]),
        ]
        for solve in solvers:
            with pytest.raises(InvalidParameter):
                solve()

    def test_gap0_starts_at_the_pattern_floor(self):
        p = ChainParams.from_cos_flux(0.7, 1.0)
        pattern = PerturbationPattern((-2.0, 0.5))
        gaps = band_edges(p, 25.0).gaps
        grid, ends = impurity.gap_scan_grids(gaps, pattern, p, 600)
        floor = min(impurity.gap0_scan_floor(pattern, p), gaps[0][1] - 1e-9)
        assert np.array_equal(grid[:ends[0]], reference_gap_grid(floor, gaps[0][1], 600))


class TestAgainstPerPieceLoop:
    @pytest.mark.parametrize("params, pattern", CASES, ids=CASE_IDS)
    def test_all_states_and_counts(self, params, pattern):
        layout = band_edges(params, 25.0)
        want = reference_all_states(pattern, layout.gaps, params)
        assert hexed(all_states(pattern, layout, params)) == hexed(want)
        counts = [sum(1 for s in want if s.gap_index == i) for i in range(len(layout.gaps))]
        assert count_states_per_gap(pattern, layout, params) == counts

    @pytest.mark.parametrize("params, pattern", CASES[::7], ids=CASE_IDS[::7])
    def test_solve_gap_on_a_fine_grid(self, params, pattern):
        layout = band_edges(params, 25.0)
        for gi in (0, 1):
            want = reference_solve_gap(pattern, layout.gaps[gi], params, gi, grid_points=6000)
            got = solve_gap(pattern, layout.gaps[gi], params, gap_index=gi, grid_points=6000)
            assert hexed(got) == hexed(want)

    def test_admissible_roots(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(40):
            params, gammas = crosscheck.draw_config(rng)
            layout = band_edges(params, 12.0)
            pattern = PerturbationPattern(gammas)
            want = []
            for gi, gap in enumerate(layout.gaps[:3]):
                for s in reference_solve_gap(pattern, gap, params, gap_index=gi):
                    lam = abs(lambda_small(s.E, params.alpha, params))
                    near_edge = min(abs(s.E - gap[1]), math.inf if math.isinf(gap[0]) else abs(s.E - gap[0]))
                    if lam <= crosscheck.LAMBDA_CAP and near_edge > 0.02:
                        want.append((gi, s.E.hex(), s.residual.hex(), lam.hex()))
            got = [(gi, s.E.hex(), s.residual.hex(), lam.hex())
                   for gi, s, lam in crosscheck.admissible_roots(params, gammas, layout)]
            assert got == want
            checked += len(want)
        assert checked > 20


class TestPatternResidual:
    """batch_residual, the residual prepared once per pattern, against char_residual."""

    @pytest.mark.parametrize("params, pattern", CASES[::5], ids=CASE_IDS[::5])
    def test_bit_identical_at_random_gap_energies(self, params, pattern):
        layout = band_edges(params, 25.0)
        residuals = batch_residual(pattern, params)
        rng = np.random.default_rng(len(pattern.gammas))
        for gi, (lo, hi) in enumerate(layout.gaps[:6]):
            lo = hi - 3.0 if math.isinf(lo) else lo
            Es = rng.uniform(lo, hi, 20).tolist()   # more than FLOAT_LANES: one array round
            want = [char_residual(E, pattern, params).hex() for E in Es]
            for got in (residuals(Es), [residuals([E])[0] for E in Es]):
                assert all(type(v) is float for v in got)
                assert [v.hex() for v in got] == want

    def test_same_errors(self):
        params = ChainParams.from_cos_flux(0.6, 1.0)
        pattern = PerturbationPattern((1.5, -0.7, 1.5))
        residuals = batch_residual(pattern, params)
        layout = band_edges(params, 12.0)
        band = layout.bands[1]
        gap_energy = 0.5 * sum(layout.gaps[1])
        for fn in (lambda E: residuals([E]), lambda E: residuals([gap_energy] * 10 + [E] + [gap_energy] * 10),
                   lambda E: char_residual(E, pattern, params)):
            with pytest.raises(FlatBandPole):
                fn(4.0)
            with pytest.raises(InsideBand):
                fn(0.5 * (band[0] + band[1]))


class TestGridPoints:
    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, 600.0, "600", None])
    def test_rejected(self, bad):
        p = ChainParams.from_cos_flux(0.7, 1.0)
        gap = band_edges(p, 12.0).gaps[0]
        with pytest.raises(InvalidParameter):
            solve_gap(PerturbationPattern.single(-1.0), gap, p, grid_points=bad)
        with pytest.raises(InvalidParameter):
            solve_gaps(PerturbationPattern.single(-1.0), [gap], p, grid_points=bad)

    @pytest.mark.parametrize("tol_root", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_bad_tol_root_rejected(self, tol_root):
        p = ChainParams.from_cos_flux(0.7, 1.0)
        gap = band_edges(p, 12.0).gaps[0]
        pattern = PerturbationPattern.single(-2.0)
        with pytest.raises(InvalidParameter):
            solve_gap(pattern, gap, p, tol_root=tol_root)
        with pytest.raises(InvalidParameter):
            solve_gaps(pattern, [gap], p, tol_root=tol_root)

    @pytest.mark.parametrize("edge_margin", [math.nan, -1e-9, -math.inf])
    def test_bad_edge_margin_rejected(self, edge_margin):
        # gap 0 of this chain holds one state of gamma = -2, which a NaN
        # margin would discard without a word
        p = ChainParams.from_cos_flux(0.7, 1.0)
        gap = band_edges(p, 12.0).gaps[0]
        pattern = PerturbationPattern.single(-2.0)
        assert len(solve_gap(pattern, gap, p)) == 1
        assert len(solve_gap(pattern, gap, p, edge_margin=0.0)) == 1
        with pytest.raises(InvalidParameter):
            solve_gap(pattern, gap, p, edge_margin=edge_margin)
        with pytest.raises(InvalidParameter):
            solve_gaps(pattern, [gap], p, edge_margin=edge_margin)

    def test_integers_accepted(self):
        p = ChainParams.from_cos_flux(0.7, 1.0)
        gap = band_edges(p, 12.0).gaps[0]
        pattern = PerturbationPattern.single(-1.0)
        want = hexed(reference_solve_gap(pattern, gap, p, grid_points=2))
        assert hexed(solve_gap(pattern, gap, p, grid_points=2)) == want
        assert hexed(solve_gap(pattern, gap, p, grid_points=np.int64(600))) == hexed(solve_gap(pattern, gap, p))
