"""The array path of each kernel against its float path, and the grid
root enumerator."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from ringchain import ChainParams, DistantPair, PerturbationPattern, band_edges, core, impurity
from ringchain.asymptotics import distant_residual
from ringchain.core import (
    c_kernel,
    cos_k,
    f_single,
    find_roots,
    kernels,
    lambda_small,
    on_flat_band,
    s_kernel,
    sin_k_over_k,
    xi,
    xi_background,
)
from ringchain.errors import FlatBandPole, HalfIntegerFlux, InsideBand
from ringchain.impurity import batch_residual, char_residual
from tests.paper_forms import reconstruct_edge

# E < 0, E = 0, E > 0, every flat band n^2 <= 36 and points just off them
GRID = np.unique(
    np.concatenate(
        [
            np.linspace(-40.0, 40.0, 3201),
            [0.0, -1e-300, 1e-300],
            [float(n * n) for n in range(1, 7)],
            [n * n + d for n in range(1, 7) for d in (-1e-9, 1e-9)],
        ]
    )
)
PARAMS = [
    ChainParams.from_cos_flux(0.7, 1.0),
    ChainParams.from_cos_flux(-0.35, -2.5),
    ChainParams.from_cos_flux(1.0, 0.0),
    ChainParams.from_cos_flux(-1.0, 1.7),
]
# random patterns, then two that repeat couplings: an identical array and
# a distant pair (two vertices at alpha - 1.5, twelve unperturbed between)
PATTERNS = [PerturbationPattern(tuple(np.random.default_rng(m).uniform(-2.5, 2.5, m))) for m in (1, 3, 8, 50)] + [
    PerturbationPattern.identical(-1.0, 50),
    PerturbationPattern((-1.5,) + (0.0,) * 12 + (-1.5,)),
]
PATTERN_IDS = ["m1", "m3", "m8", "m50", "identical-m50", "pair-m14"]


def float_on_grid(fn):
    """fn at each float of GRID, NaN where it raises the gap-only errors."""
    out = np.empty(len(GRID))
    for i, E in enumerate(GRID):
        try:
            out[i] = fn(float(E))
        except (InsideBand, FlatBandPole):
            out[i] = math.nan
    return out


def ulps(a, b):
    return np.abs(a - b) / np.spacing(np.abs(b))


@pytest.fixture
def math_kernels(monkeypatch):
    """Array c/s kernels evaluated with math's functions, so that the
    array code composed on top of them is comparable bit for bit."""
    def math_only(E):
        if not isinstance(E, np.ndarray):
            return kernels(E)
        cs = [kernels(float(e)) for e in E]
        return np.array([c for c, _ in cs]), np.array([s for _, s in cs])

    for mod in (core, impurity):
        monkeypatch.setattr(mod, "kernels", math_only)


@pytest.mark.parametrize("index, scalar", [(0, c_kernel), (1, s_kernel)], ids=["c", "s"])
def test_transcendental_kernels_within_two_ulp(index, scalar):
    # np.cosh/np.sinh (E < 0) may differ from math's in the last bit, and
    # np.cos/np.sin (E > 0) may too on other machines
    got, want = kernels(GRID)[index], float_on_grid(scalar)
    assert np.all(ulps(got, want) <= 2.0)
    assert kernels(np.array([0.0]))[index][0] == scalar(0.0)
    assert np.array_equal([kernels(float(E))[index] for E in GRID], want)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_composed_kernels_bit_identical_on_the_same_c_and_s(params, math_kernels):
    for fn in (
        lambda E: xi(E, params.alpha + 0.3, params),
        lambda E: lambda_small(E, params.alpha, params),
        lambda E: f_single(E, params),
    ):
        np.testing.assert_array_equal(fn(GRID), float_on_grid(fn))


@pytest.mark.parametrize("params", PARAMS, ids=str)
@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_char_residual_bit_identical_on_the_same_c_and_s(params, pattern, math_kernels):
    # long patterns overflow to inf far below the first band, silently on floats
    with np.errstate(over="ignore", invalid="ignore"):
        got = impurity.char_residual(GRID, pattern, params)
    want = float_on_grid(lambda E: impurity.char_residual(E, pattern, params))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_nan_mask_is_where_the_scalar_kernel_raises(params):
    pattern = PATTERNS[1]
    for fn in (
        lambda E: lambda_small(E, params.alpha, params),
        lambda E: f_single(E, params),
        lambda E: char_residual(E, pattern, params),
        lambda E: distant_residual(E, DistantPair(-1.5, 0.5, 2), params),
    ):
        want = float_on_grid(fn)
        np.testing.assert_array_equal(np.isnan(fn(GRID)), np.isnan(want))
        assert np.isnan(want).any() and not np.isnan(want).all()


def test_array_flat_band_rule_matches_scalar_test():
    assert on_flat_band(GRID).tolist() == [on_flat_band(float(E)) for E in GRID]
    assert on_flat_band(np.array([1.0, 4.0, 0.0, -1.0])).tolist() == [True, True, False, False]


# reference kernels: each splits on the sign of E itself, with math's
# functions only
def separate_cos_k(E, x):
    if E > 0.0:
        return math.cos(math.sqrt(E) * x)
    if E < 0.0:
        return math.cosh(math.sqrt(-E) * x)
    return 1.0


def separate_sin_k_over_k(E, x):
    if E > 0.0:
        k = math.sqrt(E)
        return math.sin(k * x) / k
    if E < 0.0:
        kap = math.sqrt(-E)
        return math.sinh(kap * x) / kap
    return x


def separate_on_flat_band(E):
    if not E > 0.0:
        return False
    k = math.sqrt(E)
    n = round(k)
    return n >= 1 and abs(k - n) < 1e-12


def bits(values):
    """Each float as its hex string, recursing into tuples; the type too."""
    return [bits(v) if isinstance(v, tuple) else (type(v), v.hex()) for v in values]


@pytest.mark.parametrize("x", [math.pi, 0.3, 2.9])
def test_kernel_views_bit_identical_to_the_separate_kernels(x):
    energies = [float(E) for E in GRID]
    want_c = [separate_cos_k(E, x) for E in energies]
    want_s = [separate_sin_k_over_k(E, x) for E in energies]
    assert bits(cos_k(E, x) for E in energies) == bits(want_c)
    assert bits(sin_k_over_k(E, x) for E in energies) == bits(want_s)
    assert bits(kernels(E, x) for E in energies) == bits(list(zip(want_c, want_s)))
    if x == math.pi:
        assert bits(c_kernel(E) for E in energies) == bits(want_c)
        assert bits(s_kernel(E) for E in energies) == bits(want_s)
        assert bits(kernels(E) for E in energies) == bits(list(zip(want_c, want_s)))
    assert [on_flat_band(E) for E in energies] == [separate_on_flat_band(E) for E in energies]


def test_flat_band_rule_elementwise_at_the_edge_cases():
    near = [n * n + d for n in range(1, 5) for d in (-1e-13, 1e-13)]
    E = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -4.0, 1e-300, 0.25, *near, 1.0, 9.0, 8.99])
    got = on_flat_band(E)
    assert got.dtype == bool
    assert got.tolist() == [on_flat_band(float(e)) for e in E]
    assert got.tolist() == [False] * 9 + [True] * (len(near) + 2) + [False]


@pytest.mark.parametrize("E", [-2.7, -0.3, 0.0, 0.6, 5.3, 20.1])
def test_kernels_over_positions_within_two_ulp(E):
    x = np.linspace(0.0, math.pi, 257)
    c, s = kernels(E, x)
    assert c.shape == s.shape == x.shape
    assert np.all(ulps(c, np.array([separate_cos_k(E, t) for t in x])) <= 2.0)
    want_s = np.array([separate_sin_k_over_k(E, t) for t in x])
    assert s[0] == want_s[0] == 0.0 and np.all(ulps(s[1:], want_s[1:]) <= 2.0)


@pytest.mark.parametrize("E", [-2.7, -0.3, 0.0, 0.6, 5.3])
@pytest.mark.parametrize("samples", [2, 257])
def test_reconstruct_edge_matches_the_per_sample_reconstruction(E, samples):
    params = ChainParams.from_cos_flux(0.7, 1.0)
    psi_j, psi_j1 = 0.8, -0.35
    edge = reconstruct_edge(E, psi_j, psi_j1, j=3, params=params, samples=samples)
    # the reconstruction with one scalar kernel call per sample point
    c, s = separate_cos_k(E, math.pi), separate_sin_k_over_k(E, math.pi)
    u = np.linspace(0.0, math.pi, samples)
    cosk = np.array([separate_cos_k(E, float(t)) for t in u])
    sink = np.array([separate_sin_k_over_k(E, float(t)) for t in u])
    gauge, phase = np.exp(-1j * params.A * u), params.flux_phase
    for got, g, ph in ((edge.psi, gauge, phase), (edge.phi, np.conj(gauge), np.conj(phase))):
        coef = (psi_j1 * ph - psi_j * c) / s
        want = g * (psi_j * cosk + coef * sink)
        # a few ulp of the sum of the two terms' sizes
        scale = np.abs(psi_j * cosk) + np.abs(coef * sink)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale))
    assert np.array_equal(edge.x, u + 3 * math.pi)


def test_half_integer_flux_raises():
    p = ChainParams.from_cos_flux(0.0, 1.0)
    with pytest.raises(HalfIntegerFlux):
        xi(GRID, 1.0, p)
    with pytest.raises(HalfIntegerFlux):
        lambda_small(GRID, 1.0, p)
    with pytest.raises(HalfIntegerFlux):
        f_single(GRID, p)
    with pytest.raises(HalfIntegerFlux):
        char_residual(GRID, PATTERNS[0], p)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_float_in_gives_python_float_out(params):
    E = -3.0   # below the first band of every chain in PARAMS
    pair = PerturbationPattern((-1.0, 0.5))
    outs = [
        *kernels(E),
        xi(E, params.alpha, params),
        xi_background(E, params),
        lambda_small(E, params.alpha, params),
        f_single(E, params),
        char_residual(E, pair, params),
        distant_residual(E, DistantPair(-1.0, 0.5, 0), params),
        distant_residual(E, DistantPair(-1.0, 0.5, 3), params),
    ]
    assert [type(v) for v in outs] == [float] * len(outs)


@pytest.mark.parametrize("alpha", [1.0, -1.0, 0.3])
def test_flat_band_pole_before_inside_band_on_a_non_magnetic_chain(alpha):
    # at E = n^2 a non-magnetic chain has |xi| within rounding of 1
    p = ChainParams.from_cos_flux(1.0, alpha)
    for E in (1.0, 4.0, 9.0):
        with pytest.raises(FlatBandPole):
            f_single(E, p)
        with pytest.raises(FlatBandPole):
            char_residual(E, PATTERNS[1], p)


class TestFindRoots:
    def test_polishes_each_sign_change_with_the_scalar_function(self):
        def sin(E):
            if isinstance(E, np.ndarray):
                return np.sin(E)
            assert type(E) is float   # polishing runs on Python floats
            return math.sin(E)

        grid = np.linspace(0.1, 10.0, 50)
        roots = find_roots(sin, grid, 1e-14)
        assert roots == [brentq(math.sin, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16)
                         for i in (15, 30, 46)]
        assert np.allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-13)

    def test_scans_the_grid_object_once_then_calls_on_floats(self):
        # band._edge_roots answers `E is grid` from a scan it already has
        calls = []

        def sin(E):
            calls.append(E)
            return np.sin(E) if isinstance(E, np.ndarray) else math.sin(E)

        grid = np.linspace(0.1, 10.0, 50)
        find_roots(sin, grid, 1e-14)
        assert calls[0] is grid
        assert len(calls) > 1 and all(type(E) is float for E in calls[1:])

    def test_exact_grid_zeros_are_roots(self):
        grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert find_roots(lambda E: E * (E * E - 2.25), grid, 1e-14) == [
            pytest.approx(-1.5), 0.0, pytest.approx(1.5)]

    def test_nan_points_never_bracket(self):
        grid = np.linspace(-1.0, 1.0, 11)

        def vals(E):
            out = E.copy()
            out[np.abs(E) < 0.15] = np.nan
            return out

        assert find_roots(vals, grid, 1e-14) == []

    def test_tolerances_reach_brentq(self):
        grid = np.array([1.0, 2.0])
        coarse = find_roots(lambda E: E * E - 2.0, grid, 1e-3)
        assert coarse[0] != math.sqrt(2.0) and abs(coarse[0] - math.sqrt(2.0)) < 2e-3

    @pytest.mark.parametrize("batch", [False, True], ids=["brentq", "batch"])
    def test_no_bracket_crosses_a_piece_end(self, batch):
        # sin changes sign between grid[i] and grid[i + 1] for i = 15, 30, 46
        grid = np.linspace(0.1, 10.0, 50)
        sin = lambda E: np.sin(E) if isinstance(E, np.ndarray) else math.sin(E)  # noqa: E731
        kw = {"batch": lambda xs: [math.sin(x) for x in xs]} if batch else {}
        whole = find_roots(sin, grid, 1e-14, **kw)
        assert find_roots(sin, grid, 1e-14, ends=[50], **kw) == whole
        for ends, kept in [([16, 50], [1, 2]), ([0, 16, 31, 50], [2]), ([16, 31, 47, 50], []),
                           ([15, 30, 46, 50], [0, 1, 2])]:
            assert find_roots(sin, grid, 1e-14, ends=ends, **kw) == [whole[i] for i in kept]
        # an exact zero is a root, at the start of a piece too
        line = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert find_roots(lambda E: E, line, 1e-14, ends=[2, 5], **kw) == [0.0]

    @given(params=st.sampled_from(PARAMS), pattern=st.sampled_from(PATTERNS), n_base=st.sampled_from([2, 17, 150, 600]),
           first=st.integers(0, 3), count=st.integers(1, 8), xtol=st.sampled_from([1e-13, 1e-10, 1e-6]))
    def test_batch_polish_is_brentqs(self, params, pattern, n_base, first, count, xtol):
        """On a pattern's gap grids, the lockstep polish on batch_residual
        and brentq on char_residual give the same roots, bit for bit."""
        gaps = layout_of(params).gaps
        gaps = gaps[first % len(gaps):][:count]
        grid, ends = impurity.gap_scan_grids(gaps, pattern, params, n_base)
        F = lambda E: char_residual(E, pattern, params)  # noqa: E731
        want = find_roots(F, grid, xtol, ends=ends)
        got = find_roots(F, grid, xtol, ends=ends, batch=batch_residual(pattern, params))
        assert [r.hex() for r in got] == [r.hex() for r in want]


@functools.cache
def layout_of(params):
    return band_edges(params, 25.0)
