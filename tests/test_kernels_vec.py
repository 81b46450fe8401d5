"""Array kernels against the scalar kernels, and the grid root enumerator."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from ringchain import ChainParams, PerturbationPattern, core, impurity
from ringchain.core import (
    c_kernel,
    f_single,
    f_single_vec,
    find_roots,
    flat_band_mask,
    kernels_vec,
    lambda_small,
    lambda_small_vec,
    on_flat_band,
    s_kernel,
    xi,
    xi_vec,
)
from ringchain.errors import FlatBandPole, HalfIntegerFlux, InsideBand
from ringchain.impurity import char_residual, char_residual_vec

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
PATTERNS = [PerturbationPattern(tuple(np.random.default_rng(m).uniform(-2.5, 2.5, m))) for m in (1, 3, 8, 50)]


def scalar_on_grid(fn):
    """fn over GRID, NaN where it raises the gap-only errors."""
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
    def kernels(E):
        E = np.asarray(E)
        return np.array([c_kernel(float(e)) for e in E]), np.array([s_kernel(float(e)) for e in E])

    for mod in (core, impurity):
        monkeypatch.setattr(mod, "kernels_vec", kernels)


@pytest.mark.parametrize("index, scalar", [(0, c_kernel), (1, s_kernel)], ids=["c", "s"])
def test_transcendental_kernels_within_two_ulp(index, scalar):
    # np.cosh/np.sinh (E < 0) may differ from math's in the last bit, and
    # np.cos/np.sin (E > 0) may too on other machines
    got, want = kernels_vec(GRID)[index], scalar_on_grid(scalar)
    assert np.all(ulps(got, want) <= 2.0)
    assert kernels_vec(np.array([0.0]))[index][0] == scalar(0.0)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_composed_kernels_bit_identical_on_the_same_c_and_s(params, math_kernels):
    cases = [
        (lambda E: core.xi_vec(E, params.alpha + 0.3, params), lambda E: xi(E, params.alpha + 0.3, params)),
        (lambda E: core.lambda_small_vec(E, params.alpha, params), lambda E: lambda_small(E, params.alpha, params)),
        (lambda E: core.f_single_vec(E, params), lambda E: f_single(E, params)),
    ]
    for vec, scalar in cases:
        got, want = vec(GRID), scalar_on_grid(scalar)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("params", PARAMS, ids=str)
@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: f"m{p.m}")
def test_char_residual_bit_identical_on_the_same_c_and_s(params, pattern, math_kernels):
    got = impurity.char_residual_vec(GRID, pattern, params)
    want = scalar_on_grid(lambda E: char_residual(E, pattern, params))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("params", PARAMS, ids=str)
def test_nan_mask_is_where_the_scalar_kernel_raises(params):
    pattern = PATTERNS[1]
    pairs = [
        (lambda_small_vec(GRID, params.alpha, params), lambda E: lambda_small(E, params.alpha, params)),
        (f_single_vec(GRID, params), lambda E: f_single(E, params)),
        (char_residual_vec(GRID, pattern, params), lambda E: char_residual(E, pattern, params)),
    ]
    for got, scalar in pairs:
        want = scalar_on_grid(scalar)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(want).any() and not np.isnan(want).all()


def test_flat_band_mask_matches_scalar_test():
    assert flat_band_mask(GRID).tolist() == [on_flat_band(float(E)) for E in GRID]
    assert flat_band_mask(np.array([1.0, 4.0, 0.0, -1.0])).tolist() == [True, True, False, False]


def test_half_integer_flux_raises():
    p = ChainParams.from_cos_flux(0.0, 1.0)
    with pytest.raises(HalfIntegerFlux):
        xi_vec(GRID, 1.0, p)
    with pytest.raises(HalfIntegerFlux):
        lambda_small_vec(GRID, 1.0, p)
    with pytest.raises(HalfIntegerFlux):
        f_single_vec(GRID, p)
    with pytest.raises(HalfIntegerFlux):
        char_residual_vec(GRID, PATTERNS[0], p)


class TestFindRoots:
    def test_polishes_each_sign_change_with_the_scalar_function(self):
        grid = np.linspace(0.1, 10.0, 50)
        roots = find_roots(np.sin, math.sin, grid, 1e-14)
        assert roots == [brentq(math.sin, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16)
                         for i in (15, 30, 46)]
        assert np.allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-13)

    def test_exact_grid_zeros_are_roots(self):
        grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert find_roots(lambda E: E * (E * E - 2.25), lambda E: E * (E * E - 2.25), grid, 1e-14) == [
            pytest.approx(-1.5), 0.0, pytest.approx(1.5)]

    def test_nan_points_never_bracket(self):
        grid = np.linspace(-1.0, 1.0, 11)

        def vals(E):
            out = E.copy()
            out[np.abs(E) < 0.15] = np.nan
            return out

        assert find_roots(vals, lambda E: E, grid, 1e-14) == []

    def test_tolerances_reach_brentq(self):
        grid = np.array([1.0, 2.0])
        coarse = find_roots(lambda E: E * E - 2.0, lambda E: E * E - 2.0, grid, 1e-3, rtol=1e-3)
        assert coarse[0] != math.sqrt(2.0) and abs(coarse[0] - math.sqrt(2.0)) < 2e-3
