import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringchain import (
    ChainParams,
    HalfIntegerFlux,
    InsideBand,
    FlatBandPole,
    c_kernel,
    f_single,
    lambda_pair,
    lambda_small,
    s_kernel,
    xi,
    xi_background,
)
from ringchain.core import cos_k, on_flat_band, sin_k_over_k

SINH_PI = math.sinh(math.pi)   # 11.548739357257748
COSH_PI = math.cosh(math.pi)   # 11.591953275521519


def coupling_for_xi(E, target, params):
    """Invert xi for the coupling that produces a prescribed value."""
    return (target * params.cos_flux - c_kernel(E)) * 4.0 / s_kernel(E)


class TestKernels:
    def test_s_kernel_values(self):
        assert s_kernel(0.0) == math.pi
        assert abs(s_kernel(1.0)) < 1e-15
        assert s_kernel(-1.0) == pytest.approx(SINH_PI, rel=1e-14)

    def test_c_kernel_values(self):
        assert c_kernel(0.0) == 1.0
        assert c_kernel(1.0) == pytest.approx(-1.0, abs=1e-15)
        assert c_kernel(-1.0) == pytest.approx(COSH_PI, rel=1e-14)

    def test_kernels_match_principal_branch(self):
        # independent oracle: complex evaluation with k = principal sqrt(E)
        for E in np.linspace(-25.0, 25.0, 10_001):
            E = float(E)
            k = cmath.sqrt(complex(E))
            if k == 0:
                s_ref, c_ref = math.pi, 1.0
            else:
                s_ref = (cmath.sin(k * math.pi) / k).real
                c_ref = cmath.cos(k * math.pi).real
            assert abs(s_kernel(E) - s_ref) <= 1e-12 * max(1.0, abs(s_ref))
            assert abs(c_kernel(E) - c_ref) <= 1e-12 * max(1.0, abs(c_ref))

    @given(st.floats(-30.0, 30.0), st.floats(0.01, math.pi))
    def test_directional_kernels_consistent(self, E, x):
        k = cmath.sqrt(complex(E))
        if k == 0:
            return
        assert cos_k(E, x) == pytest.approx(cmath.cos(k * x).real, rel=1e-11, abs=1e-11)
        assert sin_k_over_k(E, x) == pytest.approx((cmath.sin(k * x) / k).real, rel=1e-11, abs=1e-11)


class TestChainParams:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ChainParams(math.inf, 0.0)
        with pytest.raises(ValueError):
            ChainParams(0.0, math.nan)

    def test_regime_predicates(self):
        assert ChainParams(0.5, 1.0).is_half_integer_flux
        assert ChainParams(1.0, 1.0).is_non_magnetic
        assert not ChainParams(0.3, 1.0).is_non_magnetic
        assert ChainParams.from_cos_flux(0.0, 1.0).is_half_integer_flux

    def test_from_cos_flux_exact(self):
        p = ChainParams.from_cos_flux(0.7, 2.0)
        assert p.cos_flux == 0.7
        assert math.cos(p.A * math.pi) == pytest.approx(0.7, abs=1e-15)

    def test_energy_point(self):
        assert on_flat_band(9.0) and not on_flat_band(8.99)


class TestXi:
    def test_simple_values(self):
        p = ChainParams(0.0, 0.0)
        assert xi(0.25, 0.0, p) == pytest.approx(0.0, abs=1e-15)  # cos(pi/2)
        assert xi(0.0, 0.0, p) == 1.0

    def test_negative_branch_value(self):
        p = ChainParams.from_cos_flux(0.7, -4.0)
        # (cosh(pi) - sinh(pi))/0.7 = exp(-pi)/0.7
        assert xi(-1.0, -4.0, p) == pytest.approx(math.exp(-math.pi) / 0.7, rel=1e-12)

    def test_zero_energy_form(self):
        p = ChainParams.from_cos_flux(0.7, 1.3)
        assert xi_background(0.0, p) == pytest.approx((1 + 1.3 * math.pi / 4) / 0.7, rel=1e-14)

    def test_half_integer_flux_rejected(self):
        p = ChainParams(0.5, 1.0)
        with pytest.raises(HalfIntegerFlux):
            xi(1.3, 1.0, p)

    def test_flux_periodicity(self):
        pA = ChainParams(0.31, 1.2)
        pA2 = ChainParams(2.31, 1.2)
        pA1 = ChainParams(1.31, 1.2)
        for E in (-3.7, -0.2, 0.0, 0.4, 6.3):
            assert xi_background(E, pA) == pytest.approx(xi_background(E, pA2), rel=1e-12, abs=1e-12)
            assert abs(xi_background(E, pA1)) == pytest.approx(abs(xi_background(E, pA)), rel=1e-12, abs=1e-12)


class TestLambda:
    def test_pair_example(self):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        g = coupling_for_xi(E, 1.25, p)
        l1, l2 = lambda_pair(E, g, p)
        assert l1 == pytest.approx(2.0, rel=1e-12)
        assert l2 == pytest.approx(0.5, rel=1e-12)

    def test_small_root_signs(self):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        assert lambda_small(E, coupling_for_xi(E, 1.25, p), p) == pytest.approx(0.5, rel=1e-12)
        assert lambda_small(E, coupling_for_xi(E, -1.25, p), p) == pytest.approx(-0.5, rel=1e-12)

    def test_inside_band_raises(self):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        with pytest.raises(InsideBand):
            lambda_pair(E, coupling_for_xi(E, 0.4, p), p)
        with pytest.raises(InsideBand):
            lambda_small(E, coupling_for_xi(E, 1.0, p), p)

    def test_product_and_modulus_on_random_gap_points(self, rng):
        checked = 0
        while checked < 1000:
            p = ChainParams.from_cos_flux(
                float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.95)), float(rng.uniform(-4, 4))
            )
            E = float(rng.uniform(-8.0, 20.0))
            x = xi_background(E, p)
            if abs(x) <= 1.0:
                continue
            l1, l2 = lambda_pair(E, p.alpha, p)
            assert abs(l1 * l2 - 1.0) <= 1e-12
            assert abs(lambda_small(E, p.alpha, p)) < 1.0
            checked += 1

    def test_deep_gap_no_cancellation(self):
        # xi of order 1e4 deep at negative energy
        p = ChainParams.from_cos_flux(0.7, 1.0)
        E = -16.0
        x = xi_background(E, p)
        assert abs(x) > 1e3
        l1, l2 = lambda_pair(E, p.alpha, p)
        assert abs(l1 * l2 - 1.0) <= 1e-12


class TestFSingle:
    def test_zero_at_band_edges(self, params06, layout06):
        for lo, hi in layout06.bands[:3]:
            for edge, inward in ((lo, -1e-9), (hi, +1e-9)):
                if edge <= 0 and edge == lo:
                    continue
                val = f_single(edge + inward, params06)
                assert abs(val) < 2e-3

    def test_monotone_and_negative_on_first_gap(self, params06, layout06):
        lo, hi = -2.0, layout06.gaps[0][1] - 1e-9
        grid = np.linspace(lo, hi, 300)
        vals = [f_single(float(E), params06) for E in grid]
        assert all(v < 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_sign_alternation_across_gap_pieces(self, params06, layout06):
        # strictly one sign per gap piece, starting negative, alternating
        signs = []
        for lo, hi in layout06.gaps[:6]:
            if math.isinf(lo):
                lo = hi - 1.0
            mids = np.linspace(lo + 1e-4, hi - 1e-4, 40)
            vals = [f_single(float(E), params06) for E in mids]
            assert all(v < 0 for v in vals) or all(v > 0 for v in vals)
            signs.append(1.0 if vals[0] > 0 else -1.0)
        assert signs == [(-1.0) ** (i + 1) for i in range(len(signs))]

    def test_errors(self, params06):
        with pytest.raises(FlatBandPole):
            f_single(1.0, params06)
        with pytest.raises(InsideBand):
            f_single(0.4, params06)  # inside the first band
