import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringchain import (
    ChainParams,
    FlatBandPole,
    InsideBand,
    PQ_SEED,
    lambda_small,
    pq_advance,
    xi,
    xi_background,
)
from ringchain.core import c_kernel, s_kernel
from ringchain.errors import InvalidParameter
from ringchain.impurity import PerturbationPattern, solve_gap
from tests.paper_forms import (
    LatticeSolution,
    bound_state_lattice,
    chebyshev_u,
    edge_quasiderivatives,
    eigenvectors,
    identical_closed_form,
    local_matrix,
    product_matrix,
    reconstruct_edge,
    ring_l2_norm,
    vertex_condition_residual,
)
from tests.test_core import coupling_for_xi


def naive_product(E, gammas, params):
    """Left-multiplied chain of local matrices (test oracle)."""
    acc = local_matrix(E, gammas[0], params)
    for g in gammas[1:]:
        acc = local_matrix(E, g, params) @ acc
    return acc


def entries(t: np.ndarray):
    """(a11, a12, a21, a22) of a 2x2 matrix."""
    return t.ravel()


def det(t: np.ndarray) -> float:
    """a11*a22 - a12*a21, in this order."""
    return t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]


class TestLocalMatrix:
    def test_structure_and_det(self, params07):
        N = local_matrix(-0.5, 0.7, params07)
        x = xi(-0.5, params07.alpha + 0.7, params07)
        assert N.shape == (2, 2)
        assert N[0, 0] == pytest.approx(2 * x) and N[0, 1] == -1.0 and N[1, 0] == 1.0 and N[1, 1] == 0.0
        assert det(N) == pytest.approx(1.0, abs=1e-12)

    def test_zero_xi_rotation(self):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        g = coupling_for_xi(E, 0.0, p)
        N = local_matrix(E, g - p.alpha, p)
        assert np.allclose(entries(N), [0.0, -1.0, 1.0, 0.0], atol=1e-13)

    def test_zero_gamma_is_background(self, params07):
        N = local_matrix(2.2, 0.0, params07)
        assert N[0, 0] == pytest.approx(2 * xi_background(2.2, params07))


class TestPQRecursion:
    def test_seeds_advance(self, params07):
        x1 = 0.37
        assert pq_advance(PQ_SEED, [x1]) == (2 * x1, 1.0, 1.0, 0.0)

    def test_constant_xi_second_step(self):
        x = 0.81
        P, Q, _, _ = pq_advance(PQ_SEED, [x, x])
        assert P == pytest.approx(4 * x * x - 1.0)
        assert Q == pytest.approx(2 * x)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=24))
    def test_one_pass_equals_step_by_step(self, xis):
        state = PQ_SEED
        for x in xis:
            state = pq_advance(state, [x])
        assert pq_advance(PQ_SEED, xis) == state

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=24))
    def test_unimodularity_identity(self, xis):
        state = PQ_SEED
        for x in xis:
            state = pq_advance(state, [x])
            P, Q, P_prev, Q_prev = state
            scale = max(1.0, abs(P * Q_prev), abs(Q * P_prev))
            assert abs(Q * P_prev - P * Q_prev - 1.0) <= 1e-10 * scale


class TestProducts:
    def test_m1_equals_local(self, params07):
        a = product_matrix(-0.8, [0.4], params07)
        b = local_matrix(-0.8, 0.4, params07)
        assert np.allclose(entries(a), entries(b), atol=1e-14)

    def test_matches_naive_product(self, params07, rng):
        for _ in range(50):
            E = float(rng.uniform(-4, 12))
            gammas = rng.uniform(-2, 2, size=int(rng.integers(1, 6))).tolist()
            got = product_matrix(E, gammas, params07)
            ref = naive_product(E, gammas, params07)
            scale = max(1.0, np.abs(entries(ref)).max())
            assert np.abs(entries(got) - entries(ref)).max() <= 1e-10 * scale

    def test_det_one_up_to_64(self, params07, rng):
        for m in (1, 8, 32, 64):
            gammas = rng.uniform(-1, 1, size=m).tolist()
            t = product_matrix(0.05, gammas, params07)
            # det is a difference of two huge products deep in a gap; the
            # meaningful scale is the product magnitude
            scale = max(1.0, abs(t[0, 0] * t[1, 1]), abs(t[0, 1] * t[1, 0]))
            assert abs(det(t) - 1.0) <= 1e-10 * scale

    def test_empty_pattern_rejected(self, params07):
        with pytest.raises(ValueError):
            product_matrix(0.1, [], params07)


class TestChebyshevClosedForm:
    def test_u_polynomial_values(self):
        assert chebyshev_u(-1, 0.3) == 0.0
        assert chebyshev_u(0, 0.3) == 1.0
        for m in range(5):
            assert chebyshev_u(m, 1.0) == pytest.approx(m + 1.0)
            assert chebyshev_u(m, -1.0) == pytest.approx((-1.0) ** m * (m + 1.0))

    def test_m1_equals_local(self, params07):
        a = identical_closed_form(0.1, -0.6, 1, params07)
        b = local_matrix(0.1, -0.6, params07)
        assert np.allclose(entries(a), entries(b), atol=1e-13)

    def test_trigonometric_branch(self, rng):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        for _ in range(20):
            target = float(rng.uniform(-0.99, 0.99))
            gamma = coupling_for_xi(E, target, p)
            got = identical_closed_form(E, gamma, 7, p)
            ref = product_matrix(E, [gamma] * 7, p)
            assert np.abs(entries(got) - entries(ref)).max() <= 1e-10 * max(1, np.abs(entries(ref)).max())

    def test_hyperbolic_branch(self):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        gamma = coupling_for_xi(E, 1.5, p)
        got = identical_closed_form(E, gamma, 5, p)
        ref = product_matrix(E, [gamma] * 5, p)
        assert np.abs(entries(got) - entries(ref)).max() <= 1e-9 * max(1, np.abs(entries(ref)).max())

    def test_three_way_agreement(self, params07, rng):
        for _ in range(30):
            E = float(rng.uniform(-3, 10))
            gamma = float(rng.uniform(-2, 2))
            m = int(rng.integers(1, 30))
            a = entries(product_matrix(E, [gamma] * m, params07))
            b = entries(naive_product(E, [gamma] * m, params07))
            c = entries(identical_closed_form(E, gamma, m, params07))
            scale = max(1.0, np.abs(a).max())
            assert np.abs(a - b).max() <= 1e-9 * scale
            assert np.abs(a - c).max() <= 1e-9 * scale


class TestEigenvectors:
    def test_example(self):
        p = ChainParams.from_cos_flux(0.8, 0.0)
        E = 0.3
        p_eff = ChainParams.from_cos_flux(0.8, coupling_for_xi(E, 1.25, p))
        u1, u2 = eigenvectors(E, p_eff)
        assert np.allclose(u1, [1.0, 0.5], atol=1e-12)
        assert np.allclose(u2, [1.0, 2.0], atol=1e-12)

    def test_eigen_relation_and_distinctness(self, params07, rng):
        for _ in range(25):
            E = float(rng.uniform(-4, 12))
            if abs(xi_background(E, params07)) <= 1.0:
                continue
            u1, u2 = eigenvectors(E, params07)
            N = local_matrix(E, 0.0, params07)
            from ringchain import lambda_pair

            l1, l2 = lambda_pair(E, params07.alpha, params07)
            assert np.abs(N @ u1 - l1 * u1).max() <= 1e-10 * max(1, abs(l1))
            assert np.abs(N @ u2 - l2 * u2).max() <= 1e-10 * max(1, abs(l2))
            assert not np.allclose(u1, u2)

    def test_inside_band_raises(self, params07):
        with pytest.raises(InsideBand):
            eigenvectors(0.4, params07)


class TestReconstruction:
    def test_endpoint_values(self, params07):
        edge = reconstruct_edge(-0.7, 1.0, 0.37, j=2, params=params07, samples=65)
        assert edge.psi[0] == pytest.approx(1.0, abs=1e-14)
        assert edge.psi[-1] == pytest.approx(0.37, abs=1e-13)
        assert edge.phi[0] == pytest.approx(1.0, abs=1e-14)
        assert edge.phi[-1] == pytest.approx(0.37, abs=1e-13)
        assert edge.x[0] == pytest.approx(2 * math.pi)

    def test_zero_data_zero_edge(self, params07):
        edge = reconstruct_edge(-0.7, 0.0, 0.0, j=0, params=params07)
        assert np.abs(edge.psi).max() == 0.0
        assert np.abs(edge.phi).max() == 0.0

    def test_samples_and_lattice_compared_and_hashed_by_identity(self, params07):
        # equal-valued samples are distinct objects; comparing their arrays
        # would raise numpy's "truth value ... is ambiguous"
        for make in (lambda: reconstruct_edge(-0.7, 1.0, 0.37, j=2, params=params07, samples=65),
                     lambda: bound_state_lattice(-0.7, (-1.0, 0.5), params07)):
            a, b = make(), make()
            assert a == a and a != b
            assert len({a, b, a}) == 2

    def test_no_flux_components_coincide(self):
        p = ChainParams(0.0, 1.0)
        edge = reconstruct_edge(0.05, 0.8, -0.2, j=0, params=p)
        assert np.abs(edge.psi - edge.phi).max() <= 1e-13

    @pytest.mark.parametrize("E", [-1.3, 0.05, 2.3])
    def test_ode_residual(self, params07, E):
        if abs(xi_background(E, params07)) <= 1:
            E += 0.6  # nudge into a gap; values chosen to land there anyway
        samples = 2001
        edge = reconstruct_edge(E, 1.0, 0.4, j=0, params=params07, samples=samples)
        h = edge.x[1] - edge.x[0]
        A = params07.A

        def residual(comp, a_sign):
            d1 = (comp[:-4] - 8 * comp[1:-3] + 8 * comp[3:-1] - comp[4:]) / (12 * h)
            d2 = (-comp[:-4] + 16 * comp[1:-3] - 30 * comp[2:-2] + 16 * comp[3:-1] - comp[4:]) / (
                12 * h * h
            )
            interior = comp[2:-2]
            return np.abs(-d2 - 2j * a_sign * A * d1 + (A * A - E) * interior).max()

        scale = max(np.abs(edge.psi).max(), 1.0) * max(1.0, abs(E), A * A)
        assert residual(edge.psi, +1.0) <= 1e-6 * scale
        assert residual(edge.phi, -1.0) <= 1e-6 * scale

    def test_flat_band_pole(self, params07):
        with pytest.raises(FlatBandPole):
            reconstruct_edge(1.0, 1.0, 0.0, j=0, params=params07)

    def test_csv_rows(self, params07):
        edge = reconstruct_edge(-0.7, 1.0, 0.3, j=0, params=params07, samples=5)
        rows = edge.to_csv_rows()
        assert len(rows) == 5 and len(rows[0]) == 5


class TestVertexConditions:
    def test_true_root_residual_small(self, params06, layout06):
        pattern = PerturbationPattern.single(-2.0)
        state = solve_gap(pattern, layout06.gaps[0], params06)[0]
        lat = bound_state_lattice(state.E, pattern.gammas, params06, margin=8)
        assert vertex_condition_residual(state.E, lat, pattern.gammas, params06) <= 1e-6

    def test_margin_validated(self, params07, layout07):
        # margin 0 read the still-zero last entry as psi_0 (psi_2 twice too
        # large at this state), and margin -1 raised a bare IndexError
        gammas = (-2.0,)
        E = solve_gap(PerturbationPattern(gammas), layout07.gaps[0], params07)[0].E
        for bad in (0, -1, 2.5, 1.0):
            with pytest.raises(InvalidParameter):
                bound_state_lattice(E, gammas, params07, margin=bad)
        psi2 = bound_state_lattice(E, gammas, params07, margin=8).value(2)
        assert bound_state_lattice(E, gammas, params07, margin=1).value(2) == psi2
        assert bound_state_lattice(E, gammas, params07, margin=np.int64(3)).value(2) == psi2

    def test_zero_lattice_zero_residual(self, params06):
        lat = LatticeSolution(E=-0.5, j_start=-2, values=np.zeros(7))
        assert vertex_condition_residual(-0.5, lat, [0.5], params06) == 0.0

    def test_violation_detected(self, params06, layout06):
        pattern = PerturbationPattern.single(-2.0)
        state = solve_gap(pattern, layout06.gaps[0], params06)[0]
        lat = bound_state_lattice(state.E, pattern.gammas, params06, margin=6)
        bad = lat.values.copy()
        bad[len(bad) // 2] *= 1.1  # violate the difference relation at one site
        lat_bad = LatticeSolution(E=state.E, j_start=lat.j_start, values=bad)
        assert vertex_condition_residual(state.E, lat_bad, pattern.gammas, params06) > 1e-3

    def test_difference_relation_inside_window(self, params06, layout06):
        pattern = PerturbationPattern((1.5, -0.5))
        states = solve_gap(pattern, layout06.gaps[0], params06)
        if not states:
            pytest.skip("no state for this pattern in gap 0")
        lat = bound_state_lattice(states[0].E, pattern.gammas, params06, margin=6)
        for j in range(lat.j_start + 1, lat.j_end):
            g = pattern.gammas[j - 1] if 1 <= j <= pattern.m else 0.0
            x = xi(states[0].E, params06.alpha + g, params06)
            lhs = lat.value(j + 1) + lat.value(j - 1)
            assert lhs == pytest.approx(2 * x * lat.value(j), abs=1e-9 * max(1, abs(lat.value(j))))


class TestDecay:
    def test_tail_l2_ratio_matches_multiplier(self, params06, layout06):
        pattern = PerturbationPattern.single(-2.0)
        state = solve_gap(pattern, layout06.gaps[0], params06)[0]
        lam = lambda_small(state.E, params06.alpha, params06)
        lat = bound_state_lattice(state.E, pattern.gammas, params06, margin=8)
        norms = []
        for j in range(pattern.m + 2, pattern.m + 6):  # rings beyond the support
            norms.append(ring_l2_norm(state.E, lat.value(j), lat.value(j + 1), params06) ** 2)
        for a, b in zip(norms, norms[1:]):
            assert b / a == pytest.approx(lam * lam, rel=0.1)


class TestPrintedVertexMatrices:
    """The intermediate vertex-transfer matrices, built only here.

    S(E) propagates (sum of components, sum of their left quasiderivatives)
    across one vertex up to per-ring gauge weights; the compact similarity
    with the lattice matrix N holds exactly at integer flux, while at
    general flux even the traces differ (2*xi*cosApi vs 2*xi), so S is
    validated through its defining transfer property instead.
    """

    @staticmethod
    def S_T(E, coupling, params):
        s, c, cA = s_kernel(E), c_kernel(E), params.cos_flux
        S = np.array([[c + 0.5 * coupling * s, s], [-E * s + 0.5 * coupling * c, c]])
        T = np.array([[cA, 0.0], [c, -s]])
        return S, T

    def test_unimodular(self, params07, rng):
        for _ in range(10):
            E = float(rng.uniform(-3, 3))
            S, T = self.S_T(E, params07.alpha, params07)
            assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-10)

    def test_similarity_at_integer_flux(self, rng):
        p = ChainParams(0.0, 1.3)
        for E in (-0.9, 0.07, 2.45):
            S, T = self.S_T(E, p.alpha, p)
            N = local_matrix(E, 0.0, p)
            lhs = T @ S @ np.linalg.inv(T)
            assert np.abs(lhs - N).max() <= 1e-10 * max(1, np.abs(N).max())

    def test_transfer_property_general_flux(self, params07):
        E, gamma = -0.7, 0.9
        p = params07
        x1 = xi(E, p.alpha + gamma, p)
        psi = [1.0, 0.7]
        psi.append(2 * x1 * psi[1] - psi[0])
        _, dpsi_r0, _, dphi_r0 = edge_quasiderivatives(E, psi[0], psi[1], p)
        _, dpsi_r1, _, dphi_r1 = edge_quasiderivatives(E, psi[1], psi[2], p)
        ph = p.flux_phase
        vec_in = np.array([2 * psi[1], dpsi_r0 + dphi_r0])
        vec_out = np.array([2 * p.cos_flux * psi[2], ph * dpsi_r1 + np.conj(ph) * dphi_r1])
        S, _ = self.S_T(E, p.alpha + gamma, p)
        assert np.abs(S @ vec_in - vec_out).max() <= 1e-10 * max(1, np.abs(vec_out).max())
