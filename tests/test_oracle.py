import math

import numpy as np
import pytest

from ringchain import (
    ChainParams,
    DimensionOverflow,
    PerturbationPattern,
    TruncatedChain,
    assemble,
    band_edges,
    convergence_study,
    lambda_small,
    low_spectrum,
    solve_gap,
    spectrum_window,
)
from ringchain.oracle import eigenvector_ring_norms, localization_scores, richardson_limit


@pytest.fixture(scope="module")
def p06():
    return ChainParams.from_cos_flux(0.6, 1.0)


@pytest.fixture(scope="module")
def gap0_state(p06):
    layout = band_edges(p06, 12.0)
    state = solve_gap(PerturbationPattern.single(-2.0), layout.gaps[0], p06)[0]
    return layout, state


class TestAssembly:
    def test_hermitian(self, p06):
        op = assemble(TruncatedChain(9, 64, p06), [-1.5])
        K, M = op.to_dense()
        assert np.abs(K - K.conj().T).max() <= 1e-12
        assert np.abs(M - M.conj().T).max() <= 1e-12

    def test_mass_positive_definite(self, p06):
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        _, M = op.to_dense()
        assert np.linalg.eigvalsh(M).min() > 0

    def test_dimension(self, p06):
        chain = TruncatedChain(9, 64, p06)
        assert chain.dim == 2 * 9 * 63 + 8
        assert assemble(chain, [0.0]).dim == chain.dim

    def test_validation(self, p06):
        with pytest.raises(ValueError):
            TruncatedChain(8, 64, p06)   # even ring count
        with pytest.raises(ValueError):
            TruncatedChain(9, 32, p06)   # too coarse
        with pytest.raises(DimensionOverflow):
            assemble(TruncatedChain(9, 64, p06, max_dim=100), [0.0])
        with pytest.raises(ValueError):
            TruncatedChain(7, 64, p06).pattern_start(3)  # 7 < 3 + 6

    def test_free_chain_nonnegative(self):
        p = ChainParams(0.0, 0.0)
        op = assemble(TruncatedChain(9, 64, p), [0.0])
        vals = low_spectrum(op, 5)
        assert vals[0] >= -1e-10

    def test_gauge_period_exact(self):
        a = assemble(TruncatedChain(9, 64, ChainParams(0.25, 1.0)), [-1.5])
        b = assemble(TruncatedChain(9, 64, ChainParams(1.25, 1.0)), [-1.5])
        va, vb = low_spectrum(a, 8), low_spectrum(b, 8)
        assert np.abs(va - vb).max() <= 1e-8


class TestSpectra:
    def test_band_clustering_unperturbed(self, p06):
        layout = band_edges(p06, 10.0)
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        vals, vecs = spectrum_window(op, -1.0, 3.2)
        scores = localization_scores(op, vecs)
        slack = 1e-3
        for E, score in zip(vals, scores):
            in_band = any(lo - slack <= E <= hi + slack for lo, hi in layout.bands)
            near_flat = any(abs(E - fb.E) < 0.05 for fb in layout.flat_bands)
            assert in_band or near_flat or score > 0.5

    def test_flat_band_cluster(self, p06):
        chain = TruncatedChain(9, 64, p06)
        op = assemble(chain, [0.0])
        vals, _ = spectrum_window(op, 0.9, 1.1)
        close = [v for v in vals if abs(v - 1.0) < 10.0 * (math.pi / 64) ** 2]
        assert len(close) >= chain.n_rings - 2

    def test_flat_cluster_tightens_quadratically(self, p06):
        spreads = []
        for M in (64, 128):
            op = assemble(TruncatedChain(9, M, p06), [0.0])
            vals, _ = spectrum_window(op, 0.9, 1.1)
            spreads.append(np.abs(np.array(vals) - 1.0).max())
        assert spreads[1] <= spreads[0] / 2.5  # roughly M^-2

    def test_impurity_state_matches_char_equation(self, p06, gap0_state):
        layout, state = gap0_state
        op = assemble(TruncatedChain(15, 128, p06), [-2.0])
        vals, vecs = spectrum_window(op, state.E - 0.1, state.E + 0.1)
        scores = localization_scores(op, vecs)
        bulk = [v for v, s in zip(vals, scores) if s <= 0.5]
        assert len(bulk) == 1
        assert abs(bulk[0] - state.E) <= 1e-4

    def test_low_spectrum_count_limits(self, p06):
        op = assemble(TruncatedChain(9, 64, p06), [0.0])
        with pytest.raises(ValueError):
            low_spectrum(op, 0)
        with pytest.raises(ValueError):
            low_spectrum(op, 51)

    def test_dense_and_sparse_paths_agree(self, p06):
        # dim 1142 uses the dense path; compare to a forced sparse solve
        import scipy.sparse.linalg as spla

        op = assemble(TruncatedChain(9, 64, p06), [-2.0])
        dense_vals = low_spectrum(op, 6)
        K, M = op.to_sparse()
        sparse_vals = np.sort(
            spla.eigsh(K, k=6, M=M, sigma=-9.0, which="LM", return_eigenvectors=False)
        )
        assert np.abs(dense_vals - sparse_vals).max() <= 1e-8

    def test_sparse_path_repeats_exactly(self, p06):
        # dim 1396 is above DENSE_LIMIT, so both calls go through ARPACK
        op = assemble(TruncatedChain(11, 64, p06), [-2.0])
        assert np.array_equal(low_spectrum(op, 4), low_spectrum(op, 4))
        (v1, _), (v2, _) = (spectrum_window(op, -3.0, 0.5) for _ in range(2))
        assert len(v1) > 0 and np.array_equal(v1, v2)


class TestEigenvectorDecay:
    def test_ring_norm_ratio_tracks_multiplier(self, p06, gap0_state):
        _, state = gap0_state
        lam = abs(lambda_small(state.E, p06.alpha, p06))
        op = assemble(TruncatedChain(15, 128, p06), [-2.0])
        vals, vecs = spectrum_window(op, state.E - 0.1, state.E + 0.1)
        scores = localization_scores(op, vecs)
        idx = next(i for i, s in enumerate(scores) if s <= 0.5)
        norms = eigenvector_ring_norms(op, vecs[:, idx])
        # rings just outside the centered perturbation, away from the walls
        center = 7
        for j in range(center + 2, center + 5):
            assert norms[j + 1] / norms[j] == pytest.approx(lam, rel=0.15)


class TestConvergence:
    def test_order_two_and_richardson(self, p06, gap0_state):
        _, state = gap0_state
        study = convergence_study(
            p06, [-2.0], [64, 128, 256], 15, (state.E - 0.1, state.E + 0.1), reference=state.E
        )
        assert study.observed_order == pytest.approx(2.0, abs=0.3)
        assert abs(study.richardson - state.E) <= 1e-6
        assert study.rows[-1].abs_err <= 1e-4
        errs = [r.abs_err for r in study.rows]
        assert errs[0] > errs[1] > errs[2]

    def test_ring_count_saturation(self, p06, gap0_state):
        _, state = gap0_state
        vals = []
        for rings in (9, 13, 17):
            study = convergence_study(
                p06, [-2.0], [64, 96, 128], rings, (state.E - 0.1, state.E + 0.1), reference=state.E
            )
            vals.append(study.richardson)
        # decay rate |lambda| ~ 0.19: each extra 4 rings shrinks the
        # truncation error by orders of magnitude
        assert abs(vals[1] - vals[0]) < 1e-4
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_richardson_limit_exact_quadratic(self):
        hs = [0.4, 0.2, 0.1]
        vals = [1.0 + 3 * h * h for h in hs]
        assert richardson_limit(hs, vals) == pytest.approx(1.0, abs=1e-12)

    def test_requires_three_levels(self, p06, gap0_state):
        _, state = gap0_state
        from ringchain.errors import FitFailed

        with pytest.raises(FitFailed):
            convergence_study(p06, [-2.0], [64, 128], 9, (state.E - 0.1, state.E + 0.1))

    def test_csv_rows(self, p06, gap0_state):
        _, state = gap0_state
        study = convergence_study(
            p06, [-2.0], [64, 96, 128], 9, (state.E - 0.1, state.E + 0.1), reference=state.E
        )
        rows = study.to_csv_rows()
        assert len(rows) == 3 and len(rows[0]) == 5
