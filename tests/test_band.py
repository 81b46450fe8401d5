import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from ringchain import (
    ChainParams,
    CutoffTooSmall,
    HalfIntegerFlux,
    band_edges,
    first_band,
    flat_band_energies,
    flux_regime,
    xi_background,
)
from ringchain import band
from ringchain.band import MAX_CUTOFF, REGIME_HALF_INTEGER, REGIME_MAGNETIC, REGIME_NON_MAGNETIC, half_integer_layout
from ringchain.errors import InvalidParameter
from tests.paper_forms import flat_band_eigenfunction, in_spectrum, quasimomentum


def _assert_gaps_meet_only_on_the_spectrum(layout):
    """Two gaps meet only at a flat band or across a band, of zero width
    where it is narrower than the root tolerance."""
    flats = {fb.E for fb in layout.flat_bands}
    for (_, end), (start, _) in zip(layout.gaps, layout.gaps[1:]):
        if not (end == start and end in flats):
            assert any(end <= lo <= hi <= start for lo, hi in layout.bands), (end, start, layout.bands)


def _scan_grid_reference(cutoff, kappa_floor):
    """The scan grid as built before it became one array expression, one
    np.arange per integer k; _scan_grid must equal it bit for bit."""
    K_STEP, K_REFINE_WINDOW, K_REFINE_STEP = band.K_STEP, band.K_REFINE_WINDOW, band.K_REFINE_STEP
    kappas = np.arange(K_STEP, kappa_floor + K_STEP, K_STEP)
    energies = [-(kappas[::-1] ** 2), np.array([0.0, cutoff])]
    if cutoff > 0:
        kmax = math.sqrt(cutoff)
        ks = [np.arange(K_STEP, kmax + K_STEP, K_STEP)]
        for n in range(1, int(kmax) + 2):
            lo = max(n - K_REFINE_WINDOW, K_REFINE_STEP)
            ks.append(np.arange(lo, min(n + K_REFINE_WINDOW, kmax + K_REFINE_STEP), K_REFINE_STEP))
        k = np.unique(np.concatenate(ks))
        k = k[k <= kmax + K_STEP]
        energies.append(k**2)
    grid = np.unique(np.concatenate(energies))
    return grid[grid <= cutoff]


def _assert_scan_grid_matches_reference(params, cutoff):
    grid = band._scan_grid(params, cutoff)
    ref = _scan_grid_reference(cutoff, band.negative_scan_floor(params))
    assert grid.tobytes() == ref.tobytes(), (params.alpha, cutoff)


# every square up to 200^2 with its float neighbours and its neighbours
# at a relative 1e-15, where the refinement window of the last k is cut
_SQUARE_CUTOFFS = [
    c for n in range(1, 201) for s in [float(n * n)]
    for c in (s, math.nextafter(s, 0.0), math.nextafter(s, math.inf), s * (1 - 1e-15), s * (1 + 1e-15))
]


class TestScanGrid:
    @pytest.mark.parametrize("floor", [1.0, 1.3, 2.7, 20.0])
    @pytest.mark.parametrize("cutoff", [0.0, 1e-9, 0.3, 1.5, 1e6])
    def test_matches_the_loop_construction(self, floor, cutoff):
        # the floor is max(1, |alpha|/2); the grid's first point is the
        # kappa step that reaches it
        p = ChainParams.from_cos_flux(0.7, 2.0 * floor)
        _assert_scan_grid_matches_reference(p, cutoff)
        assert band._scan_grid(p, cutoff)[0] <= -(floor**2)

    @pytest.mark.parametrize("floor", [1.0, 1.3, 2.7, 20.0])
    def test_matches_the_loop_construction_at_squares(self, floor):
        p = ChainParams.from_cos_flux(0.7, 2.0 * floor)
        for cutoff in _SQUARE_CUTOFFS:
            _assert_scan_grid_matches_reference(p, cutoff)

    def test_matches_the_loop_construction_at_random(self, rng):
        for _ in range(300):
            p = ChainParams.from_cos_flux(0.7, rng.uniform(-451.8, 451.8))
            _assert_scan_grid_matches_reference(p, float(10.0 ** rng.uniform(-3.0, 5.0)))


class TestInSpectrum:
    def test_free_chain_positive_energy(self):
        assert in_spectrum(0.5, ChainParams(0.0, 0.0))

    def test_zero_energy_criterion(self):
        p_in = ChainParams.from_cos_flux(0.7, -1.0)
        p_out = ChainParams.from_cos_flux(0.7, 1.0)
        assert in_spectrum(0.0, p_in)       # -1 inside [-2.1645, -0.3820]
        assert not in_spectrum(0.0, p_out)

    def test_half_integer_raises(self):
        with pytest.raises(HalfIntegerFlux):
            in_spectrum(0.5, ChainParams(0.5, 1.0))

    @given(
        st.floats(-0.2, 1.2),
        st.floats(-3.0, 3.0),
        st.floats(-5.0, 24.0),
    )
    def test_membership_invariant_under_flux_shift(self, A, alpha, E):
        p = ChainParams(A, alpha)
        if p.is_half_integer_flux or ChainParams(A + 1.0, alpha).is_half_integer_flux:
            return
        x = xi_background(E, p)
        if abs(abs(x) - 1.0) < 1e-9:
            return  # membership boundary: rounding may legitimately flip
        assert in_spectrum(E, p) == in_spectrum(E, ChainParams(A + 1.0, alpha))


class TestBandEdges:
    def test_bands_inside_integer_squares(self, params07):
        layout = band_edges(params07, 25.0)
        for lo, hi in layout.bands[1:]:
            n = math.floor(math.sqrt(lo))
            assert n * n < lo < hi < (n + 1) * (n + 1)

    def test_tiling_and_interleaving(self, params06, layout06):
        pieces = sorted(
            [(lo, hi, "band") for lo, hi in layout06.bands]
            + [(lo, hi, "gap") for lo, hi in layout06.gaps],
            key=lambda t: (t[0] == -math.inf and -1e30) or t[0],
        )
        kinds = []
        for (lo1, hi1, k1), (lo2, hi2, k2) in zip(pieces, pieces[1:]):
            assert hi1 <= lo2 + 1e-9
            gap_pt = lo2 - hi1
            # pieces either touch or are separated by a single flat energy
            if gap_pt > 1e-9:
                assert any(abs(fb.E - hi1) < 1e-9 or abs(fb.E - lo2) < 1e-9 for fb in layout06.flat_bands) or hi1 == lo2
            kinds.append((k1, k2))
        # bands never touch bands (merged), so same-kind neighbors are split gaps
        assert all(not (a == "band" and b == "band") for a, b in kinds)

    def test_gaps_split_at_flat_energies(self, layout06):
        flats = [fb.E for fb in layout06.flat_bands]
        for lo, hi in layout06.gaps:
            for F in flats:
                assert not (lo + 1e-9 < F < hi - 1e-9)

    def test_gap0_is_semi_infinite(self, layout06):
        assert layout06.gaps[0][0] == -math.inf
        assert layout06.gaps[0][1] == layout06.bands[0][0]

    def test_free_chain_single_band(self):
        layout = band_edges(ChainParams(0.0, 0.0), 10.0)
        assert layout.bands == [(0.0, 10.0)]
        assert layout.gaps == [(-math.inf, 0.0)]
        assert [fb.E for fb in layout.flat_bands] == [1.0, 4.0, 9.0]

    def test_non_magnetic_positive_alpha_upper_edges(self):
        layout = band_edges(ChainParams(0.0, 2.0), 25.0)
        for n, (lo, hi) in enumerate(layout.bands, start=1):
            assert hi == pytest.approx(n * n, abs=1e-9)

    def test_non_magnetic_negative_alpha_lower_edges(self):
        layout = band_edges(ChainParams(0.0, -2.0), 25.0)
        # first band starts below zero; every later band starts at n^2
        assert layout.bands[0][0] < 0.0
        assert 0.0 < layout.bands[0][1] < 1.0  # -8/pi < alpha < 0
        for n, (lo, hi) in enumerate(layout.bands[1:], start=1):
            assert lo == pytest.approx(n * n, abs=1e-9)

    def test_non_magnetic_strongly_negative_alpha(self):
        layout = band_edges(ChainParams(0.0, -3.0), 9.0)
        assert layout.bands[0][1] < 0.0  # alpha < -8/pi pushes the band negative

    @pytest.mark.parametrize("cos_flux", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("alpha", [-10.0, -38.0, -40.0, -100.0])
    def test_first_band_negative_for_deep_alpha(self, cos_flux, alpha):
        # from alpha ~ -38 on, band 0 sits at -alpha^2/16 and is narrower
        # than TOL_ROOT; band_edges used to drop it and list band 1 first
        p = ChainParams.from_cos_flux(cos_flux, alpha)
        layout = band_edges(p, 5.0)
        lo, hi = layout.bands[0]
        assert hi < 0.0 and lo == pytest.approx(-alpha * alpha / 16.0, rel=2e-3)
        assert first_band(p) == pytest.approx((lo, hi), abs=1e-9)
        assert len(layout.bands) == 3   # band 0 and the bands above 1 and 4
        _assert_gaps_meet_only_on_the_spectrum(layout)

    def test_membership_consistency(self, params07, rng):
        layout = band_edges(params07, 25.0)
        for _ in range(1000):
            E = float(rng.uniform(-2.0, 24.5))
            in_band = any(lo <= E <= hi for lo, hi in layout.bands)
            if min(abs(E - e) for band in layout.bands for e in band) < 1e-9:
                continue
            assert in_spectrum(E, params07) == in_band

    def test_gap_widths_shrink_towards_unit_flux(self):
        # both gap pieces inside (1, 4) shrink as |cos A pi| -> 1
        widths = []
        for c in (0.3, 0.5, 0.7, 0.9):
            layout = band_edges(ChainParams.from_cos_flux(c, 1.0), 9.0)
            left = next(g for g in layout.gaps if g[1] == 1.0)
            right = next(g for g in layout.gaps if g[0] == 1.0)
            widths.append((left[1] - left[0], right[1] - right[0]))
        for (l1, r1), (l2, r2) in zip(widths, widths[1:]):
            assert l2 < l1 and r2 < r1

    def test_one_band_two_gap_pieces_per_cell(self, params07):
        layout = band_edges(params07, 25.0)
        for n in range(1, 4):
            lo, hi = float(n * n), float((n + 1) * (n + 1))
            bands_in = [b for b in layout.bands if lo < b[0] and b[1] < hi]
            gaps_in = [g for g in layout.gaps if lo <= g[0] and g[1] <= hi]
            assert len(bands_in) == 1
            assert len(gaps_in) == 2

    def test_band_sliver_below_a_non_square_cutoff(self):
        # the band's lower edge lies between the last scan step and the cutoff
        p = ChainParams.from_cos_flux(-0.15478, 1.28491)
        layout = band_edges(p, 30.0)
        assert abs(xi_background(30.0, p)) <= 1.0
        lo, hi = layout.bands[-1]
        assert lo == pytest.approx(29.9132, abs=1e-4) and hi == 30.0
        assert layout.gaps[-1] == (25.0, lo)

    def test_an_edge_just_below_the_cutoff_ends_its_band(self):
        # the gap sliver between the edge at 49 and the cutoff is narrower
        # than TOL_ROOT, and no piece claims it
        layout = band_edges(ChainParams(0.0, 2.0), 49.0 + 5e-11)
        assert layout.bands[-1][1] == 49.0 and layout.gaps[-1][1] < 49.0

    def test_every_piece_classified_by_xi_below_non_square_cutoffs(self, rng):
        # magnetic chains, so every gap is wide; the piece ending at the
        # cutoff is also classified at the cutoff itself
        for _ in range(200):
            cos_flux = rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0])
            p = ChainParams.from_cos_flux(cos_flux, rng.uniform(-3.0, 3.0))
            cutoff = rng.uniform(5.0, 400.0)
            layout = band_edges(p, cutoff)
            _assert_gaps_meet_only_on_the_spectrum(layout)
            pieces = [(b, True) for b in layout.bands] + [(g, False) for g in layout.gaps if math.isfinite(g[0])]
            for (lo, hi), is_band in pieces:
                for E in [0.5 * (lo + hi)] + ([hi] if hi == cutoff else []):
                    assert (abs(xi_background(E, p)) <= 1.0) == is_band, (cos_flux, p.alpha, cutoff, lo, hi)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffTooSmall):
            band_edges(ChainParams(0.0, 50.0), 0.05)
        with pytest.raises(CutoffTooSmall):
            band_edges(ChainParams(0.0, 1.0), -1.0)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, -math.inf, math.nextafter(MAX_CUTOFF, math.inf), 1e12])
    def test_non_finite_cutoff_rejected(self, cutoff, monkeypatch):
        # a cutoff above MAX_CUTOFF is rejected before any scan grid is built
        monkeypatch.setattr(band, "_scan_grid", None)
        with pytest.raises(InvalidParameter, match="cutoff must be finite and at most"):
            band_edges(ChainParams.from_cos_flux(0.7, 1.0), cutoff)
        with pytest.raises(InvalidParameter, match="cutoff must be finite and at most"):
            half_integer_layout(ChainParams.from_cos_flux(0.0, 1.0), cutoff)
        with pytest.raises(InvalidParameter, match="cutoff must be finite and at most"):
            flat_band_energies(ChainParams.from_cos_flux(0.0, 1.0), cutoff)
        band._check_cutoff(MAX_CUTOFF)

    def test_half_integer_rejected(self):
        with pytest.raises(HalfIntegerFlux):
            band_edges(ChainParams(0.5, 1.0), 10.0)

    def test_json_dict_shape(self, layout06):
        doc = layout06.to_json_dict()
        assert set(doc) == {"regime", "bands", "gaps", "flat"}
        assert doc["gaps"][0][0] is None  # -inf serialized as null
        assert all(set(f) == {"E", "tag"} for f in doc["flat"])


class TestFluxRegime:
    def test_tags(self):
        assert flux_regime(ChainParams(0.5, 0.0)) == REGIME_HALF_INTEGER
        assert flux_regime(ChainParams(2.0, 0.0)) == REGIME_NON_MAGNETIC
        assert flux_regime(ChainParams(0.25, 0.0)) == REGIME_MAGNETIC


class TestFlatBands:
    def test_integer_k_energies(self, params07):
        assert flat_band_energies(params07, 10.0) == [1.0, 4.0, 9.0]

    def test_half_integer_free_root(self):
        p = ChainParams(0.5, 0.0)
        flats = flat_band_energies(p, 1.0)
        assert flats[0] == pytest.approx(0.25, abs=1e-9)  # cos(k pi) = 0 at k = 1/2

    def test_half_integer_alpha4_root(self):
        # independent oracle in momentum: cos(k pi) + (1/k) sin(k pi) = 0
        k_root = brentq(lambda k: math.cos(k * math.pi) + math.sin(k * math.pi) / k, 0.5, 1.0)
        expected = k_root**2
        assert 0.25 < expected < 1.0
        p = ChainParams(0.5, 4.0)
        flats = flat_band_energies(p, 1.0)
        assert flats[0] == pytest.approx(expected, abs=1e-9)

    def test_half_flux_roots_keep_clear_of_the_squares(self, rng):
        # flat_band_energies merges the two series by sorting alone: near
        # n^2 a root lies about 8 n^2/(pi |alpha|) away, 5.6e-3 at E = 1
        # for the largest coupling the scan floor admits
        squares = [float(n * n) for n in range(1, 21)]
        for alpha in [-451.8, 451.8, -1e-3, 1e-3, *rng.uniform(-451.8, 451.8, 60)]:
            for cutoff in (30.0, 400.0):
                flats = flat_band_energies(ChainParams(0.5, alpha), cutoff)
                roots = [E for E in flats if E not in squares]
                assert len(flats) == len(roots) + int(math.sqrt(cutoff)) == len(set(flats))
                assert min(abs(E - s) for E in roots for s in squares) > 1e-3, alpha

    def test_half_integer_includes_integer_series(self):
        p = ChainParams(0.5, 4.0)
        flats = flat_band_energies(p, 10.0)
        for n2 in (1.0, 4.0, 9.0):
            assert any(abs(E - n2) < 1e-9 for E in flats)


def quasiderivative_sum(fb, params):
    """Finite-difference quasiderivative balance at the shared vertex.

    Outgoing derivatives into ring 1 minus incoming from ring 0, each as
    D = d/dx + iA on upper components and d/dx - iA on lower ones; a
    fourth-order one-sided stencil refined once (Richardson) keeps the
    truncation error near 1e-12.
    """

    def deriv(component, ring, at_zero):
        def fd(h):
            xs = np.arange(5) * h if at_zero else math.pi - np.arange(5) * h
            vals = fb.evaluate(component, ring, xs)
            d = (-25 * vals[0] + 48 * vals[1] - 36 * vals[2] + 16 * vals[3] - 3 * vals[4]) / (12 * h)
            return d if at_zero else -d

        return (16.0 * fd(0.005) - fd(0.01)) / 15.0

    A = params.A
    total = 0.0 + 0.0j
    if fb.single_ring:
        # A integer: the support is one ring; both its endpoints are vertices
        for comp, sgn in (("upper", 1j * A), ("lower", -1j * A)):
            total += deriv(comp, 0, True) + sgn * fb.evaluate(comp, 0, 0.0)
            total -= deriv(comp, 0, False) + sgn * fb.evaluate(comp, 0, math.pi)
        return abs(total)
    for comp, sgn in (("upper", 1j * A), ("lower", -1j * A)):
        total += deriv(comp, 1, True) + sgn * fb.evaluate(comp, 1, 0.0)
        total -= deriv(comp, 0, False) + sgn * fb.evaluate(comp, 0, math.pi)
    return abs(total)


class TestFlatBandEigenfunction:
    def test_free_explicit_form(self):
        fb = flat_band_eigenfunction(1, ChainParams(0.0, 0.0), samples=33)
        assert fb.single_ring
        assert np.allclose(fb.upper_left, np.sin(fb.x))
        assert np.allclose(fb.lower_left, -np.sin(fb.x))
        assert np.allclose(fb.upper_right, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("A", [0.0, 0.295, 0.731, 1.0])
    def test_vanishes_at_vertices(self, n, A):
        fb = flat_band_eigenfunction(n, ChainParams(A, 1.0))
        for comp in ("upper_left", "lower_left", "upper_right", "lower_right"):
            arr = getattr(fb, comp)
            assert abs(arr[0]) < 1e-12 and abs(arr[-1]) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("A", [0.0, 0.295, 0.731])
    def test_delta_condition_residual(self, n, A):
        params = ChainParams(A, 1.7)
        fb = flat_band_eigenfunction(n, params)
        assert quasiderivative_sum(fb, params) <= 1e-10

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            flat_band_eigenfunction(0, ChainParams(0.0, 0.0))

    def test_compared_and_hashed_by_identity(self):
        # equal-valued samples are distinct objects; comparing their arrays
        # would raise numpy's "truth value ... is ambiguous"
        a, b = (flat_band_eigenfunction(1, ChainParams(0.3, 1.0)) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestQuasimomentum:
    def test_band_edge_and_center(self):
        p = ChainParams(0.0, 0.0)
        assert quasimomentum(0.0, p) == pytest.approx(0.0, abs=1e-12)   # xi = 1
        assert quasimomentum(0.25, p) == pytest.approx(math.pi / 2)     # xi = 0
        assert quasimomentum(1.0, p) == -math.pi                        # xi = -1

    def test_matches_arccos(self, params07):
        E = 0.5
        x = xi_background(E, params07)
        assert abs(x) <= 1.0
        theta = quasimomentum(E, params07)
        assert math.cos(theta) == pytest.approx(x, abs=1e-14)
        assert -math.pi <= theta < math.pi

    def test_gap_returns_none(self, params07):
        assert quasimomentum(0.05, params07) is None

    def test_example_value(self):
        p = ChainParams(0.0, 0.0)
        # engineer xi = 0.3: cos(k pi) = 0.3
        E = (math.acos(0.3) / math.pi) ** 2
        assert quasimomentum(E, p) == pytest.approx(1.2661036727794992, rel=1e-10)
