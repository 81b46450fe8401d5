"""Spectral layout of the unperturbed periodic operator.

Bands are the closures of {E : |xi(E)| <= 1}; the open complement splits
into gaps, with the convention that a gap is additionally split at every
flat-band energy E = n^2 it contains (the coupling function of a single
impurity is monotone with a single sign on each such piece, and the odd/
even gap counting of the bound-state theorems refers to these pieces).
Gap 0 is the semi-infinite piece below the first band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainParams, c_kernel, find_roots, kernels_vec, on_flat_band, s_kernel, xi_background, xi_vec
from .errors import CutoffTooSmall, HalfIntegerFlux

TOL_ROOT = 1e-10

# scan resolution in momentum units
K_STEP = 1.0 / 64.0
K_REFINE_WINDOW = 1.0 / 16.0
K_REFINE_STEP = 1.0 / 1024.0

REGIME_MAGNETIC = "magnetic"
REGIME_NON_MAGNETIC = "non_magnetic"
REGIME_HALF_INTEGER = "half_integer_flux"

TAG_INTEGER_K = "integer_k"
TAG_HALF_FLUX = "half_flux_root"


def flux_regime(params: ChainParams) -> str:
    if params.is_half_integer_flux:
        return REGIME_HALF_INTEGER
    if params.is_non_magnetic:
        return REGIME_NON_MAGNETIC
    return REGIME_MAGNETIC


def json_endpoint(v: float) -> float | None:
    """An interval end for JSON: semi-infinite ends become null."""
    return None if math.isinf(v) else v


@dataclass(frozen=True)
class FlatBand:
    E: float
    tag: str  # TAG_INTEGER_K or TAG_HALF_FLUX


def _flat_band(E: float) -> FlatBand:
    """The flat band at E: integer_k at E = n^2, a half-flux root elsewhere."""
    return FlatBand(E, TAG_INTEGER_K if on_flat_band(E) else TAG_HALF_FLUX)


@dataclass(frozen=True)
class SpectrumLayout:
    regime: str
    bands: list[tuple[float, float]]   # closed intervals, ascending
    gaps: list[tuple[float, float]]    # open intervals; gaps[0][0] == -inf
    flat_bands: list[FlatBand]
    cutoff: float
    scan_floor: float                  # certified: no band content below

    def gap_index_of(self, E: float) -> int | None:
        for i, (lo, hi) in enumerate(self.gaps):
            if lo < E < hi:
                return i
        return None

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "bands": [[lo, hi] for lo, hi in self.bands],
            "gaps": [[json_endpoint(lo), json_endpoint(hi)] for lo, hi in self.gaps],
            "flat": [{"E": fb.E, "tag": fb.tag} for fb in self.flat_bands],
        }


def in_spectrum(E: float, params: ChainParams) -> bool:
    """Membership of E in the absolutely continuous spectrum: |xi| <= 1.

    Flat-band energies are handled separately and report False here.
    Raises HalfIntegerFlux in the pure-point regime.
    """
    return abs(xi_background(E, params)) <= 1.0


def negative_scan_floor(params: ChainParams) -> float:
    """A kappa value below which |xi| > 1 holds for every more negative E.

    For kappa >= max(1, |alpha|/2) one has
    |xi| >= cosh(kappa*pi) * (1 - |alpha|/(4*kappa)) / |cos A*pi| > 1,
    and the bound is increasing in kappa.
    """
    return max(1.0, 0.5 * abs(params.alpha))


def _scan_grid(params: ChainParams, cutoff: float, kappa_floor: float) -> np.ndarray:
    """Energy grid, uniform in kappa below zero and in k above, refined
    near integer k where band edges cluster."""
    kappas = np.arange(K_STEP, kappa_floor + K_STEP, K_STEP)
    energies = [-(kappas[::-1] ** 2), np.array([0.0])]
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


def _edge_roots(params: ChainParams, grid: np.ndarray) -> list[float]:
    """All roots of xi(E) = +-1 bracketed by sign changes on the grid."""
    vals = xi_vec(grid, params.alpha, params)   # one scan serves both targets
    roots: list[float] = []
    for target in (1.0, -1.0):
        roots += find_roots(lambda _: vals - target, lambda E: xi_background(E, params) - target, grid, TOL_ROOT)
    return sorted(roots)


def band_edges(params: ChainParams, cutoff: float) -> SpectrumLayout:
    """Locate all band edges below cutoff and assemble the layout.

    Raises HalfIntegerFlux in the pure-point regime and CutoffTooSmall
    if no band intersects (-inf, cutoff].
    """
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("band structure undefined at half-integer flux")
    if cutoff <= 0:
        raise CutoffTooSmall("cutoff must be positive")

    kappa_floor = negative_scan_floor(params)
    floor_E = -(kappa_floor**2)
    grid = _scan_grid(params, cutoff, kappa_floor)
    edges = _edge_roots(params, grid)
    if not edges:
        raise CutoffTooSmall(f"no spectral band found below cutoff {cutoff}")

    # classify the intervals between consecutive edges by a midpoint probe
    bounds = [floor_E] + edges + [cutoff]
    bands: list[tuple[float, float]] = []
    gaps: list[tuple[float, float]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo <= TOL_ROOT:
            continue
        mid = 0.5 * (lo + hi)
        if abs(xi_background(mid, params)) <= 1.0:
            bands.append((lo, hi))
        else:
            gaps.append((lo, hi))
    if not bands:
        raise CutoffTooSmall(f"no spectral band found below cutoff {cutoff}")

    # merge bands touching at a point (xi grazes +-1 there; not a gap)
    merged: list[tuple[float, float]] = [bands[0]]
    for lo, hi in bands[1:]:
        if lo - merged[-1][1] <= TOL_ROOT:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    bands = merged

    # the certified floor extends to -inf
    if gaps and gaps[0][0] == floor_E:
        gaps[0] = (-math.inf, gaps[0][1])
    elif bands[0][0] == floor_E:
        # cannot happen: floor is certified gap territory
        raise CutoffTooSmall("scan floor landed inside a band")

    flats = flat_band_energies(params, cutoff)

    # split gaps at interior flat-band energies
    split: list[tuple[float, float]] = []
    for lo, hi in gaps:
        interior = [F for F in flats if lo + TOL_ROOT < F < hi - TOL_ROOT]
        pieces = [lo] + interior + [hi]
        split.extend((a, b) for a, b in zip(pieces[:-1], pieces[1:]))
    gaps = split

    return SpectrumLayout(
        regime=flux_regime(params),
        bands=bands,
        gaps=gaps,
        flat_bands=[_flat_band(F) for F in flats],
        cutoff=cutoff,
        scan_floor=floor_E,
    )


def half_integer_layout(params: ChainParams, cutoff: float) -> SpectrumLayout:
    """The pure-point layout at half-integer flux: no bands or gaps, only
    the flat bands below cutoff."""
    return SpectrumLayout(
        regime=REGIME_HALF_INTEGER,
        bands=[],
        gaps=[],
        flat_bands=[_flat_band(F) for F in flat_band_energies(params, cutoff)],
        cutoff=cutoff,
        scan_floor=-(negative_scan_floor(params) ** 2),
    )


def first_band(params: ChainParams) -> tuple[float, float]:
    """Edges of the lowest spectral band only (fast path for sweeps)."""
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("band structure undefined at half-integer flux")
    kappa_floor = negative_scan_floor(params)
    cutoff = 1.5
    while cutoff <= 130.0:
        grid = _scan_grid(params, cutoff, kappa_floor)
        edges = _edge_roots(params, grid)
        if len(edges) >= 2:
            return edges[0], edges[1]
        cutoff *= 4.0
    raise CutoffTooSmall("first band not found below E = 130")


def flat_band_energies(params: ChainParams, cutoff: float) -> list[float]:
    """Energies of the infinitely degenerate eigenvalues below cutoff.

    Magnetic and non-magnetic regimes: {n^2 : n in N}.  Half-integer
    flux: additionally the roots of c_kernel(E) + (alpha/4) s_kernel(E)
    (the whole spectrum is pure point there).
    """
    flats = [float(n * n) for n in range(1, int(math.sqrt(max(cutoff, 0.0))) + 1) if n * n <= cutoff]
    if not params.is_half_integer_flux:
        return flats

    def numerator_vec(E):
        c, s = kernels_vec(E)
        return c + 0.25 * params.alpha * s

    roots = find_roots(numerator_vec, lambda E: c_kernel(E) + 0.25 * params.alpha * s_kernel(E),
                       _scan_grid(params, cutoff, negative_scan_floor(params)), TOL_ROOT)
    merged = sorted(set(roots) | set(flats))
    # drop duplicates within tolerance
    out: list[float] = []
    for E in merged:
        if not out or E - out[-1] > TOL_ROOT:
            out.append(E)
    return out


def quasimomentum(E: float, params: ChainParams) -> float | None:
    """Bloch phase theta in [-pi, pi) with cos(theta) = xi(E); None in gaps.

    The two Floquet roots are e^{+-i theta}; the non-negative one is
    returned (theta = -pi stands for xi = -1).
    """
    x = xi_background(E, params)
    if abs(x) > 1.0:
        return None
    theta = math.acos(max(-1.0, min(1.0, x)))
    return -math.pi if theta >= math.pi else theta


@dataclass(frozen=True)
class FlatBandEigenfunction:
    """Sampled compactly supported eigenfunction at E = n^2.

    Components live on one ring (integer flux) or two adjacent rings,
    each parametrized by x in [0, pi]; 'upper'/'lower' distinguish the
    two halfcircles.  Vanishes at every vertex.
    """

    n: int
    params: ChainParams
    x: np.ndarray
    upper_left: np.ndarray
    lower_left: np.ndarray
    upper_right: np.ndarray
    lower_right: np.ndarray
    single_ring: bool

    def evaluate(self, component: str, ring: int, x) -> np.ndarray:
        """Analytic values of one component; usable for refinement studies."""
        x = np.asarray(x, dtype=float)
        A, n = self.params.A, self.n
        sin_nx = np.sin(n * x)
        if ring == 0:
            if component == "upper":
                return np.exp(-1j * A * x) * sin_nx
            return -np.exp(1j * A * x) * sin_nx
        if self.single_ring:
            return np.zeros_like(x, dtype=complex)
        if component == "upper":
            return (-1.0) ** (n + 1) * np.exp(1j * A * (math.pi - x)) * sin_nx
        return (-1.0) ** n * np.exp(1j * A * (x - math.pi)) * sin_nx


def flat_band_eigenfunction(n: int, params: ChainParams, samples: int = 257) -> FlatBandEigenfunction:
    """Explicit eigenfunction at E = n^2 on one or two adjacent rings."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = np.linspace(0.0, math.pi, samples)
    single = params.is_non_magnetic
    fb = FlatBandEigenfunction(
        n=n,
        params=params,
        x=x,
        upper_left=np.empty(0),
        lower_left=np.empty(0),
        upper_right=np.empty(0),
        lower_right=np.empty(0),
        single_ring=single,
    )
    object.__setattr__(fb, "upper_left", fb.evaluate("upper", 0, x))
    object.__setattr__(fb, "lower_left", fb.evaluate("lower", 0, x))
    object.__setattr__(fb, "upper_right", fb.evaluate("upper", 1, x))
    object.__setattr__(fb, "lower_right", fb.evaluate("lower", 1, x))
    return fb
