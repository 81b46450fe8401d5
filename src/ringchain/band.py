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

from .core import ChainParams, find_roots, kernels, on_flat_band, xi_background
from .errors import CutoffTooSmall, HalfIntegerFlux, InvalidParameter

TOL_ROOT = 1e-10

# scan resolution in momentum units
K_STEP = 1.0 / 64.0
K_REFINE_WINDOW = 1.0 / 16.0
K_REFINE_STEP = 1.0 / 1024.0
# largest cutoff accepted: the scan grid holds about 184*sqrt(cutoff) points
MAX_CUTOFF = 1e6
# largest kappa*pi whose exponential, and so cosh and sinh, is a finite float
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

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

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "bands": [[lo, hi] for lo, hi in self.bands],
            "gaps": [[json_endpoint(lo), json_endpoint(hi)] for lo, hi in self.gaps],
            "flat": [{"E": fb.E, "tag": fb.tag} for fb in self.flat_bands],
        }


def negative_scan_floor(params: ChainParams) -> float:
    """A kappa value below which |xi| > 1 holds for every more negative E.

    For kappa >= max(1, |alpha|/2) one has
    |xi| >= cosh(kappa*pi) * (1 - |alpha|/(4*kappa)) / |cos A*pi| > 1,
    and the bound is increasing in kappa.  Raises InvalidParameter where
    cosh(kappa*pi) overflows a float at that kappa, for |alpha| above
    2 ln(DBL_MAX)/pi = 451.86: no scan can evaluate xi down to it.
    """
    kappa = max(1.0, 0.5 * abs(params.alpha))
    if kappa * math.pi > _LOG_FLOAT_MAX:
        raise InvalidParameter(f"coupling {params.alpha} out of range: cosh(|coupling|*pi/2) overflows "
                               f"a float above |coupling| = {2.0 * _LOG_FLOAT_MAX / math.pi:.6g}")
    return kappa


def _scan_grid(params: ChainParams, cutoff: float) -> np.ndarray:
    """Energy grid from the certified floor, -kappa^2 at the kappa step
    that reaches negative_scan_floor(params), to the cutoff, so that an edge
    past the last step is bracketed: uniform in kappa below zero and in k
    above, refined within K_REFINE_WINDOW of every integer k."""
    kappa_floor = negative_scan_floor(params)
    kmax = math.sqrt(max(cutoff, 0.0))
    kappas = np.arange(K_STEP, kappa_floor + K_STEP, K_STEP)
    ks = np.arange(K_STEP, kmax + K_STEP, K_STEP)
    refined = np.arange(1.0, int(kmax) + 2)[:, None] + np.arange(-K_REFINE_WINDOW, K_REFINE_WINDOW, K_REFINE_STEP)
    grid = np.unique(np.concatenate([-(kappas**2), [0.0, cutoff], ks**2, refined.ravel() ** 2]))
    return grid[grid <= cutoff]


def _edge_roots(params: ChainParams, grid: np.ndarray) -> list[float]:
    """All roots of xi(E) = +-1 bracketed by sign changes on the grid."""
    with np.errstate(over="ignore"):   # xi is +-inf far below band 0 when cos(A*pi) is small
        scan = xi_background(grid, params)   # one scan serves both targets
    roots: list[float] = []
    for target in (1.0, -1.0):
        roots += find_roots(lambda E: (scan if E is grid else xi_background(E, params)) - target, grid, TOL_ROOT)
    return sorted(roots)


def _check_cutoff(cutoff: float) -> None:
    if not (math.isfinite(cutoff) and cutoff <= MAX_CUTOFF):
        raise InvalidParameter(f"cutoff must be finite and at most {MAX_CUTOFF:g}, got {cutoff}")


def band_edges(params: ChainParams, cutoff: float) -> SpectrumLayout:
    """Locate all band edges below cutoff and assemble the layout.

    One _scan_grid brackets the edges, and gap 0 extends from its first
    point, the certified floor, to -inf.  Raises InvalidParameter for a
    non-finite cutoff or one above MAX_CUTOFF and where
    negative_scan_floor does, HalfIntegerFlux in the pure-point regime and
    CutoffTooSmall if no band intersects (-inf, cutoff].
    """
    _check_cutoff(cutoff)
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("band structure undefined at half-integer flux")
    if cutoff <= 0:
        raise CutoffTooSmall("cutoff must be positive")

    grid = _scan_grid(params, cutoff)
    floor_E = float(grid[0])
    edges = _edge_roots(params, grid)
    if not edges:
        raise CutoffTooSmall(f"no spectral band found below cutoff {cutoff}")

    # classify the intervals between consecutive edges by a midpoint probe;
    # the bands are what the gaps leave, down to a point where two gaps meet
    # across a band narrower than TOL_ROOT (band 0 below alpha ~ -38)
    bounds = [floor_E] + edges + [cutoff]
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi - lo > TOL_ROOT]
    gaps = [(lo, hi) for lo, hi in spans if abs(xi_background(0.5 * (lo + hi), params)) > 1.0]
    if not gaps or gaps[0][0] != floor_E:   # cannot happen: the floor is certified gap territory
        raise CutoffTooSmall("scan floor landed inside a band")
    top = spans[-1][1]   # the cutoff, or an edge less than TOL_ROOT below it
    bands = list(zip([hi for _, hi in gaps], [lo for lo, _ in gaps[1:]] + [top]))
    if gaps[-1][1] == top:   # the last gap reaches the top
        bands.pop()
    if not bands:
        raise CutoffTooSmall(f"no spectral band found below cutoff {cutoff}")
    gaps[0] = (-math.inf, gaps[0][1])   # the certified floor extends to -inf

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
    )


def half_integer_layout(params: ChainParams, cutoff: float) -> SpectrumLayout:
    """The pure-point layout at half-integer flux: no bands or gaps, only
    the flat bands below cutoff.  Raises InvalidParameter for a
    non-finite cutoff or one above MAX_CUTOFF."""
    return SpectrumLayout(
        regime=REGIME_HALF_INTEGER,
        bands=[],
        gaps=[],
        flat_bands=[_flat_band(F) for F in flat_band_energies(params, cutoff)],
    )


def first_band(params: ChainParams) -> tuple[float, float]:
    """Edges of the lowest spectral band only (fast path for sweeps): the
    first two edges of the scan below E = 1.5, band_edges' bands[0].

    Raises HalfIntegerFlux in the pure-point regime and InvalidParameter
    where negative_scan_floor does.
    """
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("band structure undefined at half-integer flux")
    # xi runs from sgn(cos A*pi)*inf at E -> -inf to -1/cos(A*pi) at E = 1: band 0 lies below E = 1
    edges = _edge_roots(params, _scan_grid(params, 1.5))
    return edges[0], edges[1]


def flat_band_energies(params: ChainParams, cutoff: float) -> list[float]:
    """Energies of the infinitely degenerate eigenvalues below cutoff.

    Magnetic and non-magnetic regimes: {n^2 : n in N}.  Half-integer
    flux: additionally the roots of c_kernel(E) + (alpha/4) s_kernel(E)
    (the whole spectrum is pure point there).  The two series never
    meet, so they merge by sorting: for |alpha| up to the floor's 451.86,
    each root lies more than 5.6e-3, about 8 n^2/(pi*|alpha|), from every
    n^2.  Raises InvalidParameter for a non-finite cutoff or one above
    MAX_CUTOFF and where negative_scan_floor does.
    """
    _check_cutoff(cutoff)
    flats = [float(n * n) for n in range(1, int(math.sqrt(max(cutoff, 0.0))) + 1) if n * n <= cutoff]
    if not params.is_half_integer_flux:
        return flats

    def numerator(E):
        c, s = kernels(E)
        return c + 0.25 * params.alpha * s

    return sorted(find_roots(numerator, _scan_grid(params, cutoff), TOL_ROOT) + flats)
