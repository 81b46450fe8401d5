"""Bound states in spectral gaps created by finite coupling perturbations.

The characteristic equation for a pattern gamma_1..gamma_m applied at
consecutive vertices is the quadratic

    Q_{m-1} lambda^2 - (P_{m-1} + Q_m) lambda + P_m = 0

evaluated at lambda = lambda_small(E); its roots inside gap pieces are the
impurity eigenvalues.  Specialized closed forms: one vertex reduces to
f_single(E) = gamma_1, and two vertices to the pair f_-/f_+ (depending only
on gamma_1 + gamma_2 and (gamma_1 - gamma_2)^2).  The paper's third, a
cot/tan pair in the Chebyshev angle of xi_1 for identical arrays, is no
code here: the tests hold it as a reference for char_residual's roots.

solve_gaps solves all gap pieces of a pattern with one call of core's root
enumerator, find_roots: one grid and one char_residual scan over every
piece, no bracket across a piece's end, and Brent's method on all the
brackets side by side, each round evaluating every pending abscissa with
one batch_residual call.  batch_residual gives char_residual's float
values bit for bit: the kernels come from math on each float, and the rest
is IEEE arithmetic, which numpy rounds as Python does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import band as band_mod
from .core import ChainParams, f_single, find_roots, gap_surd, kernels, on_flat_band, s_kernel, xi, xi_background
from .errors import FlatBandPole, InvalidParameter, require_integer
from .transfer import PQ_SEED, pq_advance

EDGE_DISCARD = 1e-8     # roots this close to a gap edge are band, not bound
GRID_POINTS = 600       # base scan resolution per gap piece
FLOAT_LANES = 8         # batch_residual evaluates this few floats one by one, not as an array


@dataclass(frozen=True)
class PerturbationPattern:
    """Coupling increments gamma_1..gamma_m at consecutive vertices."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) < 1:
            raise InvalidParameter("pattern must perturb at least one vertex")
        if not all(math.isfinite(g) for g in self.gammas):
            raise InvalidParameter("pattern entries must be finite")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))

    @property
    def m(self) -> int:
        return len(self.gammas)

    @classmethod
    def single(cls, gamma: float) -> "PerturbationPattern":
        return cls((gamma,))

    @classmethod
    def identical(cls, gamma: float, m: int) -> "PerturbationPattern":
        return cls((gamma,) * m)

    def scaled(self, eps: float) -> "PerturbationPattern":
        return PerturbationPattern(tuple(eps * g for g in self.gammas))


@dataclass(frozen=True)
class ImpurityState:
    E: float
    gap_index: int
    residual: float


def char_residual(E, pattern: PerturbationPattern, params: ChainParams):
    """Left side of the characteristic equation at lambda = lambda_small(E);
    over an array, NaN inside bands and on flat bands.  xi is evaluated
    once per distinct coupling."""
    cs = kernels(E)
    by_gamma = {g: xi(E, params.alpha + g, params, cs) for g in set(pattern.gammas)}
    return _quadratic(E, params, cs, [by_gamma[g] for g in pattern.gammas])


def _quadratic(E, params: ChainParams, cs, xis):
    """The characteristic quadratic from the kernels cs and xi_1..xi_m in pattern order."""
    x = xi(E, params.alpha, params, cs)
    sgn, root = gap_surd(E, x)
    lam = sgn / (abs(x) + root)
    P, Q, P_prev, Q_prev = pq_advance(PQ_SEED, xis)
    return Q_prev * lam * lam - (P_prev + Q) * lam + P


def batch_residual(pattern: PerturbationPattern, params: ChainParams):
    """char_residual over a list of floats, as a list, bit for bit; prepared once per
    (pattern, params).  The kernels are math's on each float, then xi over the distinct
    couplings, the surd, pq_advance and the quadratic run on arrays.  At most FLOAT_LANES
    floats go to char_residual one by one, and so does a float whose batch value is NaN,
    so that char_residual's errors (inside a band, on a flat band) are raised."""
    distinct, index = np.unique(np.array(pattern.gammas), return_inverse=True)
    couplings = (params.alpha + distinct)[:, None]

    def residuals(Es: list[float]) -> list[float]:
        if len(Es) <= FLOAT_LANES:
            return [char_residual(x, pattern, params) for x in Es]
        E, cs = np.array(Es), tuple(map(np.array, zip(*map(kernels, Es))))
        with np.errstate(over="ignore", invalid="ignore"):
            values = _quadratic(E, params, cs, xi(E, couplings, params, cs)[index]).tolist()
        return [char_residual(x, pattern, params) if v != v else v for x, v in zip(Es, values)]

    return residuals


def gap0_scan_floor(pattern: PerturbationPattern, params: ChainParams) -> float:
    """Certified lower end for root scans in the semi-infinite gap.

    Lowering every vertex coupling to alpha + min(0, min gamma_j) only
    lowers the quadratic form, so no perturbed eigenvalue can lie below
    the first band of that uniform chain.  Raises InvalidParameter where
    band.negative_scan_floor does for that lowered coupling.
    """
    lo, _ = band_mod.first_band(params.with_alpha(params.alpha + min(0.0, min(pattern.gammas))))
    return lo - 1e-6


def _gap_grids(lo: np.ndarray, hi: np.ndarray, n_base: int) -> np.ndarray:
    """Scan grids on the ascending, disjoint pieces (lo[i], hi[i]), geometrically refined
    toward both edges and concatenated: n_base >= 2 points spaced as np.linspace spaces
    them, bit for bit, and the edge offsets, all strictly inside their piece."""
    lo, hi = lo[:, None], hi[:, None]
    start, stop = lo + 1e-13 * np.maximum(1.0, np.abs(lo)), hi - 1e-13 * np.maximum(1.0, np.abs(hi))
    delta, i = stop - start, np.arange(float(n_base))
    step = delta / (n_base - 1)
    line = np.where(step == 0.0, i / (n_base - 1) * delta, i * step) + start   # np.linspace's two cases
    line[:, -1:] = stop
    offsets = (hi - lo) * np.power(10.0, -np.arange(2.0, 12.5, 0.5))
    pts = np.concatenate([line, lo + offsets, hi - offsets], axis=1)
    return np.unique(pts[(pts > lo) & (pts < hi)])


def _gap_grid(lo: float, hi: float, n_base: int) -> np.ndarray:
    """Scan grid on (lo, hi), geometrically refined toward both edges."""
    return _gap_grids(np.array([lo]), np.array([hi]), n_base)


def gap_scan_grids(gaps, pattern: PerturbationPattern, params: ChainParams, n_base: int):
    """Root-scan grids of ascending gap pieces, concatenated, and where each piece's points
    end; gap 0 starts at the pattern's certified floor, kept below the piece's upper edge.
    Raises InvalidParameter unless the pieces are ascending and disjoint, each lo < hi, with
    no end NaN or infinite but the first piece's lower end, which may be -inf."""
    lo, hi = np.array(gaps, dtype=float).T
    # NaN fails every comparison; a finite hi[k] keeps lo[k + 1] off -inf
    if not (np.all(lo < hi) and np.all(np.isfinite(hi)) and np.all(lo[1:] >= hi[:-1])):
        raise InvalidParameter("gap pieces must be ascending, disjoint intervals lo < hi with finite ends, "
                               "save a lower end -inf on the first")
    if math.isinf(lo[0]):
        lo[0] = min(gap0_scan_floor(pattern, params), hi[0] - 1e-9)
    grid = _gap_grids(lo, hi, n_base)
    return grid, np.searchsorted(grid, hi).tolist()


def solve_gaps(pattern: PerturbationPattern, gaps: Sequence[tuple[float, float]], params: ChainParams,
               gap_index: int = 0, tol_root: float = 1e-13, grid_points: int = GRID_POINTS,
               edge_margin: float = EDGE_DISCARD) -> list[ImpurityState]:
    """All characteristic-equation roots strictly inside each of the ascending, disjoint
    gap pieces, numbered from gap_index (an integer >= 0) on.  One build of all the pieces' grids (grid_points,
    an integer >= 2, per piece) and one find_roots on char_residual over them, with the
    pieces' ends and batch_residual: the roots are those of a piece-by-piece find_roots,
    bit for bit.  Roots within edge_margin (>= 0) of a gap edge are discarded; grid points
    spilling past a stored gap edge (band-edge root tolerance) into the band scan as NaN."""
    gap_index = require_integer(gap_index, 0, "gap_index")
    grid_points = require_integer(grid_points, 2, "grid_points")
    if not 0.0 < tol_root < math.inf:
        raise InvalidParameter(f"tol_root must be finite and > 0, got {tol_root}")
    if not edge_margin >= 0.0:
        raise InvalidParameter(f"edge_margin must be >= 0, got {edge_margin}")
    if not gaps:
        return []
    grid, ends = gap_scan_grids(gaps, pattern, params, grid_points)
    residuals = batch_residual(pattern, params)
    roots = find_roots(lambda E: char_residual(E, pattern, params), grid, tol_root, ends=ends, batch=residuals)
    his = [hi for _, hi in gaps]
    owners = [bisect_right(his, r) for r in roots]   # the piece of each root
    kept = [(gap_index + k, r) for k, r in zip(owners, roots) if _interior(r, gaps[k], edge_margin)]
    column = residuals([r for _, r in kept])
    return [ImpurityState(E=r, gap_index=k, residual=abs(v)) for (k, r), v in zip(kept, column)]


def solve_gap(pattern: PerturbationPattern, gap: tuple[float, float], params: ChainParams,
              gap_index: int = 0, tol_root: float = 1e-13, grid_points: int = GRID_POINTS,
              edge_margin: float = EDGE_DISCARD) -> list[ImpurityState]:
    """All characteristic-equation roots strictly inside one gap piece (see solve_gaps)."""
    return solve_gaps(pattern, [gap], params, gap_index, tol_root, grid_points, edge_margin)


def _interior(r: float, gap, edge_margin: float) -> bool:
    lo, hi = gap
    return not (math.isfinite(lo) and r - lo < edge_margin) and hi - r >= edge_margin


def interior_states(roots, gap, gap_index: int, residual, edge_margin: float = EDGE_DISCARD) -> list[ImpurityState]:
    """The roots as bound states, except those within edge_margin of a
    gap edge (those are band states, not bound states)."""
    return [
        ImpurityState(E=r, gap_index=gap_index, residual=abs(residual(r)))
        for r in roots
        if _interior(r, gap, edge_margin)
    ]


def f_pm(E: float, gamma1: float, gamma2: float, params: ChainParams) -> tuple[float, float]:
    """Two-vertex coupling functions (f_-, f_+).

    A gap energy is a bound state of the pattern (gamma_1, gamma_2) iff
    gamma_1 + gamma_2 equals f_- or f_+; both are strictly increasing on
    every gap piece and do not intersect.  Symmetric under swapping the
    two strengths.
    """
    if on_flat_band(E):
        raise FlatBandPole(f"f_pm undefined at E = {E}")
    s = s_kernel(E)
    x = xi_background(E, params)
    f = f_single(E, params)
    base = 4.0 * params.cos_flux / s
    d = (gamma1 - gamma2) * s / (4.0 * params.cos_flux)
    root = math.sqrt(1.0 + d * d)
    return f - base * (x - root), f - base * (x + root)


def all_states(
    pattern: PerturbationPattern,
    layout: band_mod.SpectrumLayout,
    params: ChainParams,
) -> list[ImpurityState]:
    return solve_gaps(pattern, layout.gaps, params)


def results_json_dict(
    pattern: PerturbationPattern,
    layout: band_mod.SpectrumLayout,
    states: Sequence[ImpurityState],
) -> dict:
    gaps = []
    for i, (lo, hi) in enumerate(layout.gaps):
        here = [s for s in states if s.gap_index == i]
        gaps.append(
            {
                "index": i,
                "interval": [band_mod.json_endpoint(lo), band_mod.json_endpoint(hi)],
                "states": [{"E": s.E, "residual": s.residual} for s in here],
            }
        )
    return {
        "pattern": list(pattern.gammas),
        "regime": layout.regime,
        "gaps": gaps,
    }
