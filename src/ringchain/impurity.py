"""Bound states in spectral gaps created by finite coupling perturbations.

The characteristic equation for a pattern gamma_1..gamma_m applied at
consecutive vertices is the quadratic

    Q_{m-1} lambda^2 - (P_{m-1} + Q_m) lambda + P_m = 0

evaluated at lambda = lambda_small(E); its roots inside gap pieces are the
impurity eigenvalues.  Specialized closed forms: one vertex reduces to
f_single(E) = gamma_1, two vertices to the pair f_-/f_+ (depending only on
gamma_1 + gamma_2 and (gamma_1 - gamma_2)^2), and identical arrays to a
cot/tan pair in the Chebyshev angle of xi_1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import band as band_mod
from .core import (
    ChainParams, c_kernel, f_single, find_roots, flat_band_mask, kernels_vec, lambda_small, lambda_small_vec,
    on_flat_band, s_kernel, xi, xi_background, xi_vec,
)
from .errors import FlatBandPole
from .transfer import PQState, pq_advance

EDGE_DISCARD = 1e-8     # roots this close to a gap edge are band, not bound
GRID_POINTS = 600       # base scan resolution per gap piece


@dataclass(frozen=True)
class PerturbationPattern:
    """Coupling increments gamma_1..gamma_m at consecutive vertices."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) < 1:
            raise ValueError("pattern must perturb at least one vertex")
        if not all(math.isfinite(g) for g in self.gammas):
            raise ValueError("pattern entries must be finite")
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
    multiplicity: int = 1


def char_residual(E: float, pattern: PerturbationPattern, params: ChainParams) -> float:
    """Left side of the characteristic equation at lambda = lambda_small(E)."""
    if on_flat_band(E):
        raise FlatBandPole(f"characteristic equation undefined at E = {E}")
    lam = lambda_small(E, params.alpha, params)
    kernels = (c_kernel(E), s_kernel(E))
    state = PQState.seed()
    for g in pattern.gammas:
        state = pq_advance(state, xi(E, params.alpha + g, params, kernels))
    return state.Q_prev * lam * lam - (state.P_prev + state.Q) * lam + state.P


def char_residual_vec(E, pattern: PerturbationPattern, params: ChainParams) -> np.ndarray:
    """char_residual over an array of energies; NaN inside bands and on
    flat bands.  The P/Q recursion advances the whole array per vertex."""
    E = np.asarray(E, dtype=float)
    kernels = kernels_vec(E)
    lam = lambda_small_vec(E, params.alpha, params, kernels)
    state = PQState.seed()
    # long patterns overflow far below the first band, as the scalar recursion does
    with np.errstate(over="ignore", invalid="ignore"):
        for g in pattern.gammas:
            state = pq_advance(state, xi_vec(E, params.alpha + g, params, kernels))
        res = state.Q_prev * lam * lam - (state.P_prev + state.Q) * lam + state.P
    return np.where(flat_band_mask(E), np.nan, res)


def gap0_scan_floor(pattern: PerturbationPattern, params: ChainParams) -> float:
    """Certified lower end for root scans in the semi-infinite gap.

    Lowering every vertex coupling to alpha + min(0, min gamma_j) only
    lowers the quadratic form, so no perturbed eigenvalue can lie below
    the first band of that uniform chain.
    """
    lo, _ = band_mod.first_band(params.with_alpha(params.alpha + min(0.0, min(pattern.gammas))))
    return lo - 1e-6


def _gap_grid(lo: float, hi: float, n_base: int) -> np.ndarray:
    """Scan grid on (lo, hi), geometrically refined toward both edges."""
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


def gap_scan_grid(gap: tuple[float, float], pattern: PerturbationPattern, params: ChainParams,
                  n_base: int) -> np.ndarray:
    """Root-scan grid on a gap piece; gap 0 starts at the pattern's
    certified floor, kept below the piece's upper edge."""
    lo, hi = gap
    if math.isinf(lo):
        lo = min(gap0_scan_floor(pattern, params), hi - 1e-9)
    return _gap_grid(lo, hi, n_base)


def solve_gap(
    pattern: PerturbationPattern,
    gap: tuple[float, float],
    params: ChainParams,
    gap_index: int = 0,
    tol_root: float = 1e-13,
    grid_points: int = GRID_POINTS,
    edge_margin: float = EDGE_DISCARD,
) -> list[ImpurityState]:
    """All characteristic-equation roots strictly inside one gap piece.

    Sign-scans char_residual on an edge-refined grid and bisects each
    bracket; roots within edge_margin of a gap edge are discarded.  Stored
    gap edges carry the band-edge root tolerance, so grid points hugging
    an edge can spill into the band; the scan masks those as NaN.
    """
    roots = find_roots(lambda E: char_residual_vec(E, pattern, params), lambda E: char_residual(E, pattern, params),
                       gap_scan_grid(gap, pattern, params, grid_points), tol_root)
    return interior_states(roots, gap, gap_index, lambda E: char_residual(E, pattern, params), edge_margin)


def interior_states(roots, gap, gap_index: int, residual, edge_margin: float = EDGE_DISCARD) -> list[ImpurityState]:
    """The roots as bound states, except those within edge_margin of a
    gap edge (those are band states, not bound states)."""
    lo, hi = gap
    return [
        ImpurityState(E=r, gap_index=gap_index, residual=abs(residual(r)))
        for r in roots
        if not (math.isfinite(lo) and r - lo < edge_margin) and hi - r >= edge_margin
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


def identical_conditions(E: float, gamma: float, m: int, params: ChainParams) -> tuple[float, float]:
    """Characteristic conditions for m identical impurities of strength gamma.

    Returns the two right-hand sides (cot branch, tan branch); E is a
    bound state iff gamma equals one of them.  The Chebyshev angle phi
    with cos(phi) = xi_1 continues to a hyperbolic branch for |xi_1| > 1;
    interior poles of cot/tan (at most m-2 per gap) surface as +-inf.
    """
    if m < 2:
        raise ValueError("identical-array conditions need m >= 2")
    if on_flat_band(E):
        raise FlatBandPole(f"conditions undefined at E = {E}")
    x1 = xi(E, params.alpha + gamma, params)
    phi = cmath.acos(complex(x1))
    half = 0.5 * (m - 1) * phi
    sin_half, cos_half = cmath.sin(half), cmath.cos(half)
    sin_phi = cmath.sin(phi)
    base = 4.0 * params.cos_flux / s_kernel(E)
    f = f_single(E, params)
    if abs(sin_half) < 1e-300:
        cot_branch = math.copysign(math.inf, -base)
    else:
        cot_branch = f - base * (cos_half / sin_half * sin_phi).real
    if abs(cos_half) < 1e-300:
        tan_branch = math.copysign(math.inf, base)
    else:
        tan_branch = f + base * (sin_half / cos_half * sin_phi).real
    return cot_branch, tan_branch


def count_states_per_gap(
    pattern: PerturbationPattern,
    layout: band_mod.SpectrumLayout,
    params: ChainParams,
) -> list[int]:
    """Number of bound states in each gap piece of the layout."""
    return [
        len(solve_gap(pattern, gap, params, gap_index=i))
        for i, gap in enumerate(layout.gaps)
    ]


def all_states(
    pattern: PerturbationPattern,
    layout: band_mod.SpectrumLayout,
    params: ChainParams,
) -> list[ImpurityState]:
    states: list[ImpurityState] = []
    for i, gap in enumerate(layout.gaps):
        states.extend(solve_gap(pattern, gap, params, gap_index=i))
    return states


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
