"""Randomized agreement harness: characteristic equation vs discretization.

Draws chain configurations, solves the characteristic equation in the low
gap pieces, and checks every root against Richardson-extrapolated
eigenvalues of the truncated-chain discretization (and vice versa, after
discarding Dirichlet-truncation edge states).  Chains are sized from the
analytic decay rate so the truncation error stays below the extrapolated
tolerance; states hugging a band edge decay too slowly for any finite
chain and are excluded at the configuration draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import band as band_mod
from . import impurity as impurity_mod
from . import oracle as oracle_mod
from .core import ChainParams, lambda_small
from .errors import RingChainError, SolverNoConvergence

TOL_RAW = 1e-4        # plain finest-grid agreement
TOL_RICH = 1e-6       # Richardson-extrapolated agreement
M_LEVELS = (64, 128, 256)   # points per edge of the refinement study
WINDOW_HALF_WIDTH = 0.08    # eigenvalue search window around a root
LAMBDA_CAP = 0.88     # slowest admissible decay per ring
EDGE_SCORE = 0.5      # localization score above which a state is truncation debris
MAX_EDGE_STATES = 2   # tolerated per gap window


@dataclass(frozen=True)
class CaseResult:
    index: int
    cos_flux: float
    alpha: float
    gammas: tuple[float, ...]
    gap_index: int
    E_char: float
    E_raw: float
    E_rich: float
    err_raw: float
    err_rich: float
    n_rings: int
    spurious_ok: bool

    @property
    def matched(self) -> bool:
        return self.err_raw <= TOL_RAW and self.err_rich <= TOL_RICH and self.spurious_ok


def rings_for(lam_max: float, m: int) -> int:
    """Odd ring count whose truncation tail |lambda|^(2*margin) is ~1e-8."""
    margin = int(math.ceil(18.0 / (2.0 * abs(math.log(lam_max)))))
    margin = min(max(margin, 7), 70)
    n = 2 * margin + m + 2
    return n + 1 if n % 2 == 0 else n


def draw_config(rng: np.random.Generator):
    """One random admissible configuration (both flux regimes, both signs
    of alpha and of the pattern entries)."""
    if rng.uniform() < 0.2:
        cos_flux = 1.0  # non-magnetic
    else:
        cos_flux = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.45, 0.85))
    alpha = float(rng.uniform(-3.0, 3.0))
    m = int(rng.integers(1, 4))
    gammas = tuple(float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.2)) for _ in range(m))
    return ChainParams.from_cos_flux(cos_flux, alpha), gammas


def admissible_roots(params: ChainParams, gammas, layout) -> list:
    """Characteristic roots in gaps 0..2 that a finite chain can resolve."""
    pattern = impurity_mod.PerturbationPattern(gammas)
    roots = []
    for gi, gap in enumerate(layout.gaps[:3]):
        for st in impurity_mod.solve_gap(pattern, gap, params, gap_index=gi):
            lam = abs(lambda_small(st.E, params.alpha, params))
            near_edge = min(
                abs(st.E - gap[1]),
                math.inf if math.isinf(gap[0]) else abs(st.E - gap[0]),
            )
            if lam <= LAMBDA_CAP and near_edge > 0.02:
                roots.append((gi, st, lam))
    return roots


def _gap_window(gap, layout, E):
    """A window around E inside the gap, trimmed away from flat-band
    cluster energies and band edges."""
    flats = {fb.E for fb in layout.flat_bands}
    lo = gap[0] if math.isfinite(gap[0]) else E - 4.0
    hi = gap[1]
    lo += 0.02 if lo in flats else 1e-3
    hi -= 0.02 if hi in flats else 1e-3
    return max(lo, E - WINDOW_HALF_WIDTH), min(hi, E + WINDOW_HALF_WIDTH)


def run_cases(seed: int, n_cases: int) -> list[CaseResult]:
    """Check n_cases random configurations; one result per verified root."""
    rng = np.random.default_rng(seed)
    results: list[CaseResult] = []
    case = 0
    while case < n_cases:
        params, gammas = draw_config(rng)
        try:
            layout = band_mod.band_edges(params, 12.0)
            roots = admissible_roots(params, gammas, layout)
        except RingChainError:
            continue
        if not roots:
            continue
        # limit work per configuration: deepest two roots
        roots = sorted(roots, key=lambda t: t[2])[:2]
        case += 1
        lam_max = max(t[2] for t in roots)
        n_rings = rings_for(lam_max, len(gammas))
        all_char = {}
        for gi, st, lam in roots:
            all_char.setdefault(gi, []).append(st.E)
        for gi, st, lam in roots:
            window = _gap_window(layout.gaps[gi], layout, st.E)
            try:
                study = oracle_mod.convergence_study(
                    params, gammas, M_LEVELS, n_rings, window, reference=st.E
                )
            except SolverNoConvergence:
                results.append(
                    CaseResult(case, params.cos_flux, params.alpha, gammas, gi,
                               st.E, math.nan, math.nan, math.inf, math.inf,
                               n_rings, False)
                )
                continue
            raw = study.rows[-1].E_oracle
            rich = study.richardson
            spurious_ok = _check_spurious(
                params, gammas, n_rings, max(M_LEVELS), window, all_char[gi], TOL_RAW
            )
            results.append(
                CaseResult(
                    index=case,
                    cos_flux=params.cos_flux,
                    alpha=params.alpha,
                    gammas=gammas,
                    gap_index=gi,
                    E_char=st.E,
                    E_raw=raw,
                    E_rich=rich,
                    err_raw=abs(raw - st.E),
                    err_rich=abs(rich - st.E),
                    n_rings=n_rings,
                    spurious_ok=spurious_ok,
                )
            )
    return results


def _check_spurious(params, gammas, n_rings, M, window, char_roots, tol_raw) -> bool:
    """Every non-edge-localized oracle state in the window must match one
    of the characteristic roots; at most MAX_EDGE_STATES edge states
    tolerated (those come from the Dirichlet truncation)."""
    op = oracle_mod.assemble(oracle_mod.TruncatedChain(n_rings, M, params), gammas)
    vals, vecs = oracle_mod.spectrum_window(op, window[0], window[1])
    scores = oracle_mod.localization_scores(op, vecs)
    bulk = vals[scores <= EDGE_SCORE]
    n_edge = int((scores > EDGE_SCORE).sum())
    if n_edge > MAX_EDGE_STATES:
        return False
    return all(min(abs(v - E) for E in char_roots) <= tol_raw for v in bulk)


def summary_line(results: list[CaseResult]) -> str:
    matched = sum(1 for r in results if r.matched)
    return f"{matched}/{len(results)} matched (raw <= {TOL_RAW:g}, extrapolated <= {TOL_RICH:g})"
