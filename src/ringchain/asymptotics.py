"""Weak-coupling and distant-impurity analyses.

Weak perturbations eps*gamma_1..eps*gamma_m create a state below the first
band iff sum(gamma_j) < 0; its distance from the adjacent band edge closes
like eps^2 because the single-impurity coupling function behaves like a
square root at band edges.  Two impurities separated by n vertices couple
through the factor lambda(E)^{2n+2}, so paired levels split at the
exponential rate ln|lambda| per unit separation.

Both limits are single-impurity states: the weak-coupling predictor is the
state of one vertex of strength eps*sum(gamma), and the distant-pair limit
E* that of one vertex of strength gamma.  impurity.solve_gap finds them, as
it finds every bound state; the one scan of this module is distant_solve's,
on the pair's own characteristic equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChainParams, f_single, find_roots, lambda_small
from .errors import FitFailed, InvalidParameter, require_integer
from .impurity import (
    EDGE_DISCARD, ImpurityState, PerturbationPattern, gap_scan_grids, interior_states, solve_gap,
)

R2_REQUIRED = 0.99
SCAN_POINTS = 400       # distant_solve's base scan resolution per gap piece


@dataclass(frozen=True)
class WeakCouplingProblem:
    """Base pattern and the small multiplier applied to it."""

    gammas: tuple[float, ...]
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidParameter("epsilon must lie in (0, 1)")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))

    @property
    def gamma_sum(self) -> float:
        return float(sum(self.gammas))

    def pattern(self) -> PerturbationPattern:
        return PerturbationPattern(self.gammas).scaled(self.epsilon)


@dataclass(frozen=True)
class DistantPair:
    """Two perturbed vertices with n unperturbed vertices between them."""

    gamma1: float
    gamma2: float
    n: int

    def __post_init__(self):
        require_integer(self.n, 0, "separation count n")
        if not (math.isfinite(self.gamma1) and math.isfinite(self.gamma2)):
            raise InvalidParameter("both strengths must be finite")
        if self.gamma1 == 0.0 or self.gamma2 == 0.0:
            raise InvalidParameter("both strengths must be nonzero")

    def pattern(self) -> PerturbationPattern:
        return PerturbationPattern((self.gamma1,) + (0.0,) * self.n + (self.gamma2,))


@dataclass(frozen=True)
class FitReport:
    slope: float
    intercept: float
    r2: float
    points: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r2": self.r2,
            "points": [[x, y] for x, y in self.points],
        }


def _least_squares_line(xs, ys) -> FitReport:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitReport(float(slope), float(intercept), r2, tuple(zip(xs.tolist(), ys.tolist())))


def weak_predictor(
    gap: tuple[float, float],
    problem: WeakCouplingProblem,
    params: ChainParams,
) -> float | None:
    """Leading-order bound-state location: the root of f(E) = eps*sum(gamma),
    the state of one vertex of strength eps*sum(gamma).

    None when the gap piece holds no such state (f is strictly monotone
    there, so at most one exists; a zero strength binds none).
    """
    states = solve_gap(PerturbationPattern.single(problem.epsilon * problem.gamma_sum), gap, params,
                       tol_root=1e-15, edge_margin=0.0)
    return states[0].E if states else None


def weak_exact(
    gap: tuple[float, float],
    problem: WeakCouplingProblem,
    params: ChainParams,
) -> list[ImpurityState]:
    """Ground truth for the predictor: the full characteristic equation
    with pattern eps*gamma.  Edge discarding is relaxed because weak
    states legitimately hug the band edge."""
    return solve_gap(
        problem.pattern(),
        gap,
        params,
        tol_root=1e-15,
        edge_margin=min(EDGE_DISCARD, 1e-11),
    )


def _approached_edge(gap: tuple[float, float], params: ChainParams) -> float:
    """The gap endpoint where |f| -> 0 (a band edge, where weak states
    accumulate); the other endpoint has |f| -> inf (flat band or -inf)."""
    lo, hi = gap
    if math.isinf(lo):
        return hi
    probe = 1e-7 * max(1.0, abs(hi - lo))
    f_lo = abs(f_single(lo + probe, params))
    f_hi = abs(f_single(hi - probe, params))
    return lo if f_lo < f_hi else hi


def weak_gap_distance_scaling(
    gap: tuple[float, float],
    problem: WeakCouplingProblem,
    params: ChainParams,
    eps_list,
) -> FitReport:
    """Fit of log(edge distance) against log(eps); the slope is 2.

    Distances are measured in momentum (sqrt E) when the edge is positive,
    else in energy; either choice leaves the exponent unchanged.
    """
    if len(set(eps_list)) < 4:
        raise FitFailed("need at least 4 distinct epsilon values")
    edge = _approached_edge(gap, params)
    xs, ys = [], []
    for eps in eps_list:
        states = weak_exact(gap, WeakCouplingProblem(problem.gammas, eps), params)
        if not states:
            raise FitFailed(f"no bound state at eps = {eps}")
        E = min((s.E for s in states), key=lambda t: abs(t - edge))
        if edge > 0 and E > 0:
            dist = abs(math.sqrt(E) - math.sqrt(edge))
        else:
            dist = abs(E - edge)
        if dist == 0.0:
            raise FitFailed(f"state indistinguishable from edge at eps = {eps}")
        xs.append(math.log(eps))
        ys.append(math.log(dist))
    fit = _least_squares_line(xs, ys)
    if fit.r2 < R2_REQUIRED:
        raise FitFailed(f"log-log fit R^2 = {fit.r2} < {R2_REQUIRED}")
    return fit


def distant_residual(E, pair: DistantPair, params: ChainParams):
    """(f/gamma_1 - 1)(f/gamma_2 - 1) - lambda^(2n+2) for the distant pair."""
    f = f_single(E, params)
    lam = abs(lambda_small(E, params.alpha, params))
    if pair.n == 0:
        power = lam**2
    else:  # math's exp and log for a float, so that its bits match the float formula
        lib = np if isinstance(lam, np.ndarray) else math
        power = lib.exp((2 * pair.n + 2) * lib.log(lam))
    return (f / pair.gamma1 - 1.0) * (f / pair.gamma2 - 1.0) - power


def _pair_branch(f, lam, pair: DistantPair, sign: float):
    """f - gamma*(1 + sign*|lambda|^(n+1)) for an equal pair."""
    return f - pair.gamma1 * (1.0 + sign * abs(lam) ** (pair.n + 1))


def distant_solve(
    pair: DistantPair,
    gap: tuple[float, float],
    params: ChainParams,
    gap_index: int = 0,
) -> list[ImpurityState]:
    """Roots of the distant-pair characteristic equation in one gap piece.

    Equal strengths factorize exactly into f(E) = gamma*(1 +- |lambda|^(n+1));
    the two branches are solved separately, which keeps exponentially close
    pairs resolvable.  Unequal strengths use a direct sign scan.
    """
    gap_index = require_integer(gap_index, 0, "gap_index")
    # the gap-0 scan floor reads only min(0, gammas), the same for the two
    # strengths as for pair.pattern(), whose n + 2 entries cost memory in n
    grid, _ = gap_scan_grids([gap], PerturbationPattern((pair.gamma1, pair.gamma2)), params, SCAN_POINTS)
    if pair.gamma1 == pair.gamma2:
        roots = []
        for sign in (1.0, -1.0):
            roots += find_roots(
                lambda E: _pair_branch(f_single(E, params), lambda_small(E, params.alpha, params), pair, sign),
                grid, 1e-13)
    else:
        roots = find_roots(lambda E: distant_residual(E, pair, params), grid, 1e-13)
    return interior_states(sorted(roots), gap, gap_index, lambda E: distant_residual(E, pair, params))


def splitting_rate(
    pair_template: DistantPair,
    gap: tuple[float, float],
    params: ChainParams,
    n_list,
) -> tuple[FitReport, float]:
    """Decay rate of the two-level splitting against separation.

    Returns the fit of log|E_+ - E_-| vs n together with the reference
    value ln|lambda(E*)| at the n -> infinity limit E*, the state of one
    vertex of strength gamma (f(E*) = gamma); the fitted slope approaches
    that reference.  Each n is an integer separation, as DistantPair takes.
    """
    if pair_template.gamma1 != pair_template.gamma2:
        raise InvalidParameter("splitting is defined for equal strengths")
    if len(set(n_list)) < 4:
        raise FitFailed("need at least 4 distinct separations")
    gamma = pair_template.gamma1

    limit = solve_gap(PerturbationPattern.single(gamma), gap, params, tol_root=1e-14, edge_margin=0.0)
    if not limit:
        raise FitFailed("no limiting root f(E) = gamma in this gap")
    ref = math.log(abs(lambda_small(limit[0].E, params.alpha, params)))

    xs, ys = [], []
    for n in n_list:
        states = distant_solve(DistantPair(gamma, gamma, n), gap, params)
        if len(states) != 2:
            raise FitFailed(f"expected a split pair at n = {n}, found {len(states)}")
        split = abs(states[1].E - states[0].E)
        if split == 0.0:
            raise FitFailed(f"splitting below resolution at n = {n}")
        xs.append(float(n))
        ys.append(math.log(split))
    fit = _least_squares_line(xs, ys)
    if fit.r2 < R2_REQUIRED:
        raise FitFailed(f"splitting fit R^2 = {fit.r2} < {R2_REQUIRED}")
    return fit, ref
