"""Output checks.  Each returns a list of (check, detail) failures; a task
with any failure counts into ``failed``, and a run never stops for one.

The checks rest on properties the package claims, not on its own numbers:
the structural band count (one band per cell (n^2, (n+1)^2)), the golden
fig3 bytes, monotone first-band edges in alpha, roots strictly inside
their gap with a sign change of the characteristic function across them,
the rank bound on states per gap piece, the exact single-impurity counts
of acceptance criterion 4 (magnetic chains), the weak-coupling existence
law, and the oracle's own match tolerances.
"""

from __future__ import annotations

import math

from ringchain import asymptotics, band, crosscheck, impurity
from ringchain.core import ChainParams, f_single, lambda_small
from ringchain.errors import RingChainError

from .execute import ORACLE_LAYOUT_CUTOFF, ORACLE_M_LEVELS
from .workloads import STATES_CUTOFF, Task

# Failure names given only to confirmed defects of the current code.  A task
# with one counts into `failed`, but does not make the run report incorrect
# output; the same check failing outside the confirmed condition gets its
# plain name and does.  Two are of ROADMAP open item 3's kind (a fixed scan
# grid silently loses what lies between two grid points):
#   band_count_narrow_gap: a non-magnetic chain with |alpha| below
#     NARROW_GAP_ALPHA has gaps narrower than band_edges' 1/1024 refinement
#     step, and a missing band is merged away (23,760 draws: 86 failures,
#     all non-magnetic, largest |alpha| 0.115, at cutoff 400).
#   distant_pair_one_cell: distant_solve finds no state for unequal
#     strengths, and a finer scan finds two states with no point of
#     distant_solve's own scan grid between them.
# And one of the cross-check's own:
#   oracle_unverified_root: a root converged, but run_cases' spurious-state
#     check failed because it compares the oracle's states in the window
#     only with the (at most two) verified roots; a third characteristic
#     root of the same gap inside the window counts as spurious.  Given
#     every root of the gap, the same check passes, within UNVERIFIED_TOL:
#     a root too close to a band edge to be admissible decays too slowly
#     for the chain, so its oracle state sits off it by more than the raw
#     tolerance (seen: 1.6e-4, for a root 0.002 below the band edge).
KNOWN_DEFECTS = frozenset({"band_count_narrow_gap", "distant_pair_one_cell", "oracle_unverified_root"})
NARROW_GAP_ALPHA = 0.15
DISTANT_SCAN_POINTS = 400       # asymptotics._bracket_on_gap's base grid
REFERENCE_SCAN_POINTS = 6000    # the finer scan that confirms the missed pair
UNVERIFIED_TOL = 10 * crosscheck.TOL_RAW

SIGN_STEP = 1e-9   # relative half-width of the sign-change probe around a root


def _params(cos_flux: float, alpha: float) -> ChainParams:
    return ChainParams.from_cos_flux(cos_flux, alpha)


def _is_magnetic(cos_flux: float) -> bool:
    return abs(abs(cos_flux) - 1.0) > 1e-12


def check_layout(task: Task, out) -> list[tuple[str, str]]:
    cos_flux, alpha, cutoff = task.args
    layout, first = out
    fails = []
    edges = [e for band in layout.bands for e in band]
    if not all(a < b for a, b in zip(edges, edges[1:])):
        fails.append(("band_order", f"edges not strictly ascending: {edges}"))
    cells = round(math.sqrt(cutoff))
    structural = len(layout.bands) == cells
    if not structural:
        narrow = not _is_magnetic(cos_flux) and abs(alpha) < NARROW_GAP_ALPHA
        name = "band_count_narrow_gap" if narrow and len(layout.bands) < cells else "band_count"
        fails.append((name, f"{len(layout.bands)} bands below {cutoff}, structure gives {cells}"))
    lo, hi = layout.bands[0]
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    # a dropped gap merges band 0 into the next one, so its upper edge is
    # comparable only when the band count is right
    if abs(first[0] - lo) > tol or (structural and abs(first[1] - hi) > tol):
        fails.append(("first_band", f"first_band {first} vs band_edges {layout.bands[0]}"))
    return fails


def check_fig3(out, golden: bytes) -> list[tuple[str, str]]:
    code, text = out
    if code != 0 or text.encode() != golden:
        return [("fig3_bytes", f"exit {code}, {len(text.encode())} bytes differ from the golden file")]
    return []


def check_sweep(task: Task, out) -> list[tuple[str, str]]:
    _, _, n, _ = task.args
    code, text = out
    rows = [line.split(",") for line in text.splitlines()[2:]]
    if code != 0 or len(rows) != n:
        return [("sweep_rows", f"exit {code}, {len(rows)} rows for {n} alphas")]
    lows = [float(r[1]) for r in rows]
    highs = [float(r[2]) for r in rows]
    if not all(a < b for a, b in zip(lows, lows[1:])) or not all(a < b for a, b in zip(highs, highs[1:])):
        return [("sweep_monotone", "band-0 edges do not increase with alpha")]
    return []


def _sign_change(func, E: float, room: float) -> bool:
    """True iff func changes sign (or vanishes) across a small interval
    around E of half-width below `room`."""
    h = min(SIGN_STEP * max(1.0, abs(E)), 0.5 * room)
    try:
        return func(E - h) * func(E + h) <= 0.0
    except RingChainError:
        return False


def _check_roots(Es, gap, funcs, split_at_neighbours=True) -> list[tuple[str, str]]:
    """Roots inside the gap, each with a sign change of one of funcs in an
    interval that reaches no gap edge (nor, if split_at_neighbours, a
    neighbouring root)."""
    fails = []
    points = sorted(Es)
    for i, E in enumerate(points):
        if not gap[0] < E < gap[1]:
            fails.append(("state_in_gap", f"E = {E!r} outside gap {gap}"))
            continue
        lo = points[i - 1] if i > 0 and split_at_neighbours else gap[0]
        hi = points[i + 1] if i + 1 < len(points) and split_at_neighbours else gap[1]
        if not any(_sign_change(f, E, min(E - lo, hi - E)) for f in funcs):
            fails.append(("state_residual", f"no sign change across E = {E!r}"))
    return fails


def check_states(task: Task, out) -> list[tuple[str, str]]:
    cos_flux, alpha, gammas = task.args
    layout, states = out
    p = _params(cos_flux, alpha)
    pattern = impurity.PerturbationPattern(gammas)
    fails = []
    counts = [0] * len(layout.gaps)
    for i, gap in enumerate(layout.gaps):
        Es = [s.E for s in states if s.gap_index == i]
        counts[i] = len(Es)
        fails += _check_roots(Es, gap, [lambda E: impurity.char_residual(E, pattern, p)])
    rank = sum(1 for g in gammas if g != 0.0)
    if max(counts, default=0) > rank:
        fails.append(("rank_bound", f"{max(counts)} states in one gap piece from rank {rank}"))
    if len(gammas) == 1 and _is_magnetic(cos_flux):
        full = [i for i, gap in enumerate(layout.gaps) if gap[1] < STATES_CUTOFF]
        expect = [1 if (i % 2 == 0) == (gammas[0] < 0) else 0 for i in full]
        got = [counts[i] for i in full]
        if got != expect:
            fails.append(("single_counts", f"per-gap counts {got}, criterion 4 gives {expect}"))
    return fails


def check_weak(task: Task, out) -> list[tuple[str, str]]:
    cos_flux, alpha, gammas, eps_list = task.args
    gap, per_eps = out
    binds = sum(gammas) < 0
    fails = []
    for eps, (pred, exact) in zip(eps_list, per_eps):
        if (len(exact) > 0) != binds or (pred is not None) != binds:
            fails.append(("weak_existence", f"eps={eps}: sum={sum(gammas)!r}, predictor {pred}, {len(exact)} exact states"))
        fails += [("state_in_gap", f"E = {s.E!r} outside gap {gap}") for s in exact if not gap[0] < s.E < gap[1]]
    return fails


def _distant_branch(p: ChainParams, gamma: float, n: int, sign: float):
    def g(E: float) -> float:
        return f_single(E, p) - gamma * (1.0 + sign * abs(lambda_small(E, p.alpha, p)) ** (n + 1))

    return g


def _pair_in_one_cell(pair: asymptotics.DistantPair, gap, p: ChainParams) -> bool:
    """True iff a finer scan finds exactly two states and no point of
    distant_solve's own scan grid lies between them, so that its sign scan
    cannot see either."""
    pattern = pair.pattern()
    found = impurity.solve_gap(pattern, gap, p, grid_points=REFERENCE_SCAN_POINTS)
    if len(found) != 2:
        return False
    lo = impurity.gap0_scan_floor(pattern, p) if math.isinf(gap[0]) else gap[0]
    grid = impurity._gap_grid(lo, gap[1], DISTANT_SCAN_POINTS)
    return not any(found[0].E < E < found[1].E for E in grid)


def check_distant(task: Task, out) -> list[tuple[str, str]]:
    cos_flux, alpha, g1, g2, separations = task.args
    gap, per_n = out
    p = _params(cos_flux, alpha)
    fails = []
    for n, states in zip(separations, per_n):
        pair = asymptotics.DistantPair(g1, g2, n)
        # two attractive vertices bind at least one state below the first
        # band, and a rank-2 perturbation at most two per gap
        if not states:
            name = "distant_pair_one_cell" if g1 != g2 and _pair_in_one_cell(pair, gap, p) else "distant_missed"
            fails.append((name, f"n={n}: no state"))
        elif len(states) > 2:
            fails.append(("distant_count", f"n={n}: {len(states)} states"))
        Es = [s.E for s in states]
        if g1 == g2:
            # equal strengths factor into two branches with one simple root
            # each; at wide separation the two roots agree to the last bit
            fails += _check_roots(Es, gap, [_distant_branch(p, g1, n, +1.0), _distant_branch(p, g1, n, -1.0)],
                                  split_at_neighbours=False)
        else:
            fails += _check_roots(Es, gap, [lambda E: asymptotics.distant_residual(E, pair, p)])
    return fails


def _spurious_are_unverified_roots(r: crosscheck.CaseResult) -> bool:
    """True iff the cross-check's own spurious-state check passes once it
    is given every characteristic root of the gap, not only the verified
    ones (with UNVERIFIED_TOL)."""
    p = _params(r.cos_flux, r.alpha)
    layout = band.band_edges(p, ORACLE_LAYOUT_CUTOFF)
    gap = layout.gaps[r.gap_index]
    window = crosscheck._gap_window(gap, layout, r.E_char)
    roots = [s.E for s in impurity.solve_gap(impurity.PerturbationPattern(r.gammas), gap, p)]
    return crosscheck._check_spurious(p, r.gammas, r.n_rings, max(ORACLE_M_LEVELS), window, roots, UNVERIFIED_TOL)


def check_oracle(results) -> list[tuple[str, str]]:
    fails = []
    for r in results:
        if r.matched:
            continue
        converged = r.err_raw <= crosscheck.TOL_RAW and r.err_rich <= crosscheck.TOL_RICH
        name = "oracle_unverified_root" if converged and _spurious_are_unverified_roots(r) else "oracle_match"
        fails.append((name, f"gap {r.gap_index}, E_char={r.E_char!r}: raw error {r.err_raw:.3g}, "
                            f"extrapolated {r.err_rich:.3g}, spurious_ok={r.spurious_ok}"))
    return fails


def check_task(task: Task, out, golden: bytes) -> list[tuple[str, str]]:
    if task.kind == "fig3":
        return check_fig3(out, golden)
    if task.kind == "sweep":
        return check_sweep(task, out)
    if task.kind == "layout":
        return check_layout(task, out)
    if task.kind == "states":
        return check_states(task, out)
    if task.kind == "weak":
        return check_weak(task, out)
    if task.kind == "distant":
        return check_distant(task, out)
    return check_oracle(out)
