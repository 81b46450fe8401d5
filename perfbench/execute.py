"""Run one generated task through the package's public functions.

Each runner returns the raw outputs the checks need; nothing here judges
them.  ``note(name, n)`` receives the benchmark's own counters (for the
traced run); it is a no-op otherwise.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np
from ringchain import asymptotics, band, cli, crosscheck, impurity, oracle
from ringchain.core import ChainParams

from .workloads import STATES_CUTOFF, Task

ORACLE_LAYOUT_CUTOFF = 12.0     # as in the cross-check
ORACLE_M_LEVELS = (64, 128, 256)
# stated chain size: the cross-check's own sizing rule for the slowest
# admissible decay |lambda| = 0.4 and the longest pattern (3 vertices)
ORACLE_LAMBDA_MAX = 0.4
ORACLE_RINGS = crosscheck.rings_for(ORACLE_LAMBDA_MAX, 3)
ORACLE_MAX_DRAWS = 10_000   # about 1 configuration in 7 has two such roots


def no_note(name: str, n: int = 1) -> None:
    pass


def run_cli(argv: list[str], note=no_note) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    note("cli.bytes_emitted", len(text.encode()))
    return code, text


def sweep_argv(cos_flux: float, lo: float, n: int, step: float) -> list[str]:
    hi = lo + (n - 1) * step
    return ["bands", "--cosA", repr(cos_flux), "--alpha-sweep", f"{lo!r}:{hi!r}:{step!r}"]


def _params(cos_flux: float, alpha: float) -> ChainParams:
    return ChainParams.from_cos_flux(cos_flux, alpha)


def run_oracle(seed: int, note=no_note) -> list[crosscheck.CaseResult]:
    """One cross-check configuration at the stated size.

    Configurations come from the cross-check's own draw; the first with at
    least two admissible roots of |lambda| <= ORACLE_LAMBDA_MAX is kept, and
    its deepest two roots are verified as run_cases verifies them (same
    window, convergence study and spurious-state check), but on
    ORACLE_RINGS rings instead of a chain sized from the slowest decay.
    """
    rng = np.random.default_rng(seed)
    for _ in range(ORACLE_MAX_DRAWS):
        note("crosscheck.draws")
        params, gammas = crosscheck.draw_config(rng)
        layout = band.band_edges(params, ORACLE_LAYOUT_CUTOFF)
        roots = [r for r in crosscheck.admissible_roots(params, gammas, layout) if r[2] <= ORACLE_LAMBDA_MAX]
        if len(roots) >= 2:
            break
        note("crosscheck.draws_rejected")
    else:
        raise RuntimeError(f"no configuration in {ORACLE_MAX_DRAWS} draws has two roots with |lambda| <= "
                           f"{ORACLE_LAMBDA_MAX}")
    roots = sorted(roots, key=lambda r: r[2])[:2]
    char_by_gap = {}
    for gi, state, _ in roots:
        char_by_gap.setdefault(gi, []).append(state.E)
    results = []
    for gi, state, _ in roots:
        window = crosscheck._gap_window(layout.gaps[gi], layout, state.E)
        study = oracle.convergence_study(params, gammas, ORACLE_M_LEVELS, ORACLE_RINGS, window, reference=state.E)
        spurious_ok = crosscheck._check_spurious(params, gammas, ORACLE_RINGS, max(ORACLE_M_LEVELS), window,
                                                 char_by_gap[gi], crosscheck.TOL_RAW)
        raw, rich = study.rows[-1].E_oracle, study.richardson
        results.append(crosscheck.CaseResult(
            index=seed, cos_flux=params.cos_flux, alpha=params.alpha, gammas=gammas, gap_index=gi,
            E_char=state.E, E_raw=raw, E_rich=rich, err_raw=abs(raw - state.E), err_rich=abs(rich - state.E),
            n_rings=ORACLE_RINGS, spurious_ok=spurious_ok,
        ))
        note("crosscheck.roots_checked")
    return results


def run_task(task: Task, note=no_note):
    """Execute one task; the return value is what checks.check_task reads."""
    kind, a = task.kind, task.args
    if kind == "fig3":
        return run_cli(["bands", "--figure", "fig3"], note)
    if kind == "sweep":
        return run_cli(sweep_argv(*a), note)
    if kind == "layout":
        cos_flux, alpha, cutoff = a
        p = _params(cos_flux, alpha)
        return band.band_edges(p, cutoff), band.first_band(p)
    if kind == "states":
        cos_flux, alpha, gammas = a
        p = _params(cos_flux, alpha)
        layout = band.band_edges(p, STATES_CUTOFF)
        return layout, impurity.all_states(impurity.PerturbationPattern(gammas), layout, p)
    if kind == "weak":
        cos_flux, alpha, gammas, eps_list = a
        p = _params(cos_flux, alpha)
        gap = band.band_edges(p, STATES_CUTOFF).gaps[0]
        out = []
        for eps in eps_list:
            problem = asymptotics.WeakCouplingProblem(gammas, eps)
            out.append((asymptotics.weak_predictor(gap, problem, p), asymptotics.weak_exact(gap, problem, p)))
        return gap, out
    if kind == "distant":
        cos_flux, alpha, g1, g2, separations = a
        p = _params(cos_flux, alpha)
        gap = band.band_edges(p, STATES_CUTOFF).gaps[0]
        return gap, [asymptotics.distant_solve(asymptotics.DistantPair(g1, g2, n), gap, p) for n in separations]
    if kind == "oracle":
        return run_oracle(*a, note=note)
    raise ValueError(f"unknown task kind {kind!r}")
