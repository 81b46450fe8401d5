"""Re-measure the ROADMAP baseline rows and flag the ones that differ."""

from __future__ import annotations

import statistics
import time

from ringchain import ChainParams, PerturbationPattern, band_edges, crosscheck
from ringchain.impurity import all_states

from .execute import run_cli
from .tracing import Tracer

DIFFERS = 0.25   # a row differs when measured/baseline leaves [1/(1+d), 1+d]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _arpack_seconds_in_run_cases() -> float:
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.task(0):
            crosscheck.run_cases(seed=7, n_cases=5)
    finally:
        tracer.uninstall()
    return tracer.self_s["oracle.arpack"]


def baseline(import_times: list[float]) -> dict:
    p = ChainParams.from_cos_flux(0.7, 1.0)
    layout = band_edges(p, 25.0)
    rows = [
        ("fig3 sweep: cli bands --figure fig3, in process", 0.268,
         _timed(lambda: run_cli(["bands", "--figure", "fig3"]))),
        ("all_states m=50, cos(A*pi)=0.7, alpha=1, cutoff 25", 1.16,
         _timed(lambda: all_states(PerturbationPattern.identical(-1.0, 50), layout, p))),
        ("run_cases(seed=7, n_cases=5)", 5.4, _timed(lambda: crosscheck.run_cases(seed=7, n_cases=5))),
        ("run_cases(seed=7, n_cases=5): ARPACK self time, traced", 4.1, _arpack_seconds_in_run_cases()),
        ("import ringchain + ringchain.cli, median of fresh interpreters", 0.81, statistics.median(import_times)),
    ]
    out = []
    for name, base, got in rows:
        ratio = got / base
        differs = not 1.0 / (1.0 + DIFFERS) <= ratio <= 1.0 + DIFFERS
        print(f"{name:62s} baseline {base:8.3f} s  measured {got:8.3f} s  x{ratio:5.2f}{'  DIFFERS' if differs else ''}")
        out.append({"row": name, "baseline_s": base, "measured_s": got, "ratio": ratio, "differs": differs})
    return {"baseline": out}
