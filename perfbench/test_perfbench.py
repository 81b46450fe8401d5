"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from ringchain import band, crosscheck  # noqa: E402
from ringchain.impurity import ImpurityState  # noqa: E402

from perfbench import checks, execute, run, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import Task  # noqa: E402

GOLDEN = (ROOT / "tests" / "data" / "fig3_band0.csv").read_bytes()
ORACLE_TASK = Task("oracle", (8698157313321341863,))   # both roots verified, no known defect


def take(workload, seed, n):
    return list(itertools.islice(workloads.tasks(workload, seed), n))


def failed_checks(fails):
    return sorted({name for name, _ in fails})


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_determines_task_list(workload):
    assert take(workload, 5, 60) == take(workload, 5, 60)
    assert take(workload, 5, 60) != take(workload, 6, 60)


def test_states_oracle_mix_is_fixed_per_cycle():
    cycle = len(workloads.STATES_CYCLE)
    for seed in (1, 2):
        kinds = [t.kind if t.kind != "states" else len(t.args[2]) for t in take("states_oracle", seed, 5 * cycle)]
        assert sorted(kinds, key=str) == sorted(list(workloads.STATES_CYCLE) * 5, key=str)


def test_fig3_check_catches_one_changed_byte():
    code, text = execute.run_task(Task("fig3", ()))
    assert checks.check_task(Task("fig3", ()), (code, text), GOLDEN) == []
    i = len(text) // 2
    planted = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    assert failed_checks(checks.check_fig3((code, planted), GOLDEN)) == ["fig3_bytes"]


def test_layout_check_catches_a_dropped_band():
    task = Task("layout", (0.7, 1.0, 25.0))
    layout, first = execute.run_task(task)
    assert checks.check_layout(task, (layout, first)) == []
    dropped = dataclasses.replace(layout, bands=layout.bands[:2] + layout.bands[3:])
    assert failed_checks(checks.check_layout(task, (dropped, first))) == ["band_count"]
    assert "band_count" not in checks.KNOWN_DEFECTS


def test_layout_check_names_a_narrow_gap_loss_a_known_defect():
    # non-magnetic, |alpha| < 0.001: the gap at 4 is narrower than the refinement step
    task = Task("layout", (1.0, -0.0008808890829659077, 25.0))
    fails = failed_checks(checks.check_layout(task, execute.run_task(task)))
    assert fails == ["band_count_narrow_gap"] and set(fails) <= checks.KNOWN_DEFECTS


def test_states_check_catches_off_gap_and_off_root_states():
    task = Task("states", (0.6, -1.0, (-2.0,)))
    layout, states = execute.run_task(task)
    assert states and checks.check_states(task, (layout, states)) == []
    s = states[0]
    lo, hi = layout.gaps[s.gap_index]
    off_gap = dataclasses.replace(s, E=hi + 1e-3)
    assert failed_checks(checks.check_states(task, (layout, [off_gap] + states[1:]))) == ["state_in_gap"]
    off_root = dataclasses.replace(s, E=s.E + 1e-3 * min(s.E - lo, hi - s.E))
    assert failed_checks(checks.check_states(task, (layout, [off_root] + states[1:]))) == ["state_residual"]
    extra = ImpurityState(E=0.5 * (s.E + hi), gap_index=s.gap_index, residual=0.0)
    assert "single_counts" in failed_checks(checks.check_states(task, (layout, states + [extra])))


def test_sweep_check_catches_a_non_monotone_edge():
    task = Task("sweep", (0.7, -1.0, 20, 0.05))
    code, text = execute.run_task(task)
    assert checks.check_sweep(task, (code, text)) == []
    lines = text.splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]
    assert failed_checks(checks.check_sweep(task, (code, "".join(lines)))) == ["sweep_monotone"]


def test_self_times_sum_to_traced_wall_time():
    states = take("states_oracle", 3, len(workloads.STATES_CYCLE))
    tasks = take("layout", 3, 20)[1:] + [t for t in states if t.kind != "oracle"][:4] + [ORACLE_TASK]
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, task in enumerate(tasks):
            with tracer.task(i):
                execute.run_task(task, tracer.note)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.incl_s["task"], rel=1e-9)
    assert total <= wall <= 1.02 * total + 0.01
    for layer in ("core", "transfer", "band", "impurity", "oracle", "crosscheck", "oracle.arpack"):
        assert tracer.self_s[layer] > 0.0, layer
    # kernel calls are seen through the copies other modules imported
    assert tracer.counts["core.calls.band"] > 0 and tracer.counts["transfer.calls.impurity"] > 0
    parents = {sid for sid, *_ in tracer.spans}
    assert all(parent is None or parent in parents for _, _, _, _, parent, _ in tracer.spans)
    assert band.band_edges.__module__ == "ringchain.band" and not hasattr(band.band_edges, "__wrapped__")


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "layout", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name, unexpected", [("band_count_narrow_gap", 0), ("band_count", 3)])
def test_only_unknown_failures_count_as_failed(monkeypatch, name, unexpected):
    # every failed check counts into fail_frac; only one that is no known
    # defect counts into the result line's `failed`
    monkeypatch.setattr(checks, "check_task", lambda task, out, golden: [(name, "planted")])
    p = run.run_pass("layout", 1, GOLDEN, limit=3)
    assert (p.failed_tasks, p.unexpected) == (3, unexpected)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "layout", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_traced_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = run.per_layer(Tracer(), [0.5], 0.1, run.GcMeter(), 100.0, 0)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}


def test_distant_check_accepts_a_pair_split_below_double_resolution():
    task = Task("distant", (-0.21634976760005717, -3.940176336956261, -1.7362637401518406, -1.7362637401518406, (8,)))
    gap, (states,) = execute.run_task(task)
    assert len(states) == 2 and states[0].E == states[1].E
    assert checks.check_distant(task, (gap, [states])) == []
    shifted = [dataclasses.replace(s, E=s.E + 1e-6) for s in states]
    assert failed_checks(checks.check_distant(task, (gap, [shifted]))) == ["state_residual"]


def test_distant_check_reports_a_missed_close_pair_as_known_defect():
    # nearly equal strengths at n=8: the two roots, 9e-5 apart, share a scan cell
    task = Task("distant", (-0.6645138883022348, 2.5429359384519854, -2.1977776668066653, -2.1969831978825294, (8,)))
    out = execute.run_task(task)
    assert failed_checks(checks.check_distant(task, out)) == ["distant_pair_one_cell"]
    assert "distant_pair_one_cell" in checks.KNOWN_DEFECTS


@pytest.mark.parametrize("g2", [-1.7362637401518406, -0.6])
def test_distant_check_reports_any_other_missed_pair_as_unexpected(g2):
    # an equal pair, and strengths far apart: planted empty output is no known defect
    task = Task("distant", (-0.21634976760005717, -3.940176336956261, -1.7362637401518406, g2, (8,)))
    gap, (states,) = execute.run_task(task)
    assert states and checks.check_distant(task, (gap, [states])) == []
    assert failed_checks(checks.check_distant(task, (gap, [[]]))) == ["distant_missed"]
    assert "distant_missed" not in checks.KNOWN_DEFECTS


def test_oracle_check_catches_a_mismatched_root():
    task = ORACLE_TASK
    results = execute.run_task(task)
    assert len(results) == 2 and checks.check_task(task, results, GOLDEN) == []
    off = dataclasses.replace(results[0], err_rich=10 * crosscheck.TOL_RICH)
    assert failed_checks(checks.check_task(task, [off, results[1]], GOLDEN)) == ["oracle_match"]


@pytest.mark.parametrize("seed", [
    2586314297297619874,   # the third root of gap 0 lies in the second root's window
    1900164390690698311,   # the same, with the third root 0.002 below the band edge
])
def test_oracle_check_names_a_spurious_unverified_root_a_known_defect(seed):
    task = Task("oracle", (seed,))
    fails = failed_checks(checks.check_task(task, execute.run_task(task), GOLDEN))
    assert fails == ["oracle_unverified_root"] and set(fails) <= checks.KNOWN_DEFECTS
    assert "oracle_match" not in checks.KNOWN_DEFECTS
