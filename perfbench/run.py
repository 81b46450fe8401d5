"""ringchain benchmark: one closed-loop caller, one process, seeded inputs.

    python3 perfbench/run.py --workload layout --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10     # every workload, both modes
    python3 perfbench/run.py --baseline                      # the ROADMAP baseline rows

Workloads: layout, states_oracle (see perfbench/workloads.py).  Each
task starts when the previous one returns; a task's latency is the time
spent in the package's public functions, its outputs are checked after
the clock stops, and a failed check never stops the run.

Every run starts with an untimed memory pass over a fixed number of tasks
of a warm-up stream (peak_rss_mb); the timed pass after it runs under the
automatic garbage collector, with no collections of the benchmark's own.

--trace 0 prints the end-to-end metrics of an untraced run of --seconds.
--trace 1 runs a fixed number of tasks untraced and then the same tasks
traced, and prints the per-layer metrics of the traced pass with the
tracing overhead (traced over untraced time, minus one).  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: `failed` counts the tasks that raised or failed a check other
than a confirmed defect of the current code (checks.KNOWN_DEFECTS), and
`correct` is false when there is any.  Tasks that hit only a known defect
are counted apart: in the fail_frac line, which counts every task with a
failed check, and as checks.known_defect_tasks of a traced run.  Result
files and spans go to perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"
GOLDEN_FIG3 = ROOT / "tests" / "data" / "fig3_band0.csv"
BLAS_THREADS = "1"        # pinned: at most nproc, and no thread noise
PROBES = 3                # fresh interpreters per run for setup_s
# a traced run covers a fixed number of tasks, so its counters repeat
# exactly for a seed; each count takes 10-20 s untraced on a 2-vCPU VM
TRACE_TASKS = {"layout": 3000, "states_oracle": 66}
WORKLOADS = tuple(TRACE_TASKS)
# the untimed memory pass, which also warms up: about 1 s and 6 s; on
# states_oracle one cycle of the task mix, two oracle tasks included
MEMORY_TASKS = {"layout": 300, "states_oracle": 22}
GC_EVERY_S = 0.25         # memory pass: full collection and heap trim at most this often

try:
    _LIBC = ctypes.CDLL("libc.so.6")
    _LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
    _LIBC.malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):
    _LIBC = None

END_TO_END_UNITS = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_p90_ms": "ms", "peak_rss_mb": "MB",
}


def _pin_threads() -> None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _import_package() -> float:
    """Put this checkout's src first on the path and import the package."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    t0 = time.perf_counter()
    import ringchain
    import ringchain.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(ringchain.__file__).resolve().parent != ROOT / "src" / "ringchain":
        raise SystemExit(f"imported ringchain from {ringchain.__file__}, not from this checkout")
    return elapsed


def _prepare(workload: str, seed: int) -> bytes:
    """Input generation: start the seeded task stream, read the golden fig3 bytes."""
    from perfbench import workloads

    next(workloads.tasks(workload, seed))
    return GOLDEN_FIG3.read_bytes()


def _probe(workload: str, seed: int) -> None:
    import_s = _import_package()
    _prepare(workload, seed)
    print(json.dumps({"done_ns": time.monotonic_ns(), "import_s": import_s}))


def _setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh interpreter until it has imported
    the package and generated its inputs, PROBES times."""
    setup, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(PROBES):
        spawned = time.monotonic_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append((report["done_ns"] - spawned) / 1e9)
        imports.append(report["import_s"])
    return setup, imports


def _trim_heap() -> None:
    """Hand freed heap pages back to the system (glibc)."""
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def memory_pass(workload: str, seed: int) -> float:
    """Peak resident set (MB) of this process over the first MEMORY_TASKS
    tasks of the warm-up stream: the largest working set of one task, its
    own garbage included, on top of the imported package.

    Untimed, so the full collection and heap trim before a task touch no
    latency.  Without them the resident set of a long run is set by
    collector timing and by how glibc keeps freed pages, which differ from
    process to process by about a quarter on the same oracle tasks; the
    timed pass runs under the automatic collector, and the traced run
    reports that process peak as process.peak_rss_mb.
    """
    from perfbench import execute, workloads

    last_gc = -GC_EVERY_S
    for task in itertools.islice(workloads.tasks(workload, seed, stream=1), MEMORY_TASKS[workload]):
        if time.perf_counter() - last_gc >= GC_EVERY_S:
            gc.collect()
            _trim_heap()
            last_gc = time.perf_counter()
        try:
            execute.run_task(task)
        except Exception:  # the timed pass's checks count failures
            pass
    return _process_peak_rss_mb()


class GcMeter:
    """Time spent in, and objects freed by, the automatic cyclic collector."""

    def __init__(self):
        self.pause_s = 0.0
        self.collected = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collected += info["collected"]

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


class Pass:
    """Latencies and check results of one pass over the task stream."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}   # latencies per task kind
        self.failed_tasks = 0       # any failed check
        self.unexpected = 0         # a failed check that is no known defect
        self.failures: Counter = Counter()
        self.examples: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_pass(workload, seed, golden, seconds=None, limit=None, stream=0, tracer=None, check=True) -> Pass:
    from perfbench import checks, execute, workloads

    result = Pass()
    note = tracer.note if tracer is not None else execute.no_note
    clock = time.perf_counter
    start = clock()
    for index, task in enumerate(workloads.tasks(workload, seed, stream)):
        if (limit is not None and index >= limit) or (seconds is not None and clock() - start >= seconds):
            break
        out = error = None
        t0 = clock()
        try:
            if tracer is None:
                out = execute.run_task(task)
            else:
                with tracer.task(index):
                    out = execute.run_task(task, note)
        except Exception as exc:  # a failing task is counted, never fatal
            error = exc
        result.latencies.append(clock() - t0)
        kind = task.kind if task.kind != "states" else f"states_m{len(task.args[2])}"
        result.by_kind.setdefault(kind, []).append(result.latencies[-1])
        if not check:
            continue
        if error is not None:
            fails = [("exception", f"{type(error).__name__}: {error}")]
        elif tracer is not None:
            with tracer.pause():
                fails = checks.check_task(task, out, golden)
        else:
            fails = checks.check_task(task, out, golden)
        if fails:
            result.failed_tasks += 1
            result.unexpected += any(name not in checks.KNOWN_DEFECTS for name, _ in fails)
            for name, detail in fails:
                result.failures[name] += 1
                if len(result.examples) < 20:
                    result.examples.append(f"{task.kind} {task.args!r}: {name}: {detail}")
    return result


def _quantile(values, q: int) -> float:
    """q-th percentile (inclusive method) of the sample."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _process_peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p: Pass, setup: list[float], peak_rss_mb: float, memory_tasks: int) -> dict:
    lat = p.latencies
    n = len(lat)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "tasks_per_s": (n / p.busy, n),
        "task_p50_ms": (1e3 * statistics.median(lat), n),
        "task_p90_ms": (1e3 * _quantile(lat, 90) if n > 1 else 1e3 * lat[0], n),
        "peak_rss_mb": (peak_rss_mb, memory_tasks),
    }


def per_layer(tracer, imports: list[float], overhead: float, gc_meter: GcMeter, peak_rss_mb: float,
              known_defect_tasks: int) -> dict:
    from perfbench.tracing import LAYERS

    c, s = tracer.counts, tracer.self_s

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": (s[layer], "s") for layer in LAYERS}
    m.update({
        "core.kernel_calls": (tracer.calls("core.calls."), "count"),
        "transfer.pq_advance_calls": (tracer.calls("transfer.calls."), "count"),
        "band.band_edges_calls": (c["band.band_edges"], "count"),
        "band.first_band_calls": (c["band.first_band"], "count"),
        "band.brentq_calls": (c["band.brentq_calls"], "count"),
        "band.edges_per_kernel_call": (ratio(c["band.edges_found"], c["core.calls.band"]), "ratio"),
        "impurity.solve_gap_calls": (c["impurity.solve_gap"], "count"),
        "impurity.char_residual_calls": (c["impurity.char_residual"], "count"),
        "impurity.masked_points": (c["impurity.masked_points"], "count"),
        "impurity.brentq_calls": (c["impurity.brentq_calls"], "count"),
        "impurity.states_per_residual_call": (ratio(c["impurity.states_found"], c["impurity.char_residual"]), "ratio"),
        "asymptotics.solve_calls": (
            c["asymptotics.weak_predictor"] + c["asymptotics.weak_exact"] + c["asymptotics.distant_solve"], "count"),
        "asymptotics.brentq_calls": (c["asymptotics.brentq_calls"], "count"),
        "oracle.assemble_calls": (c["oracle.assemble"], "count"),
        "oracle.assemble_s": (tracer.incl_s["oracle.assemble"], "s"),
        "oracle.unknowns_assembled": (c["oracle.unknowns_assembled"], "count"),
        "oracle.distinct_operator_ratio": (ratio(len(tracer.operators), c["oracle.assemble"]), "ratio"),
        "oracle.arpack_calls": (c["oracle.arpack"], "count"),
        "oracle.arpack_s": (s["oracle.arpack"], "s"),
        "oracle.lapack_calls": (c["oracle.lapack"], "count"),
        "oracle.lapack_s": (s["oracle.lapack"], "s"),
        "crosscheck.draws": (c["crosscheck.draws"], "count"),
        "crosscheck.draws_rejected": (c["crosscheck.draws_rejected"], "count"),
        "crosscheck.roots_checked": (c["crosscheck.roots_checked"], "count"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.main_s": (tracer.incl_s["cli.main"], "s"),
        "cli.bytes_emitted": (c["cli.bytes_emitted"], "B"),
        "bench.self_s": (s["bench"], "s"),
        "checks.known_defect_tasks": (known_defect_tasks, "count"),
        "gc.pause_s": (gc_meter.pause_s, "s"),
        "gc.collected": (gc_meter.collected, "count"),
        "process.peak_rss_mb": (peak_rss_mb, "MB"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return dict(sorted(m.items()))


def run_info(workload: str, seed: int, seconds: float, trace: int, p: Pass) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
        "tasks": len(p.latencies),
        "tasks_by_kind": {k: len(v) for k, v in sorted(p.by_kind.items())},
        "p50_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(p.by_kind.items())},
        "busy_s_by_kind": {k: sum(v) for k, v in sorted(p.by_kind.items())},
        "process_peak_rss_mb": _process_peak_rss_mb(),
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    _import_package()
    from perfbench.tracing import Tracer

    golden = _prepare(workload, seed)
    setup, imports = _setup_times(workload, seed)
    peak_rss_mb = memory_pass(workload, seed)
    if not trace:
        main = run_pass(workload, seed, golden, seconds=seconds)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n}
                   for k, (v, n) in end_to_end(main, setup, peak_rss_mb, MEMORY_TASKS[workload]).items()}
    else:
        with GcMeter() as gc_meter:
            main = run_pass(workload, seed, golden, limit=TRACE_TASKS[workload])
        process_peak_rss_mb = _process_peak_rss_mb()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, seed, golden, limit=len(main.latencies), tracer=tracer, check=False)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
        layers = per_layer(tracer, imports, traced.busy / main.busy - 1.0, gc_meter,
                           process_peak_rss_mb, main.failed_tasks - main.unexpected)
        metrics = {k: {"value": v, "unit": u, "samples": len(traced.latencies)} for k, (v, u) in layers.items()}
    return {
        "info": run_info(workload, seed, seconds, trace, main),
        "failed_tasks": main.failed_tasks,
        "failures": dict(main.failures),
        "failure_examples": main.examples,
        "result": {
            "correct": main.unexpected == 0,
            "attempted": len(main.latencies),
            "failed": main.unexpected,
            "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
        },
        "samples": {k: m["samples"] for k, m in metrics.items()},
    }


def report(doc: dict) -> None:
    info, res = doc["info"], doc["result"]
    print(f"# {info['workload']} seed={info['seed']} trace={info['trace']}: {json.dumps(info)}")
    for name, m in res["metrics"].items():
        print(f"{info['workload']:13s} {name:36s} {m['value']:>16.6g} {m['unit']:6s} n={doc['samples'][name]}")
    frac = doc["failed_tasks"] / res["attempted"]
    print(f"{info['workload']:13s} {'fail_frac':36s} {frac:>16.6g} {'ratio':6s} n={res['attempted']} "
          f"(failed checks: {doc['failures'] or 'none'}; {res['failed']} tasks beyond known defects)")
    for line in doc["failure_examples"][:5]:
        print(f"#   {line}")


def run_all(seed: int, seconds: float) -> dict:
    """Every workload, untraced and traced, each in its own process."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            out[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and traced")
    ap.add_argument("--baseline", action="store_true", help="reproduce the ROADMAP baseline rows")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ringchain" / "__init__.py").is_file() or not GOLDEN_FIG3.is_file():
        print(f"error: no ringchain source tree (src/, tests/data/) under {ROOT}", file=sys.stderr)
        return 2
    _pin_threads()
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    if args.all:
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    if args.baseline:
        _import_package()
        from perfbench.baseline import baseline

        print(json.dumps(baseline(_setup_times("layout", args.seed)[1])))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    doc = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(doc, indent=1) + "\n")
    report(doc)
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
