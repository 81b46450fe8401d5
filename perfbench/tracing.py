"""Tracing from outside the package: wrap its entry points and kernels.

``from .core import xi`` copies the name into the importing module, so a
wrapper is installed on every binding of the original object in every
``ringchain`` module.  Layer entry points become spans (name, start, end,
parent) kept in memory; hot scalar kernels only get counters, but every
wrapped call pushes a frame, so each layer's self time (duration minus
time covered by wrapped callees) is exact up to the wrappers' own cost.
The sum of all self times equals the time spent inside ``task`` spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import scipy.linalg
import scipy.sparse.linalg

LAYERS = ("core", "transfer", "band", "impurity", "asymptotics", "oracle", "crosscheck", "cli")

CORE_KERNELS = (
    "xi", "xi_background", "lambda_small", "lambda_pair", "f_single",
    "s_kernel", "c_kernel", "cos_k", "sin_k_over_k", "on_flat_band",
)

# (module, function): span name is "<module>.<function>", layer is the module
SPANS = (
    ("band", "band_edges"),
    ("band", "first_band"),
    ("impurity", "solve_gap"),
    ("impurity", "all_states"),
    ("asymptotics", "weak_predictor"),
    ("asymptotics", "weak_exact"),
    ("asymptotics", "distant_solve"),
    ("oracle", "assemble"),
    ("oracle", "convergence_study"),
    ("oracle", "spectrum_window"),
    ("oracle", "localization_scores"),
    ("crosscheck", "admissible_roots"),
    ("crosscheck", "_gap_window"),
    ("crosscheck", "_check_spurious"),
    ("crosscheck", "run_cases"),
    ("cli", "main"),
)

# external eigensolvers, reached by the oracle as module attributes
SOLVERS = ((scipy.sparse.linalg, "eigsh", "oracle.arpack"), (scipy.linalg, "eigh", "oracle.lapack"))


def _layer_of(module_name: str) -> str:
    return module_name.rpartition(".")[2] if module_name.startswith("ringchain.") else "bench"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, task)
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)   # layer -> seconds
        self.incl_s: defaultdict = defaultdict(float)   # span name -> seconds
        self.operators: set = set()
        self.paused = False
        self._stack: list[list] = []        # frames: [child seconds, span id]
        self._next_id = 0
        self._task = -1
        self._patches: list[tuple] = []

    # -- bookkeeping ---------------------------------------------------
    def note(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def _span_parent(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _wrap(self, fn, name: str, layer: str, span: bool, on_return=None, on_error=None):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = parent = None
            if span:
                sid, parent = tracer._next_id, tracer._span_parent()
                tracer._next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                tracer.counts[name] += 1
                if span:
                    tracer.incl_s[name] += dur
                    tracer.spans.append((sid, name, start, end, parent, tracer._task))
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    @contextmanager
    def task(self, index: int):
        """Root span of one task; its self time is the harness's own."""
        self._task = index
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.self_s["bench"] += end - start - frame[0]
            self.incl_s["task"] += end - start
            self.spans.append((sid, "task", start, end, None, index))

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from ringchain import core, impurity, transfer
        from ringchain.errors import FlatBandPole, InsideBand

        modules = [m for n, m in sorted(sys.modules.items()) if n == "ringchain" or n.startswith("ringchain.")]
        hooks = {
            "band.band_edges": lambda r: self.note("band.edges_found", 2 * len(r.bands)),
            "band.first_band": lambda r: self.note("band.edges_found", 2),
            "impurity.solve_gap": lambda r: self.note("impurity.states_found", len(r)),
            "oracle.assemble": self._on_assemble,
        }
        for mod_name, fn_name in SPANS:
            owner = sys.modules[f"ringchain.{mod_name}"]
            name = f"{mod_name}.{fn_name}"
            original = getattr(owner, fn_name)
            wrapper = self._wrap(original, name, mod_name, True, on_return=hooks.get(name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, wrapper)

        def masked(exc):
            if isinstance(exc, (InsideBand, FlatBandPole)):
                self.note("impurity.masked_points")

        self._patch(impurity, "char_residual",
                    self._wrap(impurity.char_residual, "impurity.char_residual", "impurity", False, on_error=masked))

        # kernels and brentq: only bindings that cross a module boundary,
        # counted per importing module
        kernels = [(core, n, "core") for n in CORE_KERNELS] + [(transfer, "pq_advance", "transfer")]
        brentq = sys.modules["scipy.optimize"].brentq
        for mod in modules:
            caller = _layer_of(mod.__name__)
            for owner, fn_name, layer in kernels:
                original = getattr(owner, fn_name)
                if mod is not owner and getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, self._wrap(original, f"{layer}.calls.{caller}", layer, False))
            if getattr(mod, "brentq", None) is brentq:
                self._patch(mod, "brentq", self._wrap(brentq, f"{caller}.brentq_calls", caller, False))

        for owner, fn_name, name in SOLVERS:
            self._patch(owner, fn_name, self._wrap(getattr(owner, fn_name), name, name, True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _on_assemble(self, op) -> None:
        self.note("oracle.unknowns_assembled", op.dim)
        self.operators.add((op.chain, op.gammas))

    # -- results -------------------------------------------------------
    def calls(self, prefix: str) -> int:
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
