"""Seeded task streams for the two benchmark workloads.

Only numpy is used here: a task is a plain tuple of numbers, and the
package sees nothing but these generated inputs.  Each stream is an
endless generator; the same seed yields the same tasks in the same order.

Workloads and why they were chosen:

* ``layout``: band/gap enumeration.  Almost all time goes to the scalar
  kernels of ``core`` and the scan-then-brentq of ``band``; cutoffs from 25
  to 400 make the grid size matter.  One task in ``SWEEP_EVERY`` is an alpha sweep
  through the CLI, and every run starts with the ``fig3`` preset, so the
  CLI parse/emit path is covered.  ``transfer``/``impurity``/``oracle`` are
  never touched.
* ``states_oracle``: gap bound states and their finite-difference
  cross-check.  Short patterns are dominated by the grid scan and brentq,
  long ones by the P/Q recursion of ``transfer``; weak and distant tasks
  exercise ``asymptotics``.  Two tasks in a cycle verify a configuration
  at a stated size: a task is a derived seed, from which the
  cross-check's own configuration draw runs until a configuration has two
  admissible roots, and both are verified on a 25-ring chain over
  M = 64, 128, 256 plus the spurious-state check at the finest grid, so
  ``oracle`` assembly and ARPACK take about a third of the time.  The
  task kinds follow a fixed 22-slot cycle (shuffled inside each cycle)
  and every 5th task of a kind is non-magnetic, so the mix, and with it
  the median and 90th percentile, does not drift from seed to seed.
  Bound states and the cross-check share one workload so that each run
  can be long enough to average out the machine's speed swings.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

# layout cutoffs n^2 for n = 5..20: a task's cost grows about linearly in n,
# so the costs spread evenly over a factor of three.  With cutoffs
# {25, 100, 400} alone they form three clusters, and the machine's speed,
# which switches between two levels about 1.6x apart every few seconds,
# splits each cluster in two; the median then sits in a gap between
# clusters and moves twice as much from run to run as the mean does
LAYOUT_CELLS = (5, 21)
SWEEP_EVERY = 100          # layout: one CLI alpha sweep per this many tasks
SWEEP_STEP = 0.05
STATES_CUTOFF = 25.0       # states_oracle: layout cutoff for all_states
# at most criterion 6's eps, where the existence law holds: at 5e-3 a pattern
# with sum(gamma) = 0.39 already binds through second-order terms.  At least
# 5e-4, so that a state with sum(gamma) = -0.2 lies farther than 1e-10 from
# the band edge, ten times weak_exact's edge margin
WEAK_EPS = (5e-4, 6e-4, 8e-4, 1e-3)
DISTANT_SEPARATIONS = (1, 3, 5, 8)

# kind of each states_oracle task in one cycle: all_states on pattern
# lengths 1..50, the asymptotic solvers and the oracle cross-check at a
# fixed share.  Sorted by cost, the median falls inside the large m=3/m=8
# classes and the 90th percentile among the long patterns and oracle
# tasks, so neither sits on a class boundary.
STATES_CYCLE = (
    (1,) * 1 + (2,) * 3 + (3,) * 6 + (8,) * 6 + (20,) * 1 + (50,) * 1
    + ("distant",) * 1 + ("weak",) * 1 + ("oracle",) * 2
)

@dataclass(frozen=True)
class Task:
    kind: str
    args: tuple


def _chain(rng: np.random.Generator, non_magnetic: bool | None = None) -> tuple[float, float]:
    """(cos(A*pi), alpha): about 1 in 5 non-magnetic, alpha in [-4, 3]."""
    if non_magnetic is None:
        non_magnetic = rng.uniform() < 0.2
    if non_magnetic:
        cos_flux = float(rng.choice([-1.0, 1.0]))
    else:
        cos_flux = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.95))
    return cos_flux, float(rng.uniform(-4.0, 3.0))


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def layout_tasks(rng: np.random.Generator):
    yield Task("fig3", ())
    for i in itertools.count(1):
        if i % SWEEP_EVERY == 0:
            cos_flux = _signed(rng, 0.2, 0.95)
            lo = round(float(rng.uniform(-4.0, 1.0)), 2)
            n = int(rng.integers(20, 41))
            yield Task("sweep", (cos_flux, lo, n, SWEEP_STEP))
        else:
            cos_flux, alpha = _chain(rng)
            yield Task("layout", (cos_flux, alpha, float(rng.integers(*LAYOUT_CELLS) ** 2)))


def _weak_gammas(rng: np.random.Generator) -> tuple[float, ...]:
    m = int(rng.integers(1, 5))
    gammas = rng.uniform(-2.0, 2.0, size=m)
    while abs(gammas.sum()) < 0.2:
        gammas = rng.uniform(-2.0, 2.0, size=m)
    return tuple(float(g) for g in gammas)


def states_oracle_tasks(rng: np.random.Generator):
    seen = Counter()
    while True:
        for slot in rng.permutation(len(STATES_CYCLE)):
            kind = STATES_CYCLE[slot]
            if kind == "oracle":
                # a derived seed: the cross-check draws its configurations from it
                yield Task("oracle", (int(rng.integers(2**63)),))
                continue
            # every 5th task of a kind is non-magnetic, which costs about
            # half as much; a fixed share keeps the mix steady
            seen[kind] += 1
            cos_flux, alpha = _chain(rng, non_magnetic=seen[kind] % 5 == 0)
            if kind == "weak":
                yield Task("weak", (cos_flux, alpha, _weak_gammas(rng), WEAK_EPS))
            elif kind == "distant":
                g1 = -float(rng.uniform(0.5, 2.5))
                g2 = g1 if rng.uniform() < 0.5 else -float(rng.uniform(0.5, 2.5))
                yield Task("distant", (cos_flux, alpha, g1, g2, DISTANT_SEPARATIONS))
            else:
                gammas = tuple(_signed(rng, 0.3, 2.5) for _ in range(kind))
                yield Task("states", (cos_flux, alpha, gammas))


_STREAMS = {"layout": layout_tasks, "states_oracle": states_oracle_tasks}


def tasks(workload: str, seed: int, stream: int = 0):
    """Endless task stream; stream 0 is measured, stream 1 warms up."""
    return _STREAMS[workload](np.random.default_rng([seed, stream]))
