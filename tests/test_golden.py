"""Bit-for-bit regression of every root search on a fixed corpus.

Inputs and expected outputs are stored in data/golden_roots.json as hex
floats: all_states over seeded patterns of length 1..50 in magnetic and
non-magnetic chains, the weak-coupling and distant-pair solvers, band
layouts and the half-integer flat-band roots.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

only when a change is meant to move roots.  It prints each recorded value
it changes (case, field, old -> new) before it writes the file.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from ringchain import (
    ChainParams,
    DistantPair,
    PerturbationPattern,
    WeakCouplingProblem,
    band_edges,
    distant_solve,
    flat_band_energies,
    splitting_rate,
    weak_exact,
    weak_predictor,
)
from ringchain.impurity import all_states

GOLDEN = Path(__file__).parent / "data" / "golden_roots.json"
PATTERN_LENGTHS = (1, 2, 3, 8, 20, 50)


def _hex(x):
    return None if x is None else float(x).hex()


def _params(case):
    return ChainParams.from_cos_flux(float.fromhex(case["cos_flux"]), float.fromhex(case["alpha"]))


def _gammas(case):
    return tuple(float.fromhex(g) for g in case["gammas"])


def _states(states):
    return [[s.gap_index, _hex(s.E), _hex(s.residual)] for s in states]


def corpus() -> dict:
    """The inputs, drawn once from a fixed seed."""
    rng = np.random.default_rng(20261018)
    states = []
    for m in PATTERN_LENGTHS:
        for magnetic in (True, False):
            for _ in range(2):
                cos_flux = float(rng.choice([-1.0, 1.0]) * (rng.uniform(0.3, 0.95) if magnetic else 1.0))
                alpha = float(rng.uniform(-3.0, 3.0))
                gammas = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.5)) for _ in range(m)]
                states.append({"cos_flux": _hex(cos_flux), "alpha": _hex(alpha),
                               "gammas": [_hex(g) for g in gammas], "cutoff": 25.0})
    for gamma, m in ((-1.0, 50), (0.8, 8), (-0.5, 20)):
        states.append({"cos_flux": _hex(0.7), "alpha": _hex(1.0), "gammas": [_hex(gamma)] * m, "cutoff": 25.0})

    weak = []
    for cos_flux, alpha, gammas, gap in (
        (0.7, 1.0, (-1.0,), 0),
        (0.7, 1.0, (1.0, -2.0, 0.5), 0),
        (-0.6, -1.0, (0.7, 0.4), 1),
        (1.0, 2.0, (-0.3, -0.6), 0),
    ):
        for eps in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            weak.append({"cos_flux": _hex(cos_flux), "alpha": _hex(alpha), "gammas": [_hex(g) for g in gammas],
                         "eps": _hex(eps), "gap": gap})

    distant = []
    for cos_flux, alpha, g1, g2, gap in (
        (0.7, 1.0, -1.5, -1.5, 0),
        (0.7, 1.0, -1.5, -1.2, 0),
        (-0.6, 1.0, 3.0, 1.0, 1),
        (0.6, -1.0, 2.0, 2.0, 1),
        (1.0, 1.5, -2.0, -2.0, 0),
    ):
        for n in (0, 2, 4, 8):
            distant.append({"cos_flux": _hex(cos_flux), "alpha": _hex(alpha), "g1": _hex(g1), "g2": _hex(g2),
                            "n": n, "gap": gap})

    splitting = [
        {"cos_flux": _hex(0.7), "alpha": _hex(1.0), "gamma": _hex(-1.5), "gap": 0, "n_list": [4, 6, 8, 10]},
        {"cos_flux": _hex(0.6), "alpha": _hex(-1.0), "gamma": _hex(2.0), "gap": 1, "n_list": [2, 3, 4, 5]},
    ]

    layouts = []
    for cos_flux, alpha, cutoff in ((0.7, 1.0, 25.0), (0.7, -4.0, 100.0), (1.0, 0.5, 400.0), (1.0, 0.0, 10.0),
                                    (-0.35, 2.5, 400.0), (-1.0, -1.5, 50.0)):
        layouts.append({"cos_flux": _hex(cos_flux), "alpha": _hex(alpha), "cutoff": cutoff})

    flat = [{"cos_flux": _hex(0.0), "alpha": _hex(alpha), "cutoff": 30.0} for alpha in (4.0, -2.5, 0.3)]
    return {"all_states": states, "weak": weak, "distant": distant, "splitting": splitting,
            "layouts": layouts, "flat": flat}


def eval_all_states(case):
    p = _params(case)
    layout = band_edges(p, case["cutoff"])
    return _states(all_states(PerturbationPattern(_gammas(case)), layout, p))


def eval_weak(case):
    p = _params(case)
    gap = band_edges(p, 25.0).gaps[case["gap"]]
    problem = WeakCouplingProblem(_gammas(case), float.fromhex(case["eps"]))
    return {"predictor": _hex(weak_predictor(gap, problem, p)), "exact": _states(weak_exact(gap, problem, p))}


def eval_distant(case):
    p = _params(case)
    gap = band_edges(p, 25.0).gaps[case["gap"]]
    pair = DistantPair(float.fromhex(case["g1"]), float.fromhex(case["g2"]), case["n"])
    return _states(distant_solve(pair, gap, p, gap_index=case["gap"]))


def eval_splitting(case):
    p = _params(case)
    gap = band_edges(p, 25.0).gaps[case["gap"]]
    gamma = float.fromhex(case["gamma"])
    fit, ref = splitting_rate(DistantPair(gamma, gamma, case["n_list"][0]), gap, p, case["n_list"])
    return {"slope": _hex(fit.slope), "intercept": _hex(fit.intercept), "ref": _hex(ref)}


def eval_layout(case):
    lay = band_edges(_params(case), case["cutoff"])
    return {"bands": [[_hex(a), _hex(b)] for a, b in lay.bands],
            "gaps": [[_hex(a), _hex(b)] for a, b in lay.gaps]}


def eval_flat(case):
    return [_hex(E) for E in flat_band_energies(_params(case), case["cutoff"])]


EVALUATORS = {
    "all_states": eval_all_states,
    "weak": eval_weak,
    "distant": eval_distant,
    "splitting": eval_splitting,
    "layouts": eval_layout,
    "flat": eval_flat,
}


def _golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", sorted(EVALUATORS))
def test_roots_bit_identical(kind):
    cases = _golden()[kind]
    assert cases, kind
    for case in cases:
        expected = case.pop("expected")
        assert EVALUATORS[kind](case) == expected, case


def test_corpus_covers_every_pattern_length_in_both_regimes():
    regimes = {(len(c["gammas"]), float.fromhex(c["cos_flux"]) in (-1.0, 1.0)) for c in _golden()["all_states"]}
    assert regimes >= {(m, nm) for m in PATTERN_LENGTHS for nm in (True, False)}


def _entries(doc: dict) -> dict:
    return {f"{kind}[{i}]": case for kind, cases in doc.items() for i, case in enumerate(cases)}


if __name__ == "__main__":
    from recorded_changes import changes

    doc = corpus()
    for kind, cases in doc.items():
        for case in cases:
            case["expected"] = EVALUATORS[kind](dict(case))
    old = _golden() if GOLDEN.exists() else {}
    print("\n".join(changes(_entries(old), _entries(doc))) or "no recorded value changes")
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
