"""The analytic package loads with numpy alone; the oracle's names still
resolve, on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringchain

SRC = str(Path(ringchain.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "ChainParams", "CutoffTooSmall", "DimensionOverflow", "DiscreteOperator", "DistantPair", "FitFailed",
    "FitReport", "FlatBand", "FlatBandPole", "HalfIntegerFlux", "ImpurityState", "InsideBand", "PQ_SEED",
    "PerturbationPattern", "RingChainError", "SolverNoConvergence", "SpectrumLayout", "TruncatedChain",
    "WeakCouplingProblem", "assemble", "asymptotics", "band", "band_edges", "c_kernel", "char_residual",
    "convergence_study", "core", "distant_residual", "distant_solve", "errors", "f_pm", "f_single",
    "first_band", "flat_band_energies", "flux_regime", "impurity", "lambda_pair", "lambda_small", "oracle",
    "pq_advance", "s_kernel", "solve_gap", "spectrum_window", "splitting_rate", "transfer", "weak_exact",
    "weak_gap_distance_scaling", "weak_predictor", "xi", "xi_background",
]

PROBE = """
import json, sys
import ringchain, ringchain.cli
cold = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
ringchain.cli.main(["bands", "--cosA", "0.7", "--alpha", "1", "--cutoff", "10", "--out", sys.argv[1]])
after_bands = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assemble = ringchain.assemble
from ringchain import TruncatedChain
unresolved = [name for name in ringchain.__all__ if getattr(ringchain, name, None) is None]
print(json.dumps({
    "cold": cold,
    "after_bands": after_bands,
    "assemble": assemble.__module__,
    "TruncatedChain": TruncatedChain.__module__,
    "oracle": ringchain.oracle.__name__,
    "all": sorted(ringchain.__all__),
    "unresolved": unresolved,
}))
"""


def test_fresh_interpreter_imports_no_scipy(tmp_path):
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "bands.json")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    seen = json.loads(proc.stdout)
    assert seen["cold"] == []
    assert seen["after_bands"] == []
    assert seen["assemble"] == seen["TruncatedChain"] == seen["oracle"] == "ringchain.oracle"
    assert seen["all"] == PUBLIC_NAMES
    assert seen["unresolved"] == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ringchain.no_such_name
