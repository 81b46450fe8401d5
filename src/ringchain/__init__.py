"""Spectral solver for a flux-threaded periodic chain of rings with
delta couplings: band structure, gap bound states, asymptotic laws, and
an independent finite-difference cross-check."""

from .band import (
    FlatBand,
    SpectrumLayout,
    band_edges,
    first_band,
    flat_band_energies,
    flux_regime,
)
from .core import (
    ChainParams,
    c_kernel,
    f_single,
    lambda_pair,
    lambda_small,
    s_kernel,
    xi,
    xi_background,
)
from .errors import (
    CutoffTooSmall,
    DimensionOverflow,
    FitFailed,
    FlatBandPole,
    HalfIntegerFlux,
    InsideBand,
    RingChainError,
    SolverNoConvergence,
)
from .impurity import (
    ImpurityState,
    PerturbationPattern,
    char_residual,
    f_pm,
    solve_gap,
)
from .asymptotics import (
    DistantPair,
    FitReport,
    WeakCouplingProblem,
    distant_residual,
    distant_solve,
    splitting_rate,
    weak_exact,
    weak_gap_distance_scaling,
    weak_predictor,
)
from .transfer import PQ_SEED, pq_advance

# the discretization oracle needs scipy.sparse, so it and its names are
# imported on first use, and the analytic modules load with numpy alone
_ORACLE_NAMES = ("DiscreteOperator", "TruncatedChain", "assemble", "convergence_study", "spectrum_window")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["oracle", *_ORACLE_NAMES])


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        import importlib

        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
