"""Spectral solver for a flux-threaded periodic chain of rings with
delta couplings: band structure, gap bound states, asymptotic laws, and
an independent finite-difference cross-check."""

from .band import (
    FlatBand,
    SpectrumLayout,
    band_edges,
    first_band,
    flat_band_eigenfunction,
    flat_band_energies,
    flux_regime,
    in_spectrum,
    quasimomentum,
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
    count_states_per_gap,
    f_pm,
    identical_conditions,
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
from .transfer import (
    LatticeSolution,
    PQState,
    Transfer2,
    bound_state_lattice,
    eigenvectors,
    identical_closed_form,
    local_matrix,
    pq_advance,
    product_matrix,
    reconstruct_edge,
    vertex_condition_residual,
)
from .oracle import (
    DiscreteOperator,
    TruncatedChain,
    assemble,
    convergence_study,
    low_spectrum,
    spectrum_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
