"""Independent verification by direct discretization of the chain operator.

A truncated chain (Dirichlet ends) is discretized edge by edge on uniform
grids: the gauge field enters through explicit link phases exp(+-iAh), the
bulk uses the Numerov-weighted three-point pencil (fourth order), and each
vertex carries the delta coupling in a lumped control-volume row (second
order, which therefore sets the observed convergence order).  The result
is a generalized Hermitian-definite pencil (K, M), banded with bandwidth 2
in a position-interleaved node ordering.

Nothing here touches the dispersion function, Floquet multipliers, the
quasi-polynomial recursion, or the coupling functions: spectra computed
from this module are an independent check on all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core import ChainParams
from .errors import DimensionOverflow, FitFailed, SolverNoConvergence

DENSE_LIMIT = 1200
# relative ARPACK tolerance; window queries never need eigenvalues beyond
# this resolution, and machine-precision restarts choke on the
# near-degenerate flat-band clusters
ARPACK_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedChain:
    """Finite chain with Dirichlet conditions at the two terminal vertices."""

    n_rings: int
    points_per_edge: int
    params: ChainParams
    max_dim: int = 600_000

    def __post_init__(self):
        if self.n_rings % 2 == 0:
            raise ValueError("n_rings must be odd so the perturbation can be centered")
        if self.points_per_edge < 64:
            raise ValueError("need at least 64 points per edge")

    @property
    def h(self) -> float:
        return math.pi / self.points_per_edge

    @property
    def dim(self) -> int:
        return 2 * self.n_rings * (self.points_per_edge - 1) + (self.n_rings - 1)

    def pattern_start(self, m: int) -> int:
        """First perturbed vertex (1-based) for a centered length-m pattern."""
        if self.n_rings < m + 6:
            raise ValueError("chain too short: need n_rings >= pattern length + 6")
        return (self.n_rings - 1 - m) // 2 + 1


@dataclass
class DiscreteOperator:
    """Banded Hermitian-definite pencil (K, M); eigenvalues of K u = E M u
    approximate the chain spectrum."""

    chain: TruncatedChain
    gammas: tuple[float, ...]
    kd: np.ndarray   # K diagonal (real parts only are nonzero)
    k1: np.ndarray   # K[i, i+1]
    k2: np.ndarray   # K[i, i+2]
    md: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    vertex_nodes: np.ndarray   # global node index of interior vertex j (1..R-1)
    ring_of_node: np.ndarray   # ring index 0..R-1 for every node

    @property
    def dim(self) -> int:
        return len(self.kd)

    def to_sparse(self):
        def build(d, o1, o2):
            return sp.diags(
                [np.conj(o2), np.conj(o1), d, o1, o2],
                offsets=[-2, -1, 0, 1, 2],
                format="csc",
            )

        return build(self.kd, self.k1, self.k2), build(self.md, self.m1, self.m2)

    def to_dense(self):
        K, M = self.to_sparse()
        return K.toarray(), M.toarray()


def _edge_nodes(chain: TruncatedChain, ring: int, lower: bool) -> list[int]:
    """Global node indices along one edge, -1 for Dirichlet endpoints.

    Ordering: ring r occupies [r*(2I+1), ...) with its left vertex first
    (absent for ring 0), then interleaved (upper_i, lower_i) pairs.
    """
    I = chain.points_per_edge - 1
    block = 2 * I + 1
    base = ring * block - 1  # position of left vertex of this ring
    left = base if ring >= 1 else -1
    right = base + block if ring <= chain.n_rings - 2 else -1
    interior = [base + 1 + 2 * i + (1 if lower else 0) for i in range(I)]
    return [left] + interior + [right]


def assemble(chain: TruncatedChain, gammas: Sequence[float]) -> DiscreteOperator:
    """Build the pencil for the chain with a centered perturbation pattern."""
    if chain.dim > chain.max_dim:
        raise DimensionOverflow(f"dim {chain.dim} exceeds cap {chain.max_dim}")
    gammas = tuple(float(g) for g in gammas)
    start = chain.pattern_start(len(gammas))

    n = chain.dim
    h = chain.h
    kd = np.zeros(n)
    md = np.zeros(n)
    k1 = np.zeros(n - 1, dtype=complex)
    k2 = np.zeros(n - 2, dtype=complex)
    m1 = np.zeros(n - 1, dtype=complex)
    m2 = np.zeros(n - 2, dtype=complex)

    A = chain.params.A
    phase_up = complex(math.cos(A * h), math.sin(A * h))     # multiplies u_{i+1} on upper edges

    # every grid link contributes 1/h to both endpoint diagonals of K and
    # 5h/12 to both of M (interior nodes then carry 2/h and 10h/12, the
    # Numerov weights); off-diagonal entries take the link phase
    for ring in range(chain.n_rings):
        for lower in (False, True):
            omega = np.conj(phase_up) if lower else phase_up
            nodes = _edge_nodes(chain, ring, lower)
            for a, b in zip(nodes[:-1], nodes[1:]):
                for node in (a, b):
                    if node >= 0:
                        kd[node] += 1.0 / h
                        md[node] += 5.0 * h / 12.0
                if a >= 0 and b >= 0:
                    off = b - a
                    if off == 1:
                        k1[a] += -omega / h
                        m1[a] += omega * h / 12.0
                    elif off == 2:
                        k2[a] += -omega / h
                        m2[a] += omega * h / 12.0
                    else:
                        raise AssertionError("node ordering produced bandwidth > 2")

    # delta couplings on interior vertices
    I = chain.points_per_edge - 1
    block = 2 * I + 1
    vertex_nodes = np.array([v * block - 1 for v in range(1, chain.n_rings)])
    for v, node in enumerate(vertex_nodes, start=1):
        coupling = chain.params.alpha
        if start <= v < start + len(gammas):
            coupling += gammas[v - start]
        kd[node] += coupling

    ring_of_node = np.empty(n, dtype=int)
    for ring in range(chain.n_rings):
        lo = max(ring * block - 1, 0)
        hi = min((ring + 1) * block - 1, n)
        ring_of_node[lo:hi] = ring

    return DiscreteOperator(
        chain=chain,
        gammas=gammas,
        kd=kd,
        k1=k1,
        k2=k2,
        md=md,
        m1=m1,
        m2=m2,
        vertex_nodes=vertex_nodes,
        ring_of_node=ring_of_node,
    )


def _sigma_floor(op: DiscreteOperator) -> float:
    """A shift strictly below the lowest eigenvalue.

    The continuum operator is bounded below by the uniform chain with
    every coupling lowered to the weakest value, whose spectrum lies
    above -max(1, |alpha_w|/2)^2; a margin absorbs discretization error.
    """
    weakest = op.chain.params.alpha + min(0.0, min(op.gammas, default=0.0))
    kf = max(1.0, 0.5 * abs(weakest))
    return -(kf * kf) - 2.0


def _start_vector(op: DiscreteOperator) -> np.ndarray:
    """A fixed ARPACK start vector, so repeated solves agree to the last bit.
    Random rather than constant: a constant vector is parity-even and would
    starve the odd states of a symmetric chain."""
    return np.random.default_rng(0).standard_normal(op.dim)


def low_spectrum(op: DiscreteOperator, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues, ascending.

    Dense solver up to DENSE_LIMIT unknowns, shift-invert Lanczos above.
    """
    if count < 1 or count > 50:
        raise ValueError("count must be in 1..50")
    if op.dim <= DENSE_LIMIT:
        K, M = op.to_dense()
        vals = scipy.linalg.eigh(K, M, eigvals_only=True, subset_by_index=[0, count - 1])
        return np.sort(vals)
    K, M = op.to_sparse()
    try:
        vals = spla.eigsh(
            K, k=count, M=M, sigma=_sigma_floor(op), which="LM",
            return_eigenvectors=False, tol=ARPACK_TOL, v0=_start_vector(op),
        )
    except spla.ArpackNoConvergence as exc:
        raise SolverNoConvergence(str(exc)) from exc
    return np.sort(vals.real)


def spectrum_window(op: DiscreteOperator, lo: float, hi: float):
    """All pencil eigenvalues in (lo, hi), with eigenvectors.

    Dense path enumerates exactly; the sparse path grows a shift-invert
    neighborhood of the window center until the computed range brackets
    the window on both sides.
    """
    if op.dim <= DENSE_LIMIT:
        K, M = op.to_dense()
        vals, vecs = scipy.linalg.eigh(K, M, subset_by_value=[lo, hi])
        return vals, vecs
    K, M = op.to_sparse()
    sigma = 0.5 * (lo + hi)
    radius = max(hi - sigma, sigma - lo)
    v0 = _start_vector(op)
    k = 16
    while True:
        k = min(k, op.dim - 2)
        try:
            vals, vecs = spla.eigsh(K, k=k, M=M, sigma=sigma, which="LM", tol=ARPACK_TOL, v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise SolverNoConvergence(str(exc)) from exc
        # shift-invert returns the k eigenvalues nearest sigma; the window
        # is fully enumerated once the farthest of them leaves it
        if np.abs(vals - sigma).max() > radius or k >= op.dim - 2 or k >= 96:
            keep = (vals > lo) & (vals < hi)
            order = np.argsort(vals[keep])
            return vals[keep][order], vecs[:, keep][:, order]
        k *= 2


def localization_scores(op: DiscreteOperator, vecs: np.ndarray) -> np.ndarray:
    """Fraction of measure-weighted mass in the outer two rings each side.

    Scores above 0.5 identify states manufactured by the Dirichlet
    truncation rather than by the perturbation.
    """
    weights = np.abs(vecs) ** 2 * op.md.real[:, None]
    outer = (op.ring_of_node <= 1) | (op.ring_of_node >= op.chain.n_rings - 2)
    return weights[outer].sum(axis=0) / weights.sum(axis=0)


def eigenvector_ring_norms(op: DiscreteOperator, vec: np.ndarray) -> np.ndarray:
    """Measure-weighted mass per ring (decay diagnostics)."""
    w = np.abs(vec) ** 2 * op.md.real
    return np.sqrt(np.bincount(op.ring_of_node, weights=w, minlength=op.chain.n_rings))


@dataclass(frozen=True)
class ConvergenceRow:
    M: int
    n_rings: int
    E_oracle: float
    E_char: float | None
    abs_err: float | None


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    observed_order: float
    richardson: float

    def to_csv_rows(self):
        return [
            (r.M, r.n_rings, r.E_oracle, r.E_char, r.abs_err)
            for r in self.rows
        ]


def _window_state(op: DiscreteOperator, lo: float, hi: float, near: float) -> float:
    """The non-edge-localized window eigenvalue closest to `near`."""
    vals, vecs = spectrum_window(op, lo, hi)
    if len(vals) == 0:
        raise SolverNoConvergence(f"no eigenvalue found in ({lo}, {hi})")
    scores = localization_scores(op, vecs)
    bulk = vals[scores <= 0.5]
    if len(bulk) == 0:
        raise SolverNoConvergence("only truncation edge states found in window")
    return float(bulk[np.argmin(np.abs(bulk - near))])


def richardson_limit(h_list: Sequence[float], values: Sequence[float]) -> float:
    """Limit h -> 0 by staged extrapolation of the error series starting
    at h^2, raising the eliminated exponent by one per stage."""
    hs = np.asarray(h_list, dtype=float)
    vs = np.asarray(values, dtype=float)
    order = np.argsort(hs)[::-1]  # coarse -> fine
    level = vs[order].tolist()
    step = hs[order].tolist()
    p = 2.0
    while len(level) > 1:
        nxt = []
        for i in range(len(level) - 1):
            r = (step[i] / step[i + 1]) ** p
            nxt.append((r * level[i + 1] - level[i]) / (r - 1.0))
        level = nxt
        step = step[1:]
        p += 1.0
    return float(level[0])


def convergence_study(
    params: ChainParams,
    gammas: Sequence[float],
    M_list: Sequence[int],
    n_rings: int,
    window: tuple[float, float],
    reference: float | None = None,
) -> ConvergenceStudy:
    """Track one gap eigenvalue across grid refinements.

    The observed order comes from consecutive differences; the Richardson
    value extrapolates the h^2 (then higher) error terms away.  When a
    reference (for example a characteristic-equation root) is supplied it
    is recorded in the error column and used to center the window search.
    """
    Ms = sorted(int(M) for M in M_list)
    if len(Ms) < 3:
        raise FitFailed("need at least 3 grid resolutions")
    near = reference if reference is not None else 0.5 * (window[0] + window[1])
    vals = []
    for M in Ms:
        op = assemble(TruncatedChain(n_rings, M, params), gammas)
        vals.append(_window_state(op, window[0], window[1], near))

    diffs = np.diff(vals)
    if np.any(diffs == 0.0):
        order = math.inf
    else:
        order = float(np.mean([math.log2(abs(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)]))
    rich = richardson_limit([math.pi / M for M in Ms], vals)

    rows = tuple(
        ConvergenceRow(
            M=M,
            n_rings=n_rings,
            E_oracle=v,
            E_char=reference,
            abs_err=None if reference is None else abs(v - reference),
        )
        for M, v in zip(Ms, vals)
    )
    return ConvergenceStudy(rows=rows, observed_order=order, richardson=rich)
