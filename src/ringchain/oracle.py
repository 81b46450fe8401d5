"""Independent verification by direct discretization of the chain operator.

A truncated chain (Dirichlet ends) is discretized edge by edge on uniform
grids: the bulk uses the Numerov-weighted three-point pencil (fourth
order), and each vertex carries the delta coupling in a lumped
control-volume row (second order, which therefore sets the observed
convergence order).  The magnetic field enters only as the flux through
each ring: in a gauge where every edge's interior is real, and in the
real basis of the sums and differences of a ring's two edges, the result
is a real symmetric-definite pencil (K, M) with the flux on two links per
ring.  It is banded with bandwidth 2 in a position-interleaved node
ordering: one ring's block of nodes (its left vertex, then the edges'
interior points in (sum, difference) pairs), tiled once per ring, the
Dirichlet end vertices left out.

Each window is counted exactly by the inertia of K - s*M at its ends and
solved by shift-invert symmetric Lanczos for that many pairs, in a Krylov
space of 2k+1 vectors, sliced at inertia-counted midpoints where one call
cannot resolve it (spectrum slicing).  The pencil is 2R identical edge
blocks joined at R - 1 vertices, and both factorizations use that: the
count eliminates the edges in closed form (O(R) per shift at any grid
size), and the shift-invert operator is a LAPACK band LU of K - sigma*M.
A `DiscreteOperator` is built from its (chain, pattern) pair alone, and
the count reads only that pair, so no other pencil can reach it.

Work is done once: `bulk_states` memoises, by value, a window's bulk
eigenvalues and its count of truncation edge states over the windows of
one configuration, so the spurious-state check reuses the finest
refinement level's solve.  Operators are built afresh; their read-only
bands are the pencil's only copy, and ARPACK applies M from them and the
shift-invert operator through their band LU.

Nothing here touches the dispersion function, Floquet multipliers, the
quasi-polynomial recursion, or the coupling functions: spectra computed
from this module are an independent check on all of them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
# unused here, but perfbench/tracing.py looks up sys.modules["scipy.optimize"]
import scipy.optimize  # noqa: F401
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .core import ChainParams
from .errors import DimensionOverflow, FitFailed, InvalidParameter, SolverNoConvergence, require_integer

# relative ARPACK tolerance; window queries never need eigenvalues beyond
# this resolution, and machine-precision restarts choke on the
# near-degenerate flat-band clusters
ARPACK_TOL = 1e-10

# windows kept by bulk_states: two roots at three refinement levels
BULK_CACHE = 6

# largest pencil dimension a DiscreteOperator is built with
MAX_DIM = 600_000


@dataclass(frozen=True)
class TruncatedChain:
    """Finite chain with Dirichlet conditions at the two terminal vertices."""

    n_rings: int
    points_per_edge: int
    params: ChainParams

    def __post_init__(self):
        if require_integer(self.n_rings, 1, "n_rings") % 2 == 0:
            raise InvalidParameter("n_rings must be odd so the perturbation can be centered")
        require_integer(self.points_per_edge, 64, "points_per_edge")

    @property
    def h(self) -> float:
        return math.pi / self.points_per_edge

    @property
    def dim(self) -> int:
        return 2 * self.n_rings * (self.points_per_edge - 1) + (self.n_rings - 1)

    def pattern_start(self, m: int) -> int:
        """First perturbed vertex (1-based) for a centered length-m pattern;
        an empty pattern fits a chain of any length."""
        if m and self.n_rings < m + 6:
            raise InvalidParameter("chain too short: need n_rings >= pattern length + 6")
        return (self.n_rings - 1 - m) // 2 + 1

    def couplings(self, gammas: Sequence[float]) -> list[float]:
        """Delta couplings of the R - 1 interior vertices, as Python floats:
        alpha, plus `gammas` on the centered pattern's vertices."""
        alpha, start = float(self.params.alpha), self.pattern_start(len(gammas)) - 1
        pattern = [alpha + float(gamma) for gamma in gammas]
        return [alpha] * start + pattern + [alpha] * (self.n_rings - 1 - start - len(pattern))


# the pencil's arrays: built from (chain, gammas), never passed in
_built = functools.partial(field, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class DiscreteOperator:
    """Banded real symmetric-definite pencil (K, M) of `chain` with the
    centered perturbation `gammas`; eigenvalues of K u = E M u approximate
    the chain spectrum.

    The pencil is the magnetic one in a real basis.  With omega = e^{iAh},
    the gauge multiplies upper_i by conj(omega)^i and lower_i by omega^i,
    which makes every edge's interior real, and each pair of interior points
    becomes s_i = (upper_i + lower_i)/sqrt(2) and t_i = i(upper_i -
    lower_i)/sqrt(2).  Interior links are c = -1/h in K and h/12 in M; a
    vertex links to s_1 by sqrt(2) c and to t_1 not at all, and the flux
    enters only on the links of s_I and t_I to the next vertex, sqrt(2) c
    cos(A pi) and sqrt(2) c sin(A pi).  The diagonals are the magnetic
    pencil's.

    The six float64 bands are built from (chain, gammas) alone, so the
    pencil is always its chain's: 2R identical edge blocks joined at R - 1
    vertices.  Node ordering: one ring's block of 2I+1 nodes, its left
    vertex then interleaved (s_i, t_i) pairs, tiled R times, so ring r
    occupies [r*(2I+1) - 1, (r+1)*(2I+1) - 1); ring 0's left vertex and the
    right end vertex are Dirichlet and carry no node.  Raises
    DimensionOverflow above MAX_DIM nodes.

    Frozen, with read-only arrays: the bands are its only copy of the
    pencil, and a copy made with `dataclasses.replace`, which takes only
    chain and gammas, builds its own."""

    chain: TruncatedChain
    gammas: tuple[float, ...]
    kd: np.ndarray = _built()   # K diagonal
    k1: np.ndarray = _built()   # K[i, i+1]
    k2: np.ndarray = _built()   # K[i, i+2]
    md: np.ndarray = _built()
    m1: np.ndarray = _built()
    m2: np.ndarray = _built()

    def __post_init__(self):
        chain, gammas = self.chain, tuple(float(g) for g in self.gammas)
        if chain.dim > MAX_DIM:
            raise DimensionOverflow(f"dim {chain.dim} exceeds cap {MAX_DIM}")

        n, h, R, I = chain.dim, chain.h, chain.n_rings, chain.points_per_edge - 1
        block = 2 * I + 1

        # one ring's block: its left vertex v, then (s_i, t_i) pairs.  Band 1
        # links v to s_1 and t_I to the next vertex; band 2 links s_i onward
        # (odd rows, s_I to the next vertex) and t_i to t_i+1 (even rows but
        # the first, v to t_1, and the last, t_I to the next ring's s_1, which
        # stay 0).  Each grid link adds 1/h to both endpoint diagonals of K
        # and 5h/12 to both of M, one term at a time: four at v, two (the
        # Numerov weights) elsewhere.
        k1, m1, k2, m2 = np.zeros((4, block))
        flux = chain.params.flux_phase
        for b1, b2, link in ((k1, k2, -1.0 / h), (m1, m2, h / 12.0)):
            edge = math.sqrt(2.0) * link
            b2[1:-1] = link
            b1[0], b2[-2], b1[-1] = edge, edge * flux.real, edge * flux.imag
        x, w = 1.0 / h, 5.0 * h / 12.0
        kd, md = np.full(block, x + x), np.full(block, w + w)
        kd[0], md[0] = x + x + x + x, w + w + w + w

        # R blocks without ring 0's left vertex, which is Dirichlet; cutting
        # each band to its length drops the links to the right Dirichlet end
        kd, md = np.tile(kd, R)[1:], np.tile(md, R)[1:]
        k1, m1 = np.tile(k1, R)[1:n], np.tile(m1, R)[1:n]
        k2, m2 = np.tile(k2, R)[1:n - 1], np.tile(m2, R)[1:n - 1]

        # delta couplings on interior vertices, the first node of rings 1..R-1
        kd[block - 1::block] += chain.couplings(gammas)

        object.__setattr__(self, "gammas", gammas)
        for name, a in dict(kd=kd, k1=k1, k2=k2, md=md, m1=m1, m2=m2).items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return len(self.kd)


def assemble(chain: TruncatedChain, gammas: Sequence[float]) -> DiscreteOperator:
    """The operator for the chain with a centered perturbation pattern."""
    return DiscreteOperator(chain, gammas)


def eigen_count(op: DiscreteOperator, s: float) -> int:
    """Number of pencil eigenvalues below s: the inertia nu of K - s*M, by
    eliminating the edges (E. V. Haynsworth, Linear Algebra Appl. 1 (1968)
    73) in closed form, in O(R) at any grid size.

    Every s and t chain of K - s*M is one real tridiagonal Toeplitz matrix
    T of size I, with diagonal d = 2/h - 10sh/12 and off-diagonal b = -1/h
    - sh/12, the interior link.  Eliminating the 2R chains leaves a
    tridiagonal Schur complement S on the R - 1 vertices, and nu(K - s*M) =
    2R nu(T) + nu(S).  With x = d/(2b), T's eigenvalues are d + 2b cos(j
    pi/(I+1)), (T^-1)_11 = U_I-1(x)/(b U_I(x)) and (T^-1)_1I = +-1/(b
    U_I(x)), U_k the Chebyshev polynomials (C. M. da Fonseca and J.
    Petronilho, Linear Algebra Appl. 325 (2001) 7).  A vertex links by
    sqrt(2) b to s_1 on its right, and by sqrt(2) b cos(A pi) and sqrt(2) b
    sin(A pi) to s_I and t_I on its left, so S_jj is the vertex diagonal
    less 4b U_I-1/U_I, and S_j,j+1^2 = 4 cos^2(A pi) b^2/U_I^2; the vertex
    pivots q_j = S_jj - S_j-1,j^2 / q_j-1 give nu(S).

    Raises SolverNoConvergence for a non-finite s, and where a zero pivot
    (sin((I+1)w) = 0 included), an overflow or a NaN voids the count."""
    chain, s = op.chain, float(s)    # a numpy float would make every pivot a numpy scalar
    if not math.isfinite(s):
        raise SolverNoConvergence(f"K - {s}*M: a non-finite shift has no count")
    h, I = chain.h, chain.points_per_edge - 1
    d, b = 2.0 / h - s * (10.0 * h / 12.0), -1.0 / h - s * (h / 12.0)
    # g = (1 + x)/2 from d + 2b = -hs, exact without a subtraction near x = -1
    # (the bottom of the spectrum, at any grid size); b = 0 leaves T diagonal
    g = -h * s / (4.0 * b) if b else math.inf
    kv, mv = 4.0 / h, 20.0 * h / 12.0
    try:
        if 0.0 < g < 1.0:
            # x = -cos(w): U_k = (-1)^k sin((k+1)w)/sin(w), and T's
            # eigenvalue j is negative where j pi/(I+1) < w
            w = 2.0 * math.asin(math.sqrt(g))
            edge, sign = math.ceil((I + 1) * w / math.pi) - 1, -1.0
            top = math.sin((I + 1) * w)
            ratio, inv = math.sin(I * w) / top, math.sin(w) / top
        else:
            # x = -+cosh(w) (g <= 0, g >= 1): U_k = (-+1)^k sinh((k+1)w)/sinh(w),
            # written with exp(-w) so that it cannot overflow; T is definite
            w = 2.0 * math.asinh(math.sqrt(-g if g <= 0.0 else g - 1.0))
            edge, sign = I if d < 0.0 else 0, -1.0 if g <= 0.0 else 1.0
            if w == 0.0:    # x = -+1: U_k = (-+1)^k (k+1)
                ratio, inv = I / (I + 1), 1.0 / (I + 1)
            else:
                top = math.expm1(-2.0 * (I + 1) * w)
                ratio = math.exp(-w) * math.expm1(-2.0 * I * w) / top
                inv = math.exp(-I * w) * math.expm1(-2.0 * w) / top
        end = 4.0 * b * sign * ratio                          # four edge ends at each vertex
        couple = 4.0 * chain.params.flux_phase.real ** 2 * (b * inv) * (b * inv)    # S_j,j+1^2
        vertex, q = 0, math.inf     # the first vertex has no coupling above it
        for a in chain.couplings(op.gammas):
            q = (kv + a) - s * mv - end - couple / q
            vertex += q < 0.0
    except ZeroDivisionError:
        raise SolverNoConvergence(f"K - {s}*M: a zero pivot voids the count") from None
    if not math.isfinite(couple) or math.isnan(q):
        raise SolverNoConvergence(f"K - {s}*M: an overflow or a NaN voids the count")
    return 2 * chain.n_rings * edge + vertex


def _band_lu(op: DiscreteOperator, sigma: float):
    """LAPACK's band LU of K - sigma*M (dgbtrf, kl = ku = 2), built straight
    from the six bands: the factor and its pivots, for dgbtrs."""
    a1, a2 = op.k1 - sigma * op.m1, op.k2 - sigma * op.m2
    ab = np.zeros((7, op.dim))     # rows 0-1: the LU's fill-in
    ab[2, 2:], ab[3, 1:], ab[4] = a2, a1, op.kd - sigma * op.md
    ab[5, :-1], ab[6, :-2] = a1, a2
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=True)
    if info > 0:
        raise SolverNoConvergence(f"K - {sigma}*M is singular")
    return lu, piv


def _mass_operator(op: DiscreteOperator) -> spla.LinearOperator:
    """M as ARPACK applies it: md on the diagonal, m1 and m2 above and below."""

    def matvec(x):
        x = x.ravel()
        y = op.md * x
        for k, band in ((1, op.m1), (2, op.m2)):
            y[:-k] += band * x[k:]
            y[k:] += band * x[:-k]
        return y

    return spla.LinearOperator((op.dim, op.dim), matvec=matvec, dtype=float)


def _slices(op, v0, lo, n_lo, hi, n_hi):
    """Eigenpairs of the pencil in (lo, hi), holding n_hi - n_lo of them, as
    a list of ascending (vals, vecs) slices: the spectrum slicing of
    spectrum_window."""
    dim, count, center = op.dim, n_hi - n_lo, 0.5 * (lo + hi)
    if count == 0:
        return [(np.empty(0), np.empty((dim, 0)))]
    if count < dim - 1:
        # a real pencil, so eigsh runs ARPACK's symmetric driver, whose
        # iteration state (and with it the factor) is freed on return
        lu, piv = _band_lu(op, center)
        OPinv = spla.LinearOperator((dim, dim), matvec=lambda x: dgbtrs(lu, 2, 2, x, piv)[0], dtype=float)
        M = _mass_operator(op)
        try:
            # shift-invert through OPinv never applies K, and reads only the
            # shape and dtype of the matrix argument, which M stands in for
            vals, vecs = spla.eigsh(M, k=count, M=M, sigma=center, which="LM", tol=ARPACK_TOL, v0=v0,
                                    ncv=min(2 * count + 1, dim), OPinv=OPinv)
        except spla.ArpackNoConvergence:
            pass
        else:
            if np.count_nonzero((vals > lo) & (vals < hi)) == count:
                order = np.argsort(vals)
                return [(vals[order], vecs[:, order])]
    if hi - lo < ARPACK_TOL * max(1.0, abs(center)):
        raise SolverNoConvergence(f"ARPACK cannot resolve the {count} eigenvalues in ({lo}, {hi})")
    n_mid = eigen_count(op, center)
    return _slices(op, v0, lo, n_lo, center, n_mid) + _slices(op, v0, center, n_mid, hi, n_hi)


@functools.lru_cache(maxsize=3)    # the refinement levels of one configuration
def _start_vector(dim: int) -> np.ndarray:
    """ARPACK's start vector for a pencil of dimension dim, read-only (ARPACK
    copies it): fixed, so repeated solves agree to the last bit; random,
    since a constant one is parity-even and starves the odd states."""
    v0 = np.random.default_rng(0).standard_normal(dim)
    v0.flags.writeable = False
    return v0


def spectrum_window(op: DiscreteOperator, lo: float, hi: float):
    """All pencil eigenvalues in (lo, hi), ascending, with eigenvectors.

    The window is counted by inertia (`eigen_count` at both ends) and
    solved by shift-invert symmetric Lanczos at its center, through a band
    LU of K - center*M, for exactly that many eigenpairs k, which are the
    window's since it is symmetric about the shift.  ARPACK gets
    ncv = 2k+1 Lanczos vectors (its own rule, without scipy's floor of
    20): the centered shift makes the k wanted pairs dominant, so few
    vectors suffice.  When that call fails to converge, finds a different
    number in the window, or would need dim - 1 or more pairs, the window
    is cut at its midpoint and each half is counted and solved the same
    way (spectrum slicing).  Only a slice narrower than ARPACK's
    resolution that still holds eigenvalues raises SolverNoConvergence.
    Ends that are not finite with lo <= hi raise InvalidParameter.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidParameter(f"window needs finite ends with lo <= hi, not ({lo}, {hi})")
    v0 = _start_vector(op.dim)
    vals, vecs = zip(*_slices(op, v0, lo, eigen_count(op, lo), hi, eigen_count(op, hi)))
    return np.concatenate(vals), np.hstack(vecs)


EDGE_SCORE = 0.5   # localization score above which a state is truncation debris


def localization_scores(op: DiscreteOperator, vecs: np.ndarray) -> np.ndarray:
    """Fraction of measure-weighted mass in the outer two rings each side.

    Scores above EDGE_SCORE identify states manufactured by the Dirichlet
    truncation rather than by the perturbation.
    """
    weights = np.abs(vecs) ** 2 * op.md[:, None]
    block, R = 2 * op.chain.points_per_edge - 1, op.chain.n_rings
    outer = np.zeros(op.dim, dtype=bool)    # nodes of rings 0, 1, R-2 and R-1
    outer[:2 * block - 1] = outer[max((R - 2) * block - 1, 0):] = True
    return weights[outer].sum(axis=0) / weights.sum(axis=0)


def bulk_states(chain: TruncatedChain, gammas: Sequence[float], lo: float, hi: float) -> tuple[np.ndarray, int]:
    """The window's eigenvalues with a localization score of at most
    EDGE_SCORE, ascending and read-only, and the number of the others (the
    truncation edge states).

    Memoised by value, gammas taken as a tuple of floats, over the last
    BULK_CACHE windows, so a repeated window costs nothing.
    """
    return _bulk_states(chain, tuple(float(g) for g in gammas), lo, hi)


@functools.lru_cache(maxsize=BULK_CACHE)
def _bulk_states(chain, gammas, lo, hi):
    op = assemble(chain, gammas)
    vals, vecs = spectrum_window(op, lo, hi)
    scores = localization_scores(op, vecs)
    bulk = vals[scores <= EDGE_SCORE]
    bulk.flags.writeable = False
    return bulk, int(np.count_nonzero(scores > EDGE_SCORE))


@dataclass(frozen=True)
class ConvergenceRow:
    M: int
    n_rings: int
    E_oracle: float
    E_char: float
    abs_err: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[ConvergenceRow, ...]
    observed_order: float
    richardson: float


def _window_state(chain: TruncatedChain, gammas, lo: float, hi: float, near: float) -> float:
    """The non-edge-localized window eigenvalue closest to `near`."""
    bulk, _ = bulk_states(chain, gammas, lo, hi)
    if len(bulk) == 0:
        raise SolverNoConvergence(f"no eigenvalue but truncation edge states in ({lo}, {hi})")
    return float(bulk[np.argmin(np.abs(bulk - near))])


def richardson_limit(h_list: Sequence[float], values: Sequence[float]) -> float:
    """Limit h -> 0 by staged extrapolation of the error series starting
    at h^2, raising the eliminated exponent by one per stage.

    Raises InvalidParameter when the two lists differ in length or a step
    is not finite and > 0, and FitFailed for fewer than 2 values or a
    repeated step, where a stage would divide by r - 1 = 0."""
    hs = np.asarray(h_list, dtype=float)
    vs = np.asarray(values, dtype=float)
    if hs.shape != vs.shape:
        raise InvalidParameter(f"{len(hs)} steps for {len(vs)} values")
    if not np.all(np.isfinite(hs) & (hs > 0.0)):
        raise InvalidParameter(f"steps must be finite and > 0, not {hs.tolist()}")
    if len(hs) < 2 or len(np.unique(hs)) < len(hs):
        raise FitFailed(f"need at least 2 distinct steps, not {hs.tolist()}")
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
    reference: float,
) -> ConvergenceStudy:
    """Track one gap eigenvalue across grid refinements.

    The observed order comes from consecutive differences; the Richardson
    value extrapolates the h^2 (then higher) error terms away.  The
    reference (for example a characteristic-equation root) is recorded in
    the error column, and the window's bulk state closest to it is tracked.
    Each resolution is solved once; fewer than 3 distinct ones raise
    FitFailed, since the extrapolation divides by their ratios less one,
    and a non-integral one raises InvalidParameter.
    """
    Ms = sorted(set(M_list))
    if len(Ms) < 3:
        raise FitFailed("need at least 3 distinct grid resolutions")
    vals = [_window_state(TruncatedChain(n_rings, M, params), gammas, window[0], window[1], reference) for M in Ms]

    diffs = np.diff(vals)
    if np.any(diffs == 0.0):
        order = math.inf
    else:
        order = float(np.mean([math.log2(abs(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)]))
    rich = richardson_limit([math.pi / M for M in Ms], vals)

    rows = tuple(
        ConvergenceRow(M=M, n_rings=n_rings, E_oracle=v, E_char=reference, abs_err=abs(v - reference))
        for M, v in zip(Ms, vals)
    )
    return ConvergenceStudy(rows=rows, observed_order=order, richardson=rich)
