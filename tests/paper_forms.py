"""The paper's closed forms, which the tests compare the library against.

No command, script or benchmark task calls them, so they live with the
tests and not in the library.

- Transfer matrices: the single-vertex matrix N_j = [[2*xi_j, -1], [1, 0]],
  their ordered product, and the Chebyshev closed form of the product when
  every vertex carries the same coupling.  pq_advance must agree with them.
- Reconstruction of the continuum wave on each ring from two vertex
  values, its covariant derivatives, the two-sided decaying lattice
  solution of a gap energy, and the vertex-condition residual: a root of
  char_residual must give a wave that meets the delta conditions.
- Band membership and the Bloch phase, the compactly supported flat-band
  eigenfunctions, the cot/tan conditions of an identical array, and the
  per-gap count of the states that solve_gaps finds.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ringchain import band as band_mod
from ringchain.core import (
    ChainParams,
    f_single,
    kernels,
    lambda_pair,
    lambda_small,
    on_flat_band,
    s_kernel,
    xi,
    xi_background,
)
from ringchain.errors import FlatBandPole, InvalidParameter, require_integer
from ringchain.impurity import PerturbationPattern, solve_gaps
from ringchain.transfer import PQ_SEED, pq_advance


def local_matrix(E: float, gamma: float, params: ChainParams) -> np.ndarray:
    """Single-vertex transfer matrix [[2*xi_j, -1], [1, 0]].

    gamma is the perturbation of the vertex coupling; the dispersion
    value uses alpha + gamma.
    """
    x = xi(E, params.alpha + gamma, params)
    return np.array([[2.0 * x, -1.0], [1.0, 0.0]])


def product_matrix(E: float, gammas: Sequence[float], params: ChainParams) -> np.ndarray:
    """Ordered product N_m ... N_1 via the P/Q recursion."""
    if len(gammas) < 1:
        raise InvalidParameter("need at least one vertex in the pattern")
    P, Q, P_prev, Q_prev = pq_advance(PQ_SEED, [xi(E, params.alpha + g, params) for g in gammas])
    return np.array([[P, -Q], [P_prev, -Q_prev]])


def chebyshev_u(m: int, x: float) -> float:
    """Chebyshev polynomial of the second kind, stable on all of R.

    sin((m+1)phi)/sin(phi) with cos(phi) = x for |x| <= 1; the hyperbolic
    continuation sinh((m+1)t)/sinh(t), cosh(t) = |x|, with parity sign
    (-1)^m * U_m(|x|) for x < -1.
    """
    if m < 0:
        return 0.0
    ax = abs(x)
    sign = 1.0 if x >= 0 or m % 2 == 0 else -1.0
    if ax <= 1.0:
        phi = math.acos(ax)
        s = math.sin(phi)
        if s < 1e-12:
            return sign * (m + 1)
        return sign * math.sin((m + 1) * phi) / s
    t = math.acosh(ax)
    num = (m + 1) * t
    if num > 700.0:
        # would overflow; scale through exponentials
        return sign * math.exp(num - t) * (1.0 - math.exp(-2.0 * num)) / (1.0 - math.exp(-2.0 * t))
    return sign * math.sinh(num) / math.sinh(t)


def identical_closed_form(E: float, gamma: float, m: int, params: ChainParams) -> np.ndarray:
    """Closed form of the m-fold product when every gamma_j equals gamma.

    Entries are Chebyshev polynomials of the second kind in xi_1; both
    the trigonometric (|xi_1| <= 1) and hyperbolic branches are covered.
    """
    if m < 1:
        raise InvalidParameter("m must be >= 1")
    x1 = xi(E, params.alpha + gamma, params)
    return np.array([
        [chebyshev_u(m, x1), -chebyshev_u(m - 1, x1)],
        [chebyshev_u(m - 1, x1), -chebyshev_u(m - 2, x1)],
    ])


def eigenvectors(E: float, params: ChainParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors u_1 = (1, lambda_2), u_2 = (1, lambda_1) of the
    unperturbed N(E); N u_i = lambda_i u_i.  Gap energies only."""
    l1, l2 = lambda_pair(E, params.alpha, params)
    return np.array([1.0, l2]), np.array([1.0, l1])


@dataclass(frozen=True, eq=False)   # holds arrays: equal means identical
class EdgeSamples:
    """Sampled continuum wave on one ring: upper component psi, lower phi."""

    j: int
    x: np.ndarray          # global coordinates in [j*pi, (j+1)*pi]
    psi: np.ndarray        # complex
    phi: np.ndarray        # complex

    def to_csv_rows(self) -> list[tuple[float, float, float, float, float]]:
        return [
            (float(xv), pv.real, pv.imag, fv.real, fv.imag)
            for xv, pv, fv in zip(self.x, self.psi, self.phi)
        ]


def _edge_coefficients(E, psi_j, psi_j1, params):
    """Slope coefficients of the reconstruction on edge I_j."""
    c, s = kernels(E)
    ph = params.flux_phase
    coef_psi = (psi_j1 * ph - psi_j * c) / s
    coef_phi = (psi_j1 * np.conj(ph) - psi_j * c) / s
    return coef_psi, coef_phi, c, s


def reconstruct_edge(
    E: float,
    psi_j: float,
    psi_j1: float,
    j: int,
    params: ChainParams,
    samples: int = 257,
) -> EdgeSamples:
    """Continuum wave on the ring I_j = (j*pi, (j+1)*pi) from the two
    neighboring vertex values; endpoints reproduce psi_j, psi_j1 exactly
    and upper/lower components share them."""
    if on_flat_band(E):
        raise FlatBandPole(f"reconstruction undefined at E = {E}")
    coef_psi, coef_phi, _, _ = _edge_coefficients(E, psi_j, psi_j1, params)
    u = np.linspace(0.0, math.pi, samples)
    cosk, sink = kernels(E, u)
    gauge = np.exp(-1j * params.A * u)
    psi = gauge * (psi_j * cosk + coef_psi * sink)
    phi = np.conj(gauge) * (psi_j * cosk + coef_phi * sink)
    return EdgeSamples(j=j, x=u + j * math.pi, psi=psi, phi=phi)


def edge_quasiderivatives(E: float, psi_j, psi_j1, params: ChainParams):
    """Covariant derivatives of the reconstructed edge at its endpoints.

    Returns (Dpsi_left, Dpsi_right, Dphi_left, Dphi_right) where left is
    the limit at (j*pi)+ and right at ((j+1)*pi)-.  D(e^{-iAu} g(u)) =
    e^{-iAu} g'(u) on the upper halfcircle and the conjugate phase below.
    """
    if on_flat_band(E):
        raise FlatBandPole(f"quasiderivatives undefined at E = {E}")
    coef_psi, coef_phi, c, s = _edge_coefficients(E, psi_j, psi_j1, params)
    ph = params.flux_phase
    dpsi_left = coef_psi
    dphi_left = coef_phi
    dpsi_right = np.conj(ph) * (-psi_j * E * s + coef_psi * c)
    dphi_right = ph * (-psi_j * E * s + coef_phi * c)
    return dpsi_left, dpsi_right, dphi_left, dphi_right


@dataclass(frozen=True, eq=False)   # holds an array: equal means identical
class LatticeSolution:
    """Vertex values over a finite index window [j_start, j_start + len)."""

    E: float
    j_start: int
    values: np.ndarray

    @property
    def j_end(self) -> int:
        return self.j_start + len(self.values) - 1

    def value(self, j: int) -> float:
        return float(self.values[j - self.j_start])


def bound_state_lattice(
    E: float,
    gammas: Sequence[float],
    params: ChainParams,
    margin: int = 8,
) -> LatticeSolution:
    """Two-sided decaying lattice solution for a gap energy E.

    Geometric tails with ratio lambda(E) on both sides of the perturbed
    vertices 1..m (tails satisfy the unperturbed relation exactly), the
    perturbed recursion across the support.  At a characteristic-equation
    root the junction at vertex m+1 is seamless; otherwise the defect
    there measures the distance from the root.  margin, the tail length
    on each side, is an integer >= 1.
    """
    require_integer(margin, 1, "margin")
    lam = lambda_small(E, params.alpha, params)
    m = len(gammas)
    j_start = 1 - margin
    n_total = m + 1 + 2 * margin
    vals = np.zeros(n_total)
    # left tail: psi_{1-t} = lam^t, t = 0..margin
    for t in range(margin + 1):
        vals[margin - t] = lam**t
    # perturbed recursion across vertices 1..m gives psi_2..psi_{m+1}
    for j in range(1, m + 1):
        xi_j = xi(E, params.alpha + gammas[j - 1], params)
        idx = j - j_start
        vals[idx + 1] = 2.0 * xi_j * vals[idx] - vals[idx - 1]
    # right tail from psi_{m+1}
    top = m + 1 - j_start
    for t in range(1, margin + 1):
        vals[top + t] = vals[top] * lam**t
    return LatticeSolution(E=E, j_start=j_start, values=vals)


def vertex_condition_residual(
    E: float,
    lattice: LatticeSolution,
    gammas: Sequence[float],
    params: ChainParams,
) -> float:
    """Maximum violation of continuity and the delta-coupling condition.

    Reconstructs each pair of adjacent edges in the lattice window and
    evaluates, at every interior vertex j, the sum of outgoing covariant
    derivatives minus (alpha + gamma_j) * psi_j, plus the shared-value
    continuity defect.  gammas apply at vertices 1..m.
    """
    m = len(gammas)
    worst = 0.0
    for j in range(lattice.j_start + 1, lattice.j_end):
        psi_prev = lattice.value(j - 1)
        psi_here = lattice.value(j)
        psi_next = lattice.value(j + 1)
        # edge I_{j-1} ends at vertex j, edge I_j starts there
        _, dpsi_in, _, dphi_in = edge_quasiderivatives(E, psi_prev, psi_here, params)
        dpsi_out, _, dphi_out, _ = edge_quasiderivatives(E, psi_here, psi_next, params)
        coupling = params.alpha + (gammas[j - 1] if 1 <= j <= m else 0.0)
        delta = dpsi_out + dphi_out - dpsi_in - dphi_in - coupling * psi_here
        worst = max(worst, abs(delta))
        # continuity across the vertex (exact by construction; kept as a guard)
        left = reconstruct_edge(E, psi_prev, psi_here, j - 1, params, samples=2)
        right = reconstruct_edge(E, psi_here, psi_next, j, params, samples=2)
        worst = max(
            worst,
            abs(left.psi[-1] - right.psi[0]),
            abs(left.phi[-1] - right.phi[0]),
            abs(left.psi[-1] - left.phi[-1]),
        )
    return worst


def ring_l2_norm(
    E: float,
    psi_j: float,
    psi_j1: float,
    params: ChainParams,
    samples: int = 513,
) -> float:
    """L^2 norm (both components) of the reconstructed wave on ring I_j."""
    edge = reconstruct_edge(E, psi_j, psi_j1, params=params, j=0, samples=samples)
    density = np.abs(edge.psi) ** 2 + np.abs(edge.phi) ** 2
    return float(np.sqrt(np.trapezoid(density, edge.x)))


def in_spectrum(E: float, params: ChainParams) -> bool:
    """Membership of E in the absolutely continuous spectrum: |xi| <= 1.

    Flat-band energies are handled separately and report False here.
    Raises HalfIntegerFlux in the pure-point regime.
    """
    return abs(xi_background(E, params)) <= 1.0


def quasimomentum(E: float, params: ChainParams) -> float | None:
    """Bloch phase theta in [-pi, pi) with cos(theta) = xi(E); None in gaps.

    The two Floquet roots are e^{+-i theta}; the non-negative one is
    returned (theta = -pi stands for xi = -1).
    """
    x = xi_background(E, params)
    if abs(x) > 1.0:
        return None
    theta = math.acos(max(-1.0, min(1.0, x)))
    return -math.pi if theta >= math.pi else theta


@dataclass(frozen=True, eq=False)   # holds an array: equal means identical
class FlatBandEigenfunction:
    """Sampled compactly supported eigenfunction at E = n^2.

    Components live on one ring (integer flux) or two adjacent rings,
    each parametrized by x in [0, pi]; 'upper'/'lower' distinguish the
    two halfcircles.  Vanishes at every vertex.  The four components are
    sampled at x on first use.
    """

    n: int
    params: ChainParams
    x: np.ndarray
    single_ring: bool

    @functools.cached_property
    def upper_left(self) -> np.ndarray:
        return self.evaluate("upper", 0, self.x)

    @functools.cached_property
    def lower_left(self) -> np.ndarray:
        return self.evaluate("lower", 0, self.x)

    @functools.cached_property
    def upper_right(self) -> np.ndarray:
        return self.evaluate("upper", 1, self.x)

    @functools.cached_property
    def lower_right(self) -> np.ndarray:
        return self.evaluate("lower", 1, self.x)

    def evaluate(self, component: str, ring: int, x) -> np.ndarray:
        """Analytic values of one component; usable for refinement studies."""
        x = np.asarray(x, dtype=float)
        A, n = self.params.A, self.n
        sin_nx = np.sin(n * x)
        if ring == 0:
            if component == "upper":
                return np.exp(-1j * A * x) * sin_nx
            return -np.exp(1j * A * x) * sin_nx
        if self.single_ring:
            return np.zeros_like(x, dtype=complex)
        if component == "upper":
            return (-1.0) ** (n + 1) * np.exp(1j * A * (math.pi - x)) * sin_nx
        return (-1.0) ** n * np.exp(1j * A * (x - math.pi)) * sin_nx


def flat_band_eigenfunction(n: int, params: ChainParams, samples: int = 257) -> FlatBandEigenfunction:
    """Explicit eigenfunction at E = n^2 on one or two adjacent rings."""
    require_integer(n, 1, "n")
    x = np.linspace(0.0, math.pi, samples)
    return FlatBandEigenfunction(n=n, params=params, x=x, single_ring=params.is_non_magnetic)


def identical_conditions(E: float, gamma: float, m: int, params: ChainParams) -> tuple[float, float]:
    """Characteristic conditions for m identical impurities of strength gamma.

    Returns the two right-hand sides (cot branch, tan branch); E is a
    bound state iff gamma equals one of them.  The Chebyshev angle phi
    with cos(phi) = xi_1 continues to a hyperbolic branch for |xi_1| > 1;
    interior poles of cot/tan (at most m-2 per gap) surface as +-inf.
    """
    if m < 2:
        raise InvalidParameter("identical-array conditions need m >= 2")
    if on_flat_band(E):
        raise FlatBandPole(f"conditions undefined at E = {E}")
    x1 = xi(E, params.alpha + gamma, params)
    phi = cmath.acos(complex(x1))
    half = 0.5 * (m - 1) * phi
    sin_half, cos_half = cmath.sin(half), cmath.cos(half)
    sin_phi = cmath.sin(phi)
    base = 4.0 * params.cos_flux / s_kernel(E)
    f = f_single(E, params)
    if abs(sin_half) < 1e-300:
        cot_branch = math.copysign(math.inf, -base)
    else:
        cot_branch = f - base * (cos_half / sin_half * sin_phi).real
    if abs(cos_half) < 1e-300:
        tan_branch = math.copysign(math.inf, base)
    else:
        tan_branch = f + base * (sin_half / cos_half * sin_phi).real
    return cot_branch, tan_branch


def count_states_per_gap(
    pattern: PerturbationPattern,
    layout: band_mod.SpectrumLayout,
    params: ChainParams,
) -> list[int]:
    """Number of bound states in each gap piece of the layout."""
    found = [s.gap_index for s in solve_gaps(pattern, layout.gaps, params)]
    return [found.count(i) for i in range(len(layout.gaps))]
