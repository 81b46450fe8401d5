"""Branch-safe evaluation of the dispersion function and derived scalars,
over single energies and over arrays, and the grid root enumerator.

Energies parametrize everything directly: E = k^2 with k = sqrt(E) for
E > 0 (principal branch) and k = i*kappa, kappa = sqrt(-E) > 0, for E < 0.
The two kernels

    s_kernel(E) = sin(k*pi)/k      (-> pi as E -> 0)
    c_kernel(E) = cos(k*pi)

are entire in E and absorb the real/imaginary momentum split, so every
spectral quantity below is computed in real arithmetic with no explicit
branch switching and no removable singularity at E = 0.

Useful identities, valid on both branches:

    4*k/sin(k*pi)  = 4/s_kernel(E)
    k*sin(k*pi)    = E*s_kernel(E)
    k*cot(k*pi)    = c_kernel(E)/s_kernel(E)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import FlatBandPole, HalfIntegerFlux, InsideBand

# cos(A*pi) below this is treated as exactly zero (half-integer flux)
TOL_HALF = 1e-12
# |k - round(k)| below this flags the excluded set E = n^2
TOL_FLAT = 1e-12
# relative brentq tolerance of the root polishes
RTOL_ROOT = 8.9e-16


@dataclass(frozen=True)
class ChainParams:
    """Flux parameter and background coupling of the periodic chain.

    A is the dimensionless flux through each ring divided by 2*pi; only
    its value mod 1 matters physically.  alpha is the delta coupling
    strength shared by all unperturbed vertices.  The ring half
    circumference is fixed at pi and not stored.
    """

    A: float
    alpha: float
    cos_flux: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.A):
            raise ValueError("flux parameter A must be finite")
        if not math.isfinite(self.alpha):
            raise ValueError("coupling alpha must be finite (alpha = inf not supported)")
        object.__setattr__(self, "cos_flux", math.cos(self.A * math.pi))

    @classmethod
    def from_cos_flux(cls, cos_flux: float, alpha: float) -> "ChainParams":
        """Build params from the value of cos(A*pi) directly (A in [0, 1]).

        Stores the given cosine exactly so sweeps specified in terms of
        cos(A*pi) do not pick up an acos/cos round trip.
        """
        if not -1.0 <= cos_flux <= 1.0:
            raise ValueError("cos(A*pi) must lie in [-1, 1]")
        p = cls(math.acos(cos_flux) / math.pi, alpha)
        object.__setattr__(p, "cos_flux", float(cos_flux))
        return p

    @property
    def is_half_integer_flux(self) -> bool:
        return abs(self.cos_flux) < TOL_HALF

    @property
    def is_non_magnetic(self) -> bool:
        return abs(abs(self.cos_flux) - 1.0) < TOL_HALF

    def with_alpha(self, alpha: float) -> "ChainParams":
        """The same flux, cos(A*pi) kept bit for bit, with another coupling."""
        p = ChainParams(self.A, alpha)
        object.__setattr__(p, "cos_flux", self.cos_flux)
        return p

    @property
    def flux_phase(self) -> complex:
        """exp(i*A*pi), the per-ring gauge phase."""
        return complex(math.cos(self.A * math.pi), math.sin(self.A * math.pi))


def on_flat_band(E: float) -> bool:
    """True iff E is (numerically) a squared positive integer; the rule of
    flat_band_mask."""
    if not E > 0.0:  # NaN included
        return False
    k = math.sqrt(E)
    n = round(k)
    return n >= 1 and abs(k - n) < TOL_FLAT


def cos_k(E: float, x: float) -> float:
    """cos(k*x) continued across both branches: cosh(kappa*x) for E < 0."""
    if E > 0.0:
        return math.cos(math.sqrt(E) * x)
    if E < 0.0:
        return math.cosh(math.sqrt(-E) * x)
    return 1.0


def sin_k_over_k(E: float, x: float) -> float:
    """sin(k*x)/k continued across both branches; equals x at E = 0."""
    if E > 0.0:
        k = math.sqrt(E)
        return math.sin(k * x) / k
    if E < 0.0:
        kap = math.sqrt(-E)
        return math.sinh(kap * x) / kap
    return x


def s_kernel(E: float) -> float:
    """sin(k*pi)/k over both branches; pi at E = 0, sinh(kappa*pi)/kappa for E < 0."""
    return sin_k_over_k(E, math.pi)


def c_kernel(E: float) -> float:
    """cos(k*pi) over both branches; cosh(kappa*pi) for E < 0."""
    return cos_k(E, math.pi)


def xi(E: float, coupling: float, params: ChainParams, kernels=None) -> float:
    """Dispersion function (cos k*pi + (coupling/4k) sin k*pi)/cos(A*pi).

    The spectrum of the periodic operator is {E : |xi(E, alpha)| <= 1}
    plus the flat bands.  Undefined at half-integer flux.  kernels =
    (c_kernel(E), s_kernel(E)) may be passed to reuse them across couplings.
    """
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("xi undefined: cos(A*pi) = 0")
    c, s = (c_kernel(E), s_kernel(E)) if kernels is None else kernels
    return (c + 0.25 * coupling * s) / params.cos_flux


def xi_background(E: float, params: ChainParams) -> float:
    """xi evaluated with the unperturbed coupling alpha."""
    return xi(E, params.alpha, params)


def lambda_pair(E: float, coupling: float, params: ChainParams) -> tuple[float, float]:
    """Floquet multipliers (lambda_1, lambda_2) = xi +- sqrt(xi^2 - 1).

    Only defined in gaps (|xi| > 1).  Computed cancellation-free: the
    larger-magnitude root from the sign-matched surd, the other as its
    reciprocal, so lambda_1 * lambda_2 = 1 to machine precision even for
    xi of order 1e4.
    """
    x = xi(E, coupling, params)
    if abs(x) <= 1.0:
        raise InsideBand(f"|xi| = {abs(x)} <= 1 at E = {E}")
    s = 1.0 if x > 0 else -1.0
    big = abs(x) + math.sqrt(x * x - 1.0)
    lam_large = s * big           # xi + sgn(xi)*sqrt(xi^2-1)
    lam_small = s / big           # xi - sgn(xi)*sqrt(xi^2-1)
    if x > 0:
        return lam_large, lam_small
    return lam_small, lam_large


def lambda_small(E: float, coupling: float, params: ChainParams) -> float:
    """The Floquet multiplier of modulus < 1: xi - sgn(xi)*sqrt(xi^2 - 1)."""
    return min(lambda_pair(E, coupling, params), key=abs)


def f_single(E: float, params: ChainParams) -> float:
    """Single-impurity coupling function.

    f(E) = -sgn(xi) * (4 cos(A*pi)/s_kernel(E)) * sqrt(xi^2 - 1); a gap
    energy E is a bound state of the one-vertex perturbation of strength
    gamma iff f(E) = gamma.  Strictly increasing on every gap, with range
    alternating (-inf, 0) / (0, inf) starting from (-inf, 0) below the
    first band.
    """
    if on_flat_band(E):
        raise FlatBandPole(f"s_kernel vanishes at E = {E}")
    x = xi_background(E, params)
    if abs(x) <= 1.0:
        raise InsideBand(f"|xi| = {abs(x)} <= 1 at E = {E}")
    s = s_kernel(E)
    sgn = 1.0 if x > 0 else -1.0
    return -sgn * (4.0 * params.cos_flux / s) * math.sqrt(x * x - 1.0)


# -- array kernels: the same quantities over arrays of energies, NaN where the
# scalar kernel raises InsideBand or FlatBandPole.  numpy's transcendentals
# may differ from math's in the last bit, so find_roots polishes on scalars.


def flat_band_mask(E) -> np.ndarray:
    """on_flat_band over an array of energies."""
    E = np.asarray(E, dtype=float)
    mag = np.sqrt(np.abs(E))
    n = np.round(mag)
    return (E > 0.0) & (np.abs(mag - n) < TOL_FLAT) & (n >= 1)


def kernels_vec(E) -> tuple[np.ndarray, np.ndarray]:
    """(c_kernel, s_kernel) over an array of energies."""
    E = np.asarray(E, dtype=float)
    k = np.sqrt(np.abs(E))
    pos, neg = E > 0.0, E < 0.0
    c, s = np.ones_like(E), np.full_like(E, math.pi)
    c[pos], s[pos] = np.cos(k[pos] * math.pi), np.sin(k[pos] * math.pi) / k[pos]
    c[neg], s[neg] = np.cosh(k[neg] * math.pi), np.sinh(k[neg] * math.pi) / k[neg]
    return c, s


def xi_vec(E, coupling: float, params: ChainParams, kernels=None) -> np.ndarray:
    """xi over an array of energies; pass kernels = kernels_vec(E) to reuse them."""
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("xi undefined: cos(A*pi) = 0")
    c, s = kernels_vec(E) if kernels is None else kernels
    return (c + 0.25 * coupling * s) / params.cos_flux


def lambda_small_vec(E, coupling: float, params: ChainParams, kernels=None) -> np.ndarray:
    """lambda_small over an array of energies; NaN inside bands."""
    x = xi_vec(E, coupling, params, kernels)
    with np.errstate(invalid="ignore"):
        lam = np.sign(x) / (np.abs(x) + np.sqrt(x * x - 1.0))
    return np.where(np.abs(x) > 1.0, lam, np.nan)


def f_single_vec(E, params: ChainParams) -> np.ndarray:
    """f_single over an array of energies; NaN inside bands and on flat bands."""
    E = np.asarray(E, dtype=float)
    c, s = kernels_vec(E)
    x = xi_vec(E, params.alpha, params, (c, s))
    with np.errstate(invalid="ignore", divide="ignore"):
        f = -np.sign(x) * (4.0 * params.cos_flux / s) * np.sqrt(x * x - 1.0)
    return np.where((np.abs(x) > 1.0) & ~flat_band_mask(E), f, np.nan)


def find_roots(F_vec, F_scalar, grid: np.ndarray, xtol: float, rtol: float = RTOL_ROOT) -> list[float]:
    """All roots of F that the grid resolves, ascending: every sign change
    of F_vec(grid) (NaN where F is undefined) polished by brentq on
    F_scalar, and the grid points where F_vec is exactly zero."""
    vals = F_vec(grid)
    roots = [
        float(brentq(F_scalar, float(grid[i]), float(grid[i + 1]), xtol=xtol, rtol=rtol))
        for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]
    ]
    roots.extend(float(E) for E in grid[vals == 0.0])
    return sorted(roots)
