"""Branch-safe evaluation of the dispersion function and the quantities
built on it, and the grid root enumerator.

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

kernels(E, x) evaluates the pair (cos kx, sin(kx)/k) and is the only code
that splits on the sign of E; c_kernel, s_kernel, cos_k and sin_k_over_k
are views of it.  Each spectral formula (xi, lambda_small, f_single, and
the residuals of the impurity and asymptotics modules) is written once and
takes E as a float or as an ndarray: kernels uses math's functions for a
float and numpy's for an array, on_flat_band applies the rule E = n^2 to
either, and gap_surd raises FlatBandPole and then InsideBand for a float
where a gap-only quantity is undefined, and gives NaN there for an array.
A float in gives a Python float out, with no numpy call on the way.

find_roots is the one root enumerator, of band edges and bound states
alike: it decides what a root of a scan is and polishes it.  numpy's
transcendentals may differ from math's in the last bit, so it scans F on
an array grid but polishes F on floats: every root is the one the float
formula alone gives.

The polish is brentq, Brent's method (R. P. Brent, Algorithms for
Minimization without Derivatives, Prentice-Hall 1973, ch. 4) as scipy's
optimize.brentq runs it, ported step for step onto Python floats so that
the analytic modules need numpy only and keep every bit of scipy's roots.
The loop is written once, as the generator brent_lane, which yields each
abscissa and is sent F there; brentq drives one lane with F.  Where one
evaluation of F is costly, the caller passes find_roots a batch evaluator
and the brackets are polished in lockstep instead: lockstep evaluates
every pending lane's next abscissa in one call.  That call may evaluate F
as an array, and keep every bit, if it takes the kernels from math on
each float: the rest of a spectral formula is IEEE arithmetic, which
numpy rounds as Python does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FlatBandPole, HalfIntegerFlux, InsideBand, InvalidParameter

# cos(A*pi) below this is treated as exactly zero (half-integer flux)
TOL_HALF = 1e-12
# |k - round(k)| below this flags the excluded set E = n^2
TOL_FLAT = 1e-12
# relative brentq tolerance of the root polishes
RTOL_ROOT = 8.9e-16
# brentq's iteration limit (scipy's default)
_MAXITER = 100


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
            raise InvalidParameter("flux parameter A must be finite")
        if not math.isfinite(self.alpha):
            raise InvalidParameter("coupling alpha must be finite (alpha = inf not supported)")
        object.__setattr__(self, "cos_flux", math.cos(self.A * math.pi))

    @classmethod
    def from_cos_flux(cls, cos_flux: float, alpha: float) -> "ChainParams":
        """Build params from the value of cos(A*pi) directly (A in [0, 1]).

        Stores the given cosine exactly so sweeps specified in terms of
        cos(A*pi) do not pick up an acos/cos round trip.
        """
        if not -1.0 <= cos_flux <= 1.0:
            raise InvalidParameter("cos(A*pi) must lie in [-1, 1]")
        p = cls(math.acos(cos_flux) / math.pi, alpha)
        object.__setattr__(p, "cos_flux", float(cos_flux))
        return p

    @cached_property
    def is_half_integer_flux(self) -> bool:
        # computed on first read, after from_cos_flux/with_alpha have set
        # cos_flux; xi reads it on every call
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


def on_flat_band(E):
    """True where E is (numerically) a squared positive integer: E > 0 and
    |sqrt(E) - n| < TOL_FLAT for n = round(sqrt(E)) >= 1.  E is a float
    or an ndarray (then elementwise); NaN and +-inf give False."""
    if isinstance(E, np.ndarray):
        k = np.sqrt(np.abs(E))
        n = np.round(k)
        with np.errstate(invalid="ignore"):  # inf - inf at E = +-inf
            return (E > 0.0) & (np.abs(k - n) < TOL_FLAT) & (n >= 1)
    if not 0.0 < E < math.inf:  # NaN included
        return False
    k = math.sqrt(E)
    n = round(k)
    return n >= 1 and abs(k - n) < TOL_FLAT


def kernels(E, x=math.pi):
    """(cos(k*x), sin(k*x)/k) for E = k^2, continued across E < 0 as
    (cosh(kappa*x), sinh(kappa*x)/kappa), kappa = sqrt(-E), and (1, x)
    at E = 0.

    E is a float or an ndarray; for a float E, x may be an ndarray of
    positions.  A float E with a float x uses math's functions and gives
    Python floats; otherwise numpy's give arrays.
    """
    if not isinstance(E, np.ndarray):
        f = math if isinstance(x, float) else np
        if E > 0.0:
            k = math.sqrt(E)
            return f.cos(k * x), f.sin(k * x) / k
        if E < 0.0:
            k = math.sqrt(-E)
            return f.cosh(k * x), f.sinh(k * x) / k
        return f.cos(0.0 * x), 1.0 * x   # the k -> 0 limits, shaped like x
    k = np.sqrt(np.abs(E))
    kx = k * x
    pos, neg = E > 0.0, E < 0.0
    c, s = np.ones(E.shape), np.full(E.shape, x)
    c[pos], s[pos] = np.cos(kx[pos]), np.sin(kx[pos]) / k[pos]
    c[neg], s[neg] = np.cosh(kx[neg]), np.sinh(kx[neg]) / k[neg]
    return c, s


def cos_k(E, x):
    """cos(k*x) over both branches: cosh(kappa*x) for E < 0."""
    return kernels(E, x)[0]


def sin_k_over_k(E, x):
    """sin(k*x)/k over both branches; x at E = 0."""
    return kernels(E, x)[1]


def c_kernel(E):
    """cos(k*pi) over both branches; cosh(kappa*pi) for E < 0."""
    return kernels(E)[0]


def s_kernel(E):
    """sin(k*pi)/k over both branches; pi at E = 0, sinh(kappa*pi)/kappa for E < 0."""
    return kernels(E)[1]


def gap_surd(E, x, flat: bool = True):
    """(sgn(x), sqrt(x^2 - 1)) for x = xi(E), where the gap-only
    quantities built on them are defined.

    For a float E, raises FlatBandPole at E = n^2 (when flat) and then
    InsideBand where |x| <= 1; for an array, the surd is NaN at exactly
    those points.
    """
    if isinstance(E, np.ndarray):
        undefined = np.abs(x) <= 1.0
        if flat:
            undefined |= on_flat_band(E)
        return np.sign(x), np.sqrt(np.where(undefined, np.nan, x * x - 1.0))
    if flat and on_flat_band(E):
        raise FlatBandPole(f"s_kernel vanishes at E = {E}")
    if abs(x) <= 1.0:
        raise InsideBand(f"|xi| = {abs(x)} <= 1 at E = {E}")
    return (1.0 if x > 0 else -1.0), math.sqrt(x * x - 1.0)


def xi(E, coupling: float, params: ChainParams, cs=None):
    """Dispersion function (cos k*pi + (coupling/4k) sin k*pi)/cos(A*pi).

    The spectrum of the periodic operator is {E : |xi(E, alpha)| <= 1}
    plus the flat bands.  Undefined at half-integer flux.  cs =
    kernels(E) may be passed to reuse them across couplings.
    """
    if params.is_half_integer_flux:
        raise HalfIntegerFlux("xi undefined: cos(A*pi) = 0")
    c, s = kernels(E) if cs is None else cs
    return (c + 0.25 * coupling * s) / params.cos_flux


def xi_background(E, params: ChainParams):
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
    s, root = gap_surd(E, x, flat=False)
    big = abs(x) + root
    lam_large = s * big           # xi + sgn(xi)*sqrt(xi^2-1)
    lam_small = s / big           # xi - sgn(xi)*sqrt(xi^2-1)
    if x > 0:
        return lam_large, lam_small
    return lam_small, lam_large


def lambda_small(E, coupling: float, params: ChainParams):
    """The Floquet multiplier of modulus < 1: xi - sgn(xi)*sqrt(xi^2 - 1)."""
    x = xi(E, coupling, params)
    s, root = gap_surd(E, x, flat=False)
    return s / (abs(x) + root)


def f_single(E, params: ChainParams):
    """Single-impurity coupling function.

    f(E) = -sgn(xi) * (4 cos(A*pi)/s_kernel(E)) * sqrt(xi^2 - 1); a gap
    energy E is a bound state of the one-vertex perturbation of strength
    gamma iff f(E) = gamma.  Strictly increasing on every gap, with range
    alternating (-inf, 0) / (0, inf) starting from (-inf, 0) below the
    first band.
    """
    c, s = kernels(E)
    x = xi(E, params.alpha, params, (c, s))
    sgn, root = gap_surd(E, x)
    return -sgn * (4.0 * params.cos_flux / s) * root


def find_roots(F, grid: np.ndarray, xtol: float, ends=(), batch=None) -> list[float]:
    """All roots of F that the grid resolves, ascending: every sign change
    of F(grid) (NaN where F is undefined) polished by Brent's method on F
    over floats to xtol and the relative tolerance RTOL_ROOT, and the grid
    points where F(grid) is exactly zero.

    The grid may join several pieces, each ending before one of the
    indices ends: no bracket crosses from one piece into the next.  Each
    bracket is polished by brentq on F, or, given batch, a list-to-list
    evaluator of F, all of them in lockstep on batch.  F is called once
    with the grid object itself, then only on Python floats, so a caller
    may answer `E is grid` from a scan it already has.
    """
    # a scan reaches far past where F is of interest (long patterns overflow
    # far below the first band); inf and NaN there never bracket a root
    with np.errstate(over="ignore", invalid="ignore"):
        vals = F(grid)
        changes = np.flatnonzero(vals[:-1] * vals[1:] < 0).tolist()
    cut = {e - 1 for e in ends}   # the bracket (i, i + 1) crosses the end i + 1
    brackets = [(float(grid[i]), float(grid[i + 1])) for i in changes if i not in cut]
    if batch is None:
        roots = [brentq(F, a, b, xtol, RTOL_ROOT) for a, b in brackets]
    else:
        roots = lockstep(batch, [brent_lane(a, b, xtol, RTOL_ROOT) for a, b in brackets])
    roots.extend(float(grid[i]) for i in np.flatnonzero(vals == 0.0))
    return sorted(roots)


def brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of f in the sign-changing bracket [xa, xb], by the loop of
    scipy's optimize.brentq (Zeros/brentq.c) on Python floats: the same
    iterates, the same root bit for bit, the same exceptions.

    Returns an end where f is exactly 0.  Raises ValueError for ends of
    one sign and where f is NaN; RuntimeError after _MAXITER iterations.
    f is called on floats only.  xtol > 0 and rtol >= 4 eps, as scipy
    requires, are the caller's to keep.
    """
    lane = brent_lane(xa, xb, xtol, rtol)
    x = next(lane)
    try:
        while True:
            x = lane.send(f(x))
    except StopIteration as done:
        return done.value


def brent_lane(xa: float, xb: float, xtol: float, rtol: float):
    """brentq's loop as a generator, one lane of a lockstep polish: it
    yields each abscissa at which f is wanted, is sent f there, and returns
    the root (or raises) as brentq does."""
    xpre, xcur = float(xa), float(xb)
    fpre = float((yield xpre))
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = float((yield xcur))
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # the loop of brentq.c line for line: xblk is the contrapoint, spre
    # and scur the previous and current steps, delta half the tolerance
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf    # C divides to inf or NaN, and either one bisects
            a, b = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a if a < b else b):   # good short step
                spre, scur = scur, stry
            else:                                     # bisect
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float((yield xcur))
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def lockstep(F, lanes) -> list:
    """What each of the generators lanes returns, in order, running them
    side by side: each round, F maps the list of every pending lane's
    next abscissa to the list of values there.  A lane's exception, or
    F's, propagates."""
    results = [None] * len(lanes)
    pending = [(i, lane, next(lane)) for i, lane in enumerate(lanes)]
    while pending:
        running = []
        for (i, lane, _), value in zip(pending, F([x for _, _, x in pending])):
            try:
                running.append((i, lane, lane.send(value)))
            except StopIteration as done:
                results[i] = done.value
        pending = running
    return results


def _nan_value(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
