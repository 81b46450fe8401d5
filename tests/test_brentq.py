"""core.brentq, and core.brent_lane run in lockstep, against
scipy.optimize.brentq: the same root bit for bit, reached through the
same abscissae, and the same exceptions."""

import functools
import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from ringchain import ChainParams, PerturbationPattern, band_edges, core
from ringchain.core import RTOL_ROOT, brent_lane, brentq, f_single, lockstep, xi_background
from ringchain.errors import FlatBandPole, InsideBand
from ringchain.impurity import FLOAT_LANES, batch_residual, char_residual

# 4 eps, the smallest relative tolerance scipy's brentq accepts (its default)
RTOL_MIN = 4 * 2.0**-52

# (xtol, rtol) of the package's polishes: band edges, bound states, E*
TOLERANCES = st.sampled_from([(1e-10, RTOL_ROOT), (1e-13, RTOL_ROOT), (1e-14, RTOL_MIN), (2e-12, RTOL_MIN)])
CUTOFF = 30.0
SCAN_POINTS = 400


def outcome(solver, f, a, b, xtol, rtol):
    """(root as hex, or exception type and message; abscissae f saw)."""
    calls = []

    def recorded(x):
        calls.append(x)
        return f(x)

    try:
        result = solver(recorded, a, b, xtol, rtol).hex()
    except (ValueError, RuntimeError) as exc:
        result = (type(exc), str(exc))
    return result, calls


def scipys(f, a, b, xtol, rtol):
    return scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=core._MAXITER)


def assert_same(f, a, b, xtol=1e-12, rtol=RTOL_ROOT):
    ours = outcome(brentq, f, a, b, xtol, rtol)
    assert ours == outcome(scipys, f, a, b, xtol, rtol)
    return ours[0]


def value(F, E):
    try:
        return F(E)
    except (InsideBand, FlatBandPole):
        return math.nan


def scan(F, lo, hi):
    """A float scan of F over [lo, hi], NaN where F is undefined, and the
    indices of its sign changes."""
    grid = np.linspace(lo, hi, SCAN_POINTS)
    vals = np.array([value(F, float(E)) for E in grid])
    return grid, vals, [i for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0]


def draw_bracket(data, F, lo, hi):
    """A random sign-changing bracket of F within [lo, hi]: each end lies
    anywhere in the run of one sign (no NaN) of a float scan that flanks
    a sign change, in either order."""
    grid, vals, changes = scan(F, lo, hi)
    assume(changes)
    i = data.draw(st.sampled_from(changes))
    left, right = i, i + 1
    while left > 0 and vals[left - 1] * vals[i] > 0:
        left -= 1
    while right < len(grid) - 1 and vals[right + 1] * vals[i + 1] > 0:
        right += 1
    a = data.draw(st.floats(float(grid[left]), float(grid[i])))
    b = data.draw(st.floats(float(grid[i + 1]), float(grid[right])))
    assume(value(F, a) * value(F, b) < 0)   # a pair of roots the scan missed
    return (b, a) if data.draw(st.booleans()) else (a, b)


magnetic = st.builds(
    lambda c, sign, alpha: ChainParams.from_cos_flux(sign * c, alpha),
    st.floats(0.05, 0.95), st.sampled_from([-1.0, 1.0]), st.floats(-4.0, 4.0),
)


def gap_piece(data, params):
    gaps = band_edges(params, CUTOFF).gaps
    lo, hi = data.draw(st.sampled_from(gaps))
    return (hi - 20.0 if math.isinf(lo) else lo), hi


@given(params=magnetic, target=st.sampled_from([1.0, -1.0]), tols=TOLERANCES, data=st.data())
def test_band_edge_polish_is_scipys(params, target, tols, data):
    F = lambda E: xi_background(E, params) - target
    a, b = draw_bracket(data, F, -10.0, CUTOFF)
    assert_same(F, a, b, xtol=tols[0], rtol=tols[1])


@given(params=magnetic, u=st.floats(0.01, 0.99), tols=TOLERANCES, data=st.data())
def test_single_impurity_polish_is_scipys(params, u, tols, data):
    lo, hi = gap_piece(data, params)
    gamma = value(lambda E: f_single(E, params), lo + u * (hi - lo))
    assume(math.isfinite(gamma))
    F = lambda E: f_single(E, params) - gamma
    a, b = draw_bracket(data, F, lo, hi)
    assert_same(F, a, b, xtol=tols[0], rtol=tols[1])


@settings(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(
    params=magnetic,
    gammas=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
    tols=TOLERANCES,
    data=st.data(),
)
def test_pattern_polish_is_scipys(params, gammas, tols, data):
    pattern = PerturbationPattern(tuple(gammas))
    F = lambda E: char_residual(E, pattern, params)
    lo, hi = gap_piece(data, params)
    a, b = draw_bracket(data, F, lo, hi)
    assert_same(F, a, b, xtol=tols[0], rtol=tols[1])


# smooth closed forms with a root at r, one scaled so far down that the
# extrapolation's denominator underflows to 0 (C's division gives inf or
# NaN there, and both bisect)
CLOSED_FORMS = [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0945514815423265),
    (lambda x: math.cos(x) - x, 0.7390851332151607),
    (lambda x: math.exp(x) - 2.0, math.log(2.0)),
    (lambda x: math.tanh(3.0 * (x - 0.3)) + 0.01 * (x - 0.3), 0.3),
    (lambda x: (x - 1.25) ** 5, 1.25),
    (lambda x: 1e-250 * (math.atan(x + 0.4) + 0.1 * (x + 0.4) ** 3), -0.4),
]


@pytest.mark.parametrize("f,root", CLOSED_FORMS, ids=["cubic", "cos", "exp", "tanh", "quintic", "tiny"])
@given(left=st.floats(0.0, 3.0), right=st.floats(0.0, 3.0), tols=TOLERANCES, swap=st.booleans())
def test_closed_form_polish_is_scipys(f, root, left, right, tols, swap):
    a, b = root - left, root + right
    assert_same(f, *((b, a) if swap else (a, b)), xtol=tols[0], rtol=tols[1])


# coarse tolerances, where the "- delta" of brentq.c's step test
# 2|stry| < MIN(|spre|, 3|sbis| - delta) picks the next abscissa
@pytest.mark.parametrize(
    "f,a,b,rtol",
    [
        (lambda x: math.exp(x) - 0.949438019914592, -1.8027405951696118, 0.579280558698327, RTOL_MIN),
        (lambda x: x**3 - 2.0 * x - 1.0294218057271478, -0.776340022190583, -1.2540309159182932, 1e-6),
    ],
    ids=["exp", "cubic"],
)
def test_coarse_tolerance_steps_are_scipys(f, a, b, rtol):
    assert_same(f, a, b, xtol=0.1, rtol=rtol)


def test_zero_ends_return_early():
    f = lambda x: (x - 1.0) * (x - 2.0)
    assert assert_same(f, 1.0, 1.5) == (1.0).hex()
    assert assert_same(f, 0.0, 1.0) == (1.0).hex()
    assert assert_same(f, 1.0, 2.0) == (1.0).hex()      # the first end wins
    assert assert_same(lambda x: -0.0 * x, 3.0, 4.0) == (3.0).hex()


def test_same_sign_ends_raise():
    result = assert_same(lambda x: x * x + 1.0, -1.0, 2.0)
    assert result == (ValueError, "f(a) and f(b) must have different signs")


@pytest.mark.parametrize(
    "f",
    [
        lambda x: math.nan if x < 0 else x - 0.5,          # at the first end
        lambda x: math.nan if x > 0.9 else x - 0.5,        # at the second end
        lambda x: math.nan if 0.0 < x < 0.9 else x - 0.5,  # inside
    ],
    ids=["first-end", "second-end", "inside"],
)
def test_nan_raises(f):
    result = assert_same(f, -0.25, 1.0)
    assert result[0] is ValueError and "is NaN" in result[1]


@pytest.mark.parametrize("maxiter", [0, 1, 3])
def test_maxiter_raises(maxiter, monkeypatch):
    monkeypatch.setattr(core, "_MAXITER", maxiter)
    result = assert_same(lambda x: (x - 0.3) ** 5, -1.0, 2.0)
    assert result == (RuntimeError, f"Failed to converge after {maxiter} iterations.")


def test_maxiter_is_scipys_default():
    assert core._MAXITER == inspect.signature(scipy_brentq).parameters["maxiter"].default


def test_rtol_floor_is_scipys():
    assert RTOL_MIN == 4 * np.finfo(float).eps
    assert_same(lambda x: x - 1.0 / 3.0, 0.0, 1.0, rtol=RTOL_MIN)


def recorded_lane(lane, seen):
    """The lane, noting each abscissa it yields in seen."""
    x = next(lane)
    while True:
        seen.append(x)
        try:
            x = lane.send((yield x))
        except StopIteration as done:
            return done.value


def lockstep_outcomes(F, f, brackets, xtol, rtol):
    """Each bracket's (root as hex, abscissae), polished in one lockstep on
    the list map F, and what scipy gives each bracket alone on f."""
    seen = [[] for _ in brackets]
    lanes = [recorded_lane(brent_lane(a, b, xtol, rtol), calls) for (a, b), calls in zip(brackets, seen)]
    ours = [(r.hex(), calls) for r, calls in zip(lockstep(F, lanes), seen)]
    return ours, [outcome(scipys, f, a, b, xtol, rtol) for a, b in brackets]


@settings(suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow], deadline=None, max_examples=40)
@given(
    params=magnetic,
    m=st.sampled_from([1, 3, 8, 50]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(FLOAT_LANES + 1, 20),
    tols=TOLERANCES,
    data=st.data(),
)
def test_pattern_lockstep_is_scipys(params, m, seed, n, tols, data):
    """More brackets than FLOAT_LANES: the first rounds run on batch_residual's
    arrays, and the last, as lanes finish, on the float char_residual."""
    pattern = PerturbationPattern(tuple(np.random.default_rng(seed).uniform(-3.0, 3.0, m)))
    f = lambda E: char_residual(E, pattern, params)
    scanned = functools.lru_cache(maxsize=None)(lambda E: value(f, E))   # each gap piece is scanned once
    pieces = [(hi - 20.0 if math.isinf(lo) else lo, hi) for lo, hi in band_edges(params, CUTOFF).gaps]
    with np.errstate(over="ignore"):   # a long pattern overflows far below the first band
        pieces = [piece for piece in pieces if scan(scanned, *piece)[2]]
        assume(pieces)
        brackets = [draw_bracket(data, scanned, *data.draw(st.sampled_from(pieces))) for _ in range(n)]
    want = [outcome(scipys, f, a, b, *tols) for a, b in brackets]
    assume(all(isinstance(root, str) for root, _ in want))   # scipy raises on none of them
    residuals, rounds = batch_residual(pattern, params), []
    ours, scipy = lockstep_outcomes(lambda xs: rounds.append(len(xs)) or residuals(xs), f, brackets, *tols)
    assert ours == scipy == want
    assert rounds[0] > FLOAT_LANES


def cubic(x):
    return (x - 1.0) * (x - 2.5) * (x + 0.7)


@given(tols=TOLERANCES)
def test_lanes_that_finish_early_beside_lanes_that_run_on(tols):
    brackets = [
        (1.0, 1.7),                      # an end where f is exactly 0
        (-3.0, 0.0),
        (2.5 - 1e-15, 2.5 + 1e-15),      # within tolerance: no iteration
        (0.2, 1.0),                      # the second end is the zero
        (1.7, 3.9),
    ]
    ours, scipy = lockstep_outcomes(lambda xs: [cubic(x) for x in xs], cubic, brackets, *tols)
    assert ours == scipy
    assert [len(calls) for _, calls in ours][0] == 2 < max(len(calls) for _, calls in ours)


@pytest.mark.parametrize(
    "bad",
    [(1.2, 2.2), (3.0, 4.0)],           # ends of one sign
    ids=["negative", "positive"],
)
def test_lockstep_same_sign_ends_raise(bad):
    want = outcome(scipys, cubic, *bad, 1e-12, RTOL_ROOT)[0]
    assert want == (ValueError, "f(a) and f(b) must have different signs")
    lanes = [brent_lane(a, b, 1e-12, RTOL_ROOT) for a, b in [(-3.0, 0.0), bad, (1.7, 3.9)]]
    with pytest.raises(ValueError) as exc:
        lockstep(lambda xs: [cubic(x) for x in xs], lanes)
    assert (exc.type, str(exc.value)) == want


def test_lockstep_nan_raises():
    f = lambda x: math.nan if 0.0 < x < 0.9 else (x - 0.5) * (x - 2.0)
    want = outcome(scipys, f, -0.25, 1.0, 1e-12, RTOL_ROOT)[0]
    assert want[0] is ValueError and "is NaN" in want[1]
    lanes = [brent_lane(1.0, 3.0, 1e-12, RTOL_ROOT), brent_lane(-0.25, 1.0, 1e-12, RTOL_ROOT)]
    with pytest.raises(ValueError) as exc:
        lockstep(lambda xs: [f(x) for x in xs], lanes)
    assert (exc.type, str(exc.value)) == want


def test_lockstep_of_no_lanes_calls_nothing():
    assert lockstep(lambda xs: pytest.fail("called"), []) == []
