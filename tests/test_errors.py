"""Input checks raise the typed InvalidParameter, which is a ValueError,
and a fit that its inputs cannot support raises FitFailed."""

import pytest

from ringchain import (
    ChainParams,
    DistantPair,
    PerturbationPattern,
    band_edges,
    distant_solve,
    solve_gap,
    splitting_rate,
)
from ringchain.crosscheck import run_cases
from ringchain.errors import FitFailed, InvalidParameter
from ringchain.oracle import richardson_limit
from tests.paper_forms import flat_band_eigenfunction, identical_closed_form, identical_conditions, product_matrix

P = ChainParams.from_cos_flux(0.7, 1.0)

SITES = {
    "splitting_rate-unequal-strengths": lambda: splitting_rate(
        DistantPair(-1.5, -1.0, 4), band_edges(P, 25.0).gaps[0], P, [4, 6, 8, 10]
    ),
    "flat_band_eigenfunction-n0": lambda: flat_band_eigenfunction(0, P),
    "identical_conditions-m1": lambda: identical_conditions(0.05, 1.0, 1, P),
    "product_matrix-empty": lambda: product_matrix(0.1, [], P),
    "identical_closed_form-m0": lambda: identical_closed_form(0.1, -0.6, 0, P),
    # (-1)^(n+1) of a fractional n is complex: no error used to stop it
    "flat_band_eigenfunction-n2.5": lambda: flat_band_eigenfunction(2.5, ChainParams(0.3, 1.0)),
    "flat_band_eigenfunction-n2.0": lambda: flat_band_eigenfunction(2.0, P),
    # numpy's bare ValueError, and [] with no error
    "run_cases-seed-negative": lambda: run_cases(seed=-1, n_cases=1),
    "run_cases-cases-negative": lambda: run_cases(seed=0, n_cases=-2),
    "run_cases-seed-fractional": lambda: run_cases(seed=1.5, n_cases=1),
    "run_cases-cases-fractional": lambda: run_cases(seed=0, n_cases=1.0),
    # a bare IndexError, and limits from steps that are no grid spacing
    "richardson_limit-lengths": lambda: richardson_limit([0.4, 0.2, 0.1], [1.0, 1.1]),
    "richardson_limit-step-zero": lambda: richardson_limit([0.2, 0.0], [1.0, 1.1]),
    "richardson_limit-step-negative": lambda: richardson_limit([0.2, -0.1], [1.0, 1.1]),
    "richardson_limit-step-nan": lambda: richardson_limit([0.2, float("nan")], [1.0, 1.1]),
    "richardson_limit-step-inf": lambda: richardson_limit([float("inf"), 0.1], [1.0, 1.1]),
    # stamped on every returned state
    "solve_gap-gap_index-fractional": lambda: solve_gap(
        PerturbationPattern.single(-2.0), band_edges(P, 25.0).gaps[0], P, gap_index=1.5),
    "solve_gap-gap_index-negative": lambda: solve_gap(
        PerturbationPattern.single(-2.0), band_edges(P, 25.0).gaps[0], P, gap_index=-3),
    "distant_solve-gap_index-negative": lambda: distant_solve(
        DistantPair(-1.5, -1.5, 4), band_edges(P, 25.0).gaps[0], P, gap_index=-1),
}

FIT_SITES = {
    # a bare ZeroDivisionError, a bare IndexError, and a "limit" of one value
    "richardson_limit-repeated-step": lambda: richardson_limit([0.1, 0.1], [1.0, 1.1]),
    "richardson_limit-repeated-step-of-three": lambda: richardson_limit([0.2, 0.1, 0.2], [1.0, 1.1, 1.0]),
    "richardson_limit-empty": lambda: richardson_limit([], []),
    "richardson_limit-one-value": lambda: richardson_limit([0.1], [1.0]),
}


def test_invalid_parameter_is_a_value_error():
    assert issubclass(InvalidParameter, ValueError)


@pytest.mark.parametrize("call", SITES.values(), ids=SITES.keys())
def test_input_check_raises_invalid_parameter(call):
    with pytest.raises(InvalidParameter):
        call()


@pytest.mark.parametrize("call", FIT_SITES.values(), ids=FIT_SITES.keys())
def test_unsupported_fit_raises_fit_failed(call):
    with pytest.raises(FitFailed):
        call()
