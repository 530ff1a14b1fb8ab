import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoeq import (
    G_poly,
    ModelParams,
    SolverError,
    consumption,
    demand,
    dw_dh,
    dw_dphi,
    firm_counts,
    freeness_from_tau,
    price_indices,
    short_run_state,
    solve_wage,
    wage_share,
)
from geoeq.model import WAGE_RESIDUAL_TOL, _dw_dh_raw, _share_raw, _solve_wage_near
from geoeq.welfare import FD_STEP

SIGMAS = [1.5, 2.0, 2.5, 5.0, 10.0]
PHIS = [0.1, 0.3, 0.5, 0.7, 0.9]


# ---------------------------------------------------------------------------
# parameters


def test_freeness_from_tau_known_values():
    assert freeness_from_tau(2.0, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert freeness_from_tau(4.0, 1.5) == pytest.approx(0.5, rel=1e-15)
    assert freeness_from_tau(1.0 + 1e-9, 3.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("tau,sigma", [(1.0, 2.0), (0.5, 2.0), (2.0, 1.0),
                                       (2.0, 0.5), (float("inf"), 2.0)])
def test_freeness_from_tau_rejects_bad_domain(tau, sigma):
    with pytest.raises(ValueError):
        freeness_from_tau(tau, sigma)


def test_params_require_exactly_one_of_phi_tau():
    with pytest.raises(ValueError):
        ModelParams(sigma=2.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=2.0, phi=0.5, tau=2.0)


def test_params_derive_the_missing_trade_parameter():
    by_phi = ModelParams(sigma=2.0, phi=0.25)
    assert by_phi.tau == pytest.approx(4.0, rel=1e-14)
    by_tau = ModelParams(sigma=2.0, tau=4.0)
    assert by_tau.phi == pytest.approx(0.25, rel=1e-14)


def test_params_near_sigma_one_carry_an_infinite_iceberg_cost():
    # tau = phi**(1/(1 - sigma)) exceeds every double here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ModelParams(sigma=1.0001, phi=1e-5).tau == math.inf
        assert ModelParams(sigma=1.0001, phi=np.float64(1e-5)).tau == math.inf


def test_params_default_normalization():
    p = ModelParams(sigma=2.5, phi=0.3)
    assert p.alpha == pytest.approx(0.4)
    assert p.beta == pytest.approx(0.6)
    assert p.normalized
    q = ModelParams(sigma=2.5, phi=0.3, alpha=1.0)
    assert not q.normalized


@pytest.mark.parametrize("kwargs", [
    {"sigma": 1.0, "phi": 0.5},
    {"sigma": 2.0, "phi": 0.0},
    {"sigma": 2.0, "phi": 1.0},
    {"sigma": 2.0, "phi": 0.5, "theta": -0.1},
    {"sigma": 2.0, "phi": 0.5, "alpha": 0.0},
    {"sigma": 2.0, "phi": 0.5, "eta": 0.0},
    # the derived freeness underflows to 0, resp. rounds to 1
    {"sigma": 50.0, "tau": 1e10},
    {"sigma": 1.0001, "tau": 1.0000000000000002},
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_wage_bracket_endpoints():
    p = ModelParams(sigma=2.0, phi=0.5)
    lo, hi = p.wage_bracket
    assert lo == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert hi == pytest.approx(math.sqrt(2.0), rel=1e-15)


# ---------------------------------------------------------------------------
# wage_share / solve_wage


def test_wage_share_frozen_value():
    p = ModelParams(sigma=2.0, phi=0.5)
    assert wage_share(1.2, p) == pytest.approx(0.801136363636364, rel=1e-12)


def test_wage_share_midpoint_and_endpoints():
    p = ModelParams(sigma=2.0, phi=0.5)
    lo, hi = p.wage_bracket
    assert wage_share(1.0, p) == pytest.approx(0.5, abs=1e-15)
    assert wage_share(lo, p) == pytest.approx(0.0, abs=1e-12)
    assert wage_share(hi, p) == pytest.approx(1.0, abs=1e-12)


def test_wage_share_rejects_wages_outside_bracket():
    p = ModelParams(sigma=2.0, phi=0.5)
    with pytest.raises(ValueError):
        wage_share(0.5, p)
    with pytest.raises(ValueError):
        wage_share(1.5, p)


def test_solve_wage_frozen_value():
    p = ModelParams(sigma=2.0, phi=0.5)
    assert solve_wage(0.8, p) == pytest.approx(1.19907136561190128, rel=1e-13)


def test_solve_wage_exact_special_points():
    p = ModelParams(sigma=2.0, phi=0.5)
    lo, hi = p.wage_bracket
    assert solve_wage(0.0, p) == lo
    assert solve_wage(0.5, p) == 1.0
    assert solve_wage(1.0, p) == hi


def test_solve_wage_rejects_shares_outside_unit_interval():
    p = ModelParams(sigma=2.0, phi=0.5)
    with pytest.raises(ValueError):
        solve_wage(-0.01, p)
    with pytest.raises(ValueError):
        solve_wage(1.01, p)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("phi", PHIS)
def test_roundtrip_reciprocal_and_monotone_on_grid(sigma, phi):
    p = ModelParams(sigma=sigma, phi=phi)
    h = np.linspace(0.0, 1.0, 257)
    w = solve_wage(h, p)
    assert np.max(np.abs(wage_share(w, p) - h)) <= 1e-12
    assert np.max(np.abs(w * w[::-1] - 1.0)) <= 1e-12
    assert np.all(np.diff(w) > 0.0)


def test_array_solve_matches_scalar_solve():
    p = ModelParams(sigma=2.5, phi=0.3)
    h = np.linspace(0.01, 0.99, 23)
    grid = solve_wage(h, p)
    scalars = np.array([solve_wage(float(x), p) for x in h])
    assert np.max(np.abs(grid - scalars)) <= 1e-13


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    sigma=st.floats(1.3, 10.0),
    phi=st.floats(0.02, 0.98),
    h=st.floats(0.0, 1.0),
)
def test_roundtrip_property(sigma, phi, h):
    p = ModelParams(sigma=sigma, phi=phi)
    lo, hi = p.wage_bracket
    w = solve_wage(h, p)
    assert lo <= w <= hi
    assert abs(wage_share(w, p) - h) <= 1e-10


# ---------------------------------------------------------------------------
# prices, consumption, firms, demand


def test_price_indices_symmetric_point():
    p = ModelParams(sigma=2.0, phi=0.5)
    P_L, P_R = price_indices(0.5, 1.0, p)
    # both brackets collapse to (1+phi)/2, and the exponent is -1 here
    assert P_L == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert P_R == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_price_indices_respect_input_requirements():
    base = ModelParams(sigma=2.0, phi=0.5)
    scaled = ModelParams(sigma=2.0, phi=0.5, alpha=0.25, beta=0.75)
    P_L0, _ = price_indices(0.7, 1.1, base)
    P_L1, _ = price_indices(0.7, 1.1, scaled)
    # mill markup 1.5x, firm-mass scale 2 with exponent -1 halves the bracket
    assert P_L1 / P_L0 == pytest.approx(1.5 / 2.0, rel=1e-14)


def test_price_indices_validation():
    p = ModelParams(sigma=2.0, phi=0.5)
    with pytest.raises(ValueError):
        price_indices(1.2, 1.0, p)
    with pytest.raises(ValueError):
        price_indices(0.5, 0.0, p)


def test_consumption_composes_wage_and_prices():
    p = ModelParams(sigma=2.0, phi=0.5)
    C_L, C_R = consumption(0.8, p)
    w = solve_wage(0.8, p)
    P_L, P_R = price_indices(0.8, w, p)
    assert C_L == pytest.approx(w / P_L, rel=1e-14)
    assert C_R == pytest.approx(1.0 / P_R, rel=1e-14)


def test_firm_counts_sum_to_total_mass():
    p = ModelParams(sigma=2.0, phi=0.5)
    n_L, n_R = firm_counts(0.3, p)
    assert n_L + n_R == pytest.approx(1.0 / (p.sigma * p.alpha), rel=1e-14)
    # each producer uses sigma * alpha workers, so counts scale as h / (sigma * alpha)
    assert n_L == pytest.approx(0.3 / (2.0 * 0.5), rel=1e-14)


def test_demand_value_and_homogeneity():
    d = demand(1.2, 1.1, 0.9, 2.5)
    assert d == pytest.approx(1.1 ** -2.5 * 0.9 ** 1.5 * 1.2, rel=1e-14)
    assert demand(2.4, 2.2, 1.8, 2.5) == pytest.approx(d, rel=1e-12)


def test_demand_validation():
    with pytest.raises(ValueError):
        demand(-1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        demand(1.0, 1.0, 1.0, 0.9)


def test_short_run_state_is_consistent():
    p = ModelParams(sigma=2.5, phi=0.3)
    s = short_run_state(0.7, p)
    assert s.h == 0.7
    assert s.w == pytest.approx(solve_wage(0.7, p), rel=1e-14)
    assert s.C_L == pytest.approx(s.w / s.P_L, rel=1e-14)
    assert s.n_L + s.n_R == pytest.approx(1.0, rel=1e-14)  # normalized total


# ---------------------------------------------------------------------------
# implicit derivatives


def test_G_poly_symmetric_value_and_positivity():
    p = ModelParams(sigma=2.0, phi=0.5)
    assert G_poly(1.0, p) == pytest.approx(1.75, rel=1e-14)
    # strictly positive over the whole admissible range of w**sigma
    x = np.linspace(p.phi, 1.0 / p.phi, 101)
    assert np.all(G_poly(x, p) > 0.0)


def test_dw_dh_frozen_symmetric_value():
    p = ModelParams(sigma=2.0, phi=0.5)
    assert dw_dh(1.0, p) == pytest.approx(4.0 / 7.0, rel=1e-13)


def test_dw_dphi_vanishes_at_equal_wages():
    p = ModelParams(sigma=2.0, phi=0.5)
    assert dw_dphi(1.0, p) == 0.0


@pytest.mark.parametrize("sigma,phi", [(1.5, 0.3), (2.0, 0.5), (2.5, 0.7), (5.0, 0.1)])
def test_wage_derivatives_match_finite_differences(sigma, phi):
    p = ModelParams(sigma=sigma, phi=phi)
    for h in (0.1, 0.35, 0.6, 0.9):
        w = solve_wage(h, p)
        step = 1e-6
        fd_h = (solve_wage(h + step, p) - solve_wage(h - step, p)) / (2.0 * step)
        assert dw_dh(w, p) == pytest.approx(fd_h, rel=1e-7)
        fd_p = (
            solve_wage(h, p.with_phi(phi + step)) - solve_wage(h, p.with_phi(phi - step))
        ) / (2.0 * step)
        assert dw_dphi(w, p) == pytest.approx(fd_p, rel=1e-6, abs=1e-10)


def test_dw_dh_positive_and_dw_dphi_sign_rule():
    p = ModelParams(sigma=2.0, phi=0.4)
    for h in (0.05, 0.3, 0.7, 0.95):
        w = solve_wage(h, p)
        assert dw_dh(w, p) > 0.0
        if w > 1.0:
            assert dw_dphi(w, p) < 0.0
        elif w < 1.0:
            assert dw_dphi(w, p) > 0.0


def test_wage_derivatives_reject_out_of_bracket_wages():
    p = ModelParams(sigma=2.0, phi=0.5)
    with pytest.raises(ValueError):
        dw_dh(0.5, p)
    with pytest.raises(ValueError):
        dw_dphi(2.0, p)


# ---------------------------------------------------------------------------
# wage continuation from a nearby pair


def _near_edge_share(k, low):
    """The share k spacings of doubles above 0 (low) or below 1."""
    h = 0.0 if low else 1.0
    for _ in range(k):
        h = float(np.nextafter(h, 1.0 if low else 0.0))
    return h


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    sigma=st.floats(1.01, 20.0),
    phi=st.floats(1e-6, 1.0 - 1e-6),
    centre=st.one_of(
        st.floats(1e-300, 1.0, exclude_max=True),
        st.builds(_near_edge_share, st.integers(1, 8), st.booleans()),
    ),
)
def test_wage_continuation_meets_the_wage_residual_tolerance(sigma, phi, centre):
    # the shares the rest-point finish asks for: the centre and its central
    # FD neighbours, continued from the centre's market-clearing wage
    params = ModelParams(sigma=sigma, phi=phi)
    step = min(FD_STEP, 0.5 * centre, 0.5 * (1.0 - centre))
    h = np.array([centre, centre + step, centre - step])
    # as phi nears 1 the bracket narrows until one spacing of doubles in w
    # moves h by more than the tolerance; no wage solver can meet it there
    try:
        w0 = solve_wage(centre, params)
        solve_wage(h, params)
        for x in h:
            solve_wage(float(x), params)
    except SolverError:
        assume(False)
    w = _solve_wage_near(h, centre, w0, params)
    lo, hi = params.wage_bracket
    assert np.all((lo <= w) & (w <= hi))
    assert np.abs(_share_raw(w, params) - h).max() <= WAGE_RESIDUAL_TOL


@pytest.mark.parametrize("sigma,phi", [(2.0, 0.4), (20.0, 0.5), (4.0, 0.999)])
def test_wage_continuation_from_the_symmetric_point(sigma, phi):
    params = ModelParams(sigma=sigma, phi=phi)
    stencil = 0.5 + np.array([-0.02, -0.01, 0.01, 0.02])
    w = _solve_wage_near(stencil, 0.5, 1.0, params)
    assert np.abs(_share_raw(w, params) - stencil).max() <= WAGE_RESIDUAL_TOL
    # w(1 - h) = 1/w(h)
    assert w[::-1] * w == pytest.approx(1.0, rel=1e-14)


def test_wage_continuation_reports_a_missed_tolerance():
    # one spacing of doubles in w moves h by ~4e-10 at this freeness
    with pytest.raises(SolverError, match="wage continuation residual"):
        _solve_wage_near(0.49, 0.5, 1.0, ModelParams(sigma=2.0, phi=1.0 - 1e-6))
    # a start that is not a number never passes as converged
    with pytest.raises(SolverError):
        _solve_wage_near(np.array([0.9]), 0.5, float("nan"), ModelParams(sigma=2.0, phi=0.4))


def test_dw_dh_is_its_unchecked_formula_inside_the_bracket():
    params = ModelParams(sigma=2.5, phi=0.3)
    lo, hi = params.wage_bracket
    w = np.linspace(lo, hi, 33).tolist()
    assert [dw_dh(x, params) for x in w] == [_dw_dh_raw(x, params) for x in w]
