import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoeq import (ModelParams, PenaltySpec, SolverError, ddelta_u_dh, ddelta_u_dphi, delta_V,
                   delta_t_prime, delta_u, dispersion_slope, solve_wage)
from geoeq.model import _share_terms, _solve_state, _wage_state
from geoeq.welfare import (LOG_UTILITY_BAND, _delta_u_at, _slopes, ddelta_u_dh_closed,
                           stability_coefficients)
from mp_reference import Economy

P25 = ModelParams(sigma=2.0, phi=0.5)
EPS = float(np.finfo(float).eps)


def log_utility_limit_gap(h, params):
    """Width of the seam at h between the expm1 form of delta_u and its
    limit at theta = 1.

    Evaluates delta_u just outside the band where theta is taken as 1, on
    both sides, and returns the larger deviation from the log-limit value.
    """
    base = delta_u(h, params.with_theta(1.0))
    eps = 2.0 * LOG_UTILITY_BAND
    lo = delta_u(h, params.with_theta(1.0 - eps))
    hi = delta_u(h, params.with_theta(1.0 + eps))
    return max(abs(lo - base), abs(hi - base))


# ---------------------------------------------------------------------------
# levels


@pytest.mark.parametrize("theta,expected", [
    (0.0, 0.386315649455771),
    (1.0, 0.544642185654342),
    (2.0, 0.787026618634144),
])
def test_delta_u_frozen_values(theta, expected):
    assert delta_u(0.8, P25.with_theta(theta)) == pytest.approx(expected, rel=1e-12)


def test_delta_u_is_exactly_zero_at_symmetry():
    for theta in (0.0, 1.0, 2.0):
        assert delta_u(0.5, P25.with_theta(theta)) == 0.0


def test_delta_u_antisymmetry_on_grid():
    h = np.linspace(0.0, 1.0, 201)
    for theta in (0.0, 0.7, 1.0, 2.0):
        du = delta_u(h, P25.with_theta(theta))
        assert np.max(np.abs(du + du[::-1])) <= 1e-12


def test_delta_u_array_matches_scalar():
    h = np.linspace(0.05, 0.95, 19)
    du = delta_u(h, P25)
    assert du.tolist() == [delta_u(x, P25) for x in h.tolist()]


def test_delta_u_curvature_ordering_in_the_crowded_region():
    # stronger curvature amplifies the consumption gap into utility
    vals = [delta_u(0.8, P25.with_theta(t)) for t in (0.0, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_log_branch_seam_is_tight():
    assert log_utility_limit_gap(0.8, P25) <= 1e-6


# Both routes of the utility gap against the 40-digit reference model, which
# forms it from the price-index brackets of both shares.  Over 2,000 seeded
# draws of this sample, three shares each, the worst relative errors were
# 5.9e-15 for the wage route (the scan and the polish), 1.1e-13 for the
# share route at least 0.01 from h = 1/2, and closer in 26 eps/|h - 1/2|,
# where the rounded wage sets the floor.  The bounds below hold each with a
# margin of 1.7 to 4.
_THETAS = st.one_of(
    st.sampled_from([0.0, 0.5, 2.0]), st.floats(0.0, 3.0),
    st.builds(lambda side, e: 1.0 + side * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
              st.floats(-7.0, -1.0)))


@settings(deadline=None, max_examples=150, derandomize=True)
@given(sigma=st.floats(1.05, 6.0), phi=st.floats(0.02, 0.98), theta=_THETAS,
       fraction=st.floats(0.0, 0.999), h=st.floats(1e-9, 1.0 - 1e-9),
       tail=st.floats(2.0, 12.0))
def test_both_routes_of_the_utility_gap_meet_the_reference_model(sigma, phi, theta, fraction, h,
                                                                 tail):
    params, ref = ModelParams(sigma=sigma, phi=phi, theta=theta), Economy(sigma, phi, theta, dps=40)
    w = 1.0 + fraction * (params.wage_bracket[1] - 1.0)
    _, a, b = _share_terms(w, params)
    truth = ref.delta_V(w)
    assert abs(_delta_u_at(np.log(w), w, a + b, params) - truth) <= 1e-14 * abs(truth)
    for share in (h, 1.0 - 10.0 ** -tail):
        truth = ref.delta_V(ref.wage(share))
        bound = 4e-13 + 64.0 * EPS / max(abs(share - 0.5), EPS)
        assert abs(delta_u(share, params) - truth) <= bound * abs(truth)


def test_delta_u_rejects_bad_shares():
    with pytest.raises(ValueError):
        delta_u(1.5, P25)


# ---------------------------------------------------------------------------
# slope in h


def test_symmetric_slope_frozen_value():
    assert ddelta_u_dh(0.5, P25) == pytest.approx(12.0 / 7.0, rel=1e-12)


@pytest.mark.parametrize("h,params,expected", [
    (0.65, ModelParams(sigma=2.0, phi=0.5, theta=1.0), 1.78523635157),
    (0.70, ModelParams(sigma=2.5, phi=0.3, theta=0.0), 1.34722555933),
    (0.80, ModelParams(sigma=2.0, phi=0.5, theta=0.0), 1.29219885501),
])
def test_interior_slope_frozen_values(h, params, expected):
    assert ddelta_u_dh(h, params) == pytest.approx(expected, rel=1e-10)


def test_slope_requires_interior_share():
    with pytest.raises(ValueError):
        ddelta_u_dh(0.0, P25)
    with pytest.raises(ValueError):
        ddelta_u_dh(1.0, P25)


def test_display_convention_is_half_the_true_slope():
    # the symmetric-point display expression carries a factor 1/2 relative
    # to the actual derivative; both are exposed, and their ratio is exact
    for sigma, phi, theta in [(2.0, 0.5, 1.0), (2.0, 0.4, 0.0), (2.5, 0.3, 0.0),
                              (3.0, 0.6, 2.0), (1.6, 0.2, 0.5)]:
        p = ModelParams(sigma=sigma, phi=phi, theta=theta)
        assert ddelta_u_dh(0.5, p) == pytest.approx(2.0 * dispersion_slope(p),
                                                    rel=1e-10)


# ddelta_u_dh(1/2) is O(1 - phi), and so are varphi and psi at w = 1: formed
# from O(1) terms, they lost relative accuracy like eps/(1 - phi), up to
# 3.1e-5 over these draws.
@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    log_sigma=st.floats(-3.0, 0.5),
    log_phi=st.floats(-12.0, -2.0),
    theta=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
)
@example(log_sigma=math.log10(0.03921), log_phi=math.log10(7e-12), theta=0.0)
@example(log_sigma=math.log10(0.00664), log_phi=-11.0, theta=1.0)
def test_symmetric_slope_keeps_its_accuracy_as_freeness_nears_one(log_sigma, log_phi, theta):
    sigma, phi = 1.0 + 10.0 ** log_sigma, 1.0 - 10.0 ** log_phi
    truth = float(Economy(sigma, phi, theta, dps=60).dV_dh(0.5))
    assert abs(ddelta_u_dh(0.5, ModelParams(sigma=sigma, phi=phi, theta=theta)) / truth - 1.0) \
        <= 1e-12


def test_dispersion_slope_frozen_value_and_curvature_factor():
    assert dispersion_slope(P25) == pytest.approx(6.0 / 7.0, rel=1e-13)
    ratio = dispersion_slope(P25.with_theta(0.0)) / dispersion_slope(P25)
    assert ratio == pytest.approx(0.75, rel=1e-13)  # (1 + phi) / 2


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    sigma=st.floats(1.4, 6.0),
    phi=st.floats(0.05, 0.95),
    theta=st.floats(0.0, 3.0),
    h=st.floats(0.05, 0.95),
)
def test_closed_slope_matches_finite_difference(sigma, phi, theta, h):
    # both names return the closed form; neither checks it against a FD
    p = ModelParams(sigma=sigma, phi=phi, theta=theta)
    step = 1e-5
    fd = (delta_u(h + step, p) - delta_u(h - step, p)) / (2.0 * step)
    closed = ddelta_u_dh_closed(h, p)
    assert ddelta_u_dh(h, p) == closed
    assert closed == pytest.approx(fd, rel=5e-6, abs=1e-9)


def test_coefficient_signs_on_the_crowded_side():
    # zeta shares a denominator with a3's second factor, which is negative
    # on the whole wage bracket, so zeta itself is negative; the bracketed
    # utility factor flips the sign back when the full slope is assembled.
    for sigma, phi, theta in [(2.0, 0.5, 1.0), (2.5, 0.3, 0.0), (3.0, 0.6, 2.0)]:
        p = ModelParams(sigma=sigma, phi=phi, theta=theta)
        for h in (0.55, 0.7, 0.9):
            c = stability_coefficients(h, p)
            assert c.zeta < 0.0
            assert c.a3 < 0.0
            assert c.Psi < 0.0
            assert ddelta_u_dh_closed(h, p) > 0.0


# zeta = (a + b) / (-(sigma - 1) G) with a + b > 0 the share denominator of
# the wage map and G = G_poly > 0, so it is negative on the whole open
# bracket, both halves; at the examples it runs from -0.27 to -0.66.
@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    sigma=st.floats(1.05, 6.0),
    phi=st.floats(0.02, 0.98),
    h=st.floats(0.01, 0.99),
)
@example(sigma=2.5, phi=0.1, h=0.9)
@example(sigma=2.5, phi=0.5, h=0.7)
@example(sigma=2.5, phi=0.9, h=0.55)
def test_zeta_is_negative_on_the_open_bracket(sigma, phi, h):
    assert stability_coefficients(h, ModelParams(sigma=sigma, phi=phi)).zeta < 0.0


# ---------------------------------------------------------------------------
# slope in phi


@pytest.mark.parametrize("theta,expected", [
    (0.0, -0.627332678038094),
    (1.0, -1.322808713284915),
    (2.0, -2.639005361754133),
])
def test_freeness_slope_frozen_values(theta, expected):
    assert ddelta_u_dphi(0.8, P25.with_theta(theta)) == pytest.approx(expected,
                                                                      rel=1e-12)


def test_freeness_slope_requires_crowded_interior_share():
    with pytest.raises(ValueError):
        ddelta_u_dphi(0.5, P25)
    with pytest.raises(ValueError):
        ddelta_u_dphi(1.0, P25)


# The erosion property genuinely reverses for sigma below roughly 1.7 when
# trade is nearly prohibitive and curvature is low (e.g. +0.0896 at
# sigma=1.5, phi=0.1, theta=0, h=0.75, confirmed by the reference
# model), so the strategy floor stays at 1.8 where the worst grid
# value is still safely negative.
@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    sigma=st.floats(1.8, 6.0),
    phi=st.floats(0.05, 0.95),
    theta=st.floats(0.0, 3.0),
    h=st.floats(0.51, 0.97),
)
def test_freer_trade_always_erodes_the_crowded_advantage(sigma, phi, theta, h):
    p = ModelParams(sigma=sigma, phi=phi, theta=theta)
    assert ddelta_u_dphi(h, p) < 0.0


# ---------------------------------------------------------------------------
# the reference model: a mistake in it would pass every test that reads it


@pytest.mark.parametrize("sigma,phi,theta,mu", [
    (2.0, 0.4, 0.0, 0.2), (1.5, 0.1, 1.0, 0.3), (10.0, 0.9, 0.5, 1.0), (1.05, 0.02, 10.0, 0.5),
])
def test_the_reference_model_meets_the_closed_forms(sigma, phi, theta, mu):
    params, ref = ModelParams(sigma=sigma, phi=phi, theta=theta), Economy(sigma, phi, theta, mu)
    assert ref.wage(0.5) == 1
    want = 2.0 * dispersion_slope(params) - delta_t_prime(0.5, PenaltySpec(kind="logit", mu=mu))
    assert abs(float(ref.dV_dh(0.5)) / want - 1.0) <= 1e-12
    for h in (0.05, 0.3, 0.7, 0.95):  # mu = 0: the slope of delta_u
        truth = Economy(sigma, phi, theta).dV_dh(h)
        assert abs(ddelta_u_dh(h, params) / float(truth) - 1.0) <= 1e-12


# d(delta_u)/d(phi) is a positive multiple of Psi = -(a1 w**(-sigma e) + a2)/a3,
# a difference: where its two terms nearly cancel, the slope is held to 1e-12
# of the larger one.  Over these examples' 116 wages the worst errors were
# 1.2e-14 of d(delta_u)/dh and 1.0e-14 of that scale for d(delta_u)/d(phi)
# (9.1e-13 of the slope itself).
@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    sigma=st.floats(1.05, 6.0),
    phi=st.floats(0.02, 0.98),
    theta=st.floats(0.0, 3.0),
    fractions=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6),
)
def test_the_slope_kernel_meets_the_reference_model(sigma, phi, theta, fractions):
    params = ModelParams(sigma=sigma, phi=phi, theta=theta)
    # inside the log-utility band the kernel evaluates theta = 1
    ref = Economy(sigma, phi, 1.0 if abs(theta - 1.0) < LOG_UTILITY_BAND else theta)
    w = 1.0 + np.array(fractions) * (params.wage_bracket[1] - 1.0)
    (_, _, _, a1, a2, _), du_dh, du_dphi, _ = _slopes(*_wage_state(w, params), params)
    e = (theta + sigma - 2.0) / (sigma - 1.0)
    t1 = a1 * w ** (-sigma * e)
    scale = np.abs(du_dphi) * np.maximum(np.abs(t1), np.abs(a2)) / np.abs(t1 + a2)
    for x, dh, dphi, at in zip(w.tolist(), du_dh.tolist(), du_dphi.tolist(), scale.tolist()):
        h = ref.shares(x)[0]
        truth = float(ref.dV_dh(h))
        assert abs(dh - truth) <= 1e-12 * abs(truth)
        truth = float(ref.ddelta_u_dphi(h))
        assert abs(dphi - truth) <= 1e-12 * max(abs(truth), at)


# ---------------------------------------------------------------------------
# a scalar is the 0-d case


def _same_bits(f, xs):
    """f at each float of xs is a float, equal to f's entry for it in one
    array call over the floats where it does not raise SolverError."""
    values, done = [], []
    for x in xs:
        try:
            values.append(f(x))
            done.append(x)
        except SolverError:
            pass
    if len(done) < len(xs):
        with pytest.raises(SolverError):
            f(np.array(xs))
    assert all(type(v) is float for v in values)
    if done:
        assert f(np.array(done)).tolist() == values


@settings(deadline=None, max_examples=150, derandomize=True)
@given(
    sigma=st.floats(1.01, 20.0),
    phi=st.floats(1e-6, 1.0 - 1e-6),
    theta=st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0]), st.floats(0.0, 5.0)),
    inner=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    ulps=st.integers(1, 4),
    phis=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=4),
    mu=st.floats(0.0, 2.0),
)
def test_a_scalar_gets_the_bits_of_its_array_entry(sigma, phi, theta, inner, ulps, phis, mu):
    params = ModelParams(sigma=sigma, phi=phi, theta=theta)
    # 0, 1/2, 1 and shares a few ulps from either end
    shares = [0.0, 0.5, 1.0, ulps * 5e-324, ulps * EPS / 2.0, 1.0 - ulps * EPS / 2.0, *inner]
    _same_bits(lambda h: solve_wage(h, params), shares)
    _same_bits(lambda h: delta_u(h, params), shares)
    for kind in ("logit", "linear"):
        spec = PenaltySpec(kind=kind, mu=mu)
        _same_bits(lambda h: delta_V(h, params, spec), shares)
    _same_bits(lambda p: dispersion_slope(params, phi=p), phis)
    # the scalar slopes against the slope kernel on the array's wage state
    for pick, keep, slope in ((1, lambda h: 0.0 < h < 1.0, ddelta_u_dh),
                              (2, lambda h: 0.5 < h < 1.0, ddelta_u_dphi)):
        _same_bits(lambda h: slope(h, params) if np.ndim(h) == 0
                   else _slopes(*_solve_state(h, params), params)[pick],
                   [h for h in shares if keep(h)])


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.0])
def test_slope_kernel_of_mixed_economies_matches_each_economys_own_call(theta):
    # a per-element freeness gives each share its own economy's slopes, bit
    # for bit, as the read rule of a freeness sweep's scan needs
    params = ModelParams(sigma=2.0, phi=0.4, theta=theta)
    h = np.linspace(0.05, 0.95, 7)
    phis = np.repeat([0.1, 0.4, 0.9], h.size)
    coefficients, du_dh, du_dphi, log_x_e = _slopes(
        *_solve_state(np.tile(h, 3), params, phis), params, phis)
    mixed = [*coefficients, du_dh, du_dphi, log_x_e]
    for i, phi in enumerate((0.1, 0.4, 0.9)):
        own = params.with_phi(phi)
        coefficients, du_dh, du_dphi, log_x_e = _slopes(*_solve_state(h, own), own)
        part = slice(i * h.size, (i + 1) * h.size)
        for x, y in zip(mixed, [*coefficients, du_dh, du_dphi, log_x_e]):
            assert np.asarray(x)[part].tobytes() == np.asarray(y).tobytes(), phi
