import itertools
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from geoeq import (
    Equilibrium,
    ModelParams,
    PenaltySpec,
    SolverError,
    classify_stability,
    ddelta_u_dphi,
    delta_V,
    delta_u,
    dispersion_threshold,
    find_equilibria,
    mu_d,
    mu_p,
    phi_b,
    pitchfork_criticality,
    solve_wage,
    sweep,
    threshold_phi_crossings,
)
from geoeq import equilibria
from geoeq.equilibria import (
    DISPERSION_TOL,
    FD_STEP,
    GRID_EDGE,
    GRID_POINTS,
    KIND_BOUNDARY,
    KIND_DISPERSION,
    KIND_PARTIAL,
    MARGINAL,
    RESIDUAL_TOL,
    STABLE,
    SUPERCRITICAL,
    UNSTABLE,
    _boundary_equilibria,
    _stability_from_slope,
)
from geoeq.model import WAGE_RESIDUAL_TOL, _share_terms
from geoeq.welfare import LOG_UTILITY_BAND
from mp_reference import Economy
from test_acceptance import PHI_GRID, SIGMA_GRID

LOGIT02 = PenaltySpec(kind="logit", mu=0.2)


# ---------------------------------------------------------------------------
# Scalar oracle: every delta_V evaluation through its own wage solve


def _slope_delta_V(h, params, spec):
    """Central finite-difference slope of delta_V at an interior share."""
    step = min(FD_STEP, 0.5 * h, 0.5 * (1.0 - h))
    up = delta_V(h + step, params, spec)
    dn = delta_V(h - step, params, spec)
    return float((up - dn) / (2.0 * step))


def _interior_equilibrium(h_star, w, params, spec):
    """One interior rest point finished share by share through solve_wage."""
    residual = abs(float(delta_V(h_star, params, spec)))
    slope = _slope_delta_V(h_star, params, spec)
    if residual > RESIDUAL_TOL * max(1.0, abs(slope)):
        raise SolverError(
            f"rest-point residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} at h={h_star}"
        )
    kind = KIND_DISPERSION if abs(h_star - 0.5) <= DISPERSION_TOL else KIND_PARTIAL
    return Equilibrium(h_star=h_star, w=w, kind=kind,
                       stability=_stability_from_slope(slope), slope=slope,
                       residual=residual)


def _by_kind(eqs, kind):
    return [e for e in eqs if e.kind == kind]


# ---------------------------------------------------------------------------
# find_equilibria


def test_symmetric_point_is_always_listed_and_delta_V_is_exactly_zero():
    p = ModelParams(sigma=2.0, phi=0.5)
    assert delta_V(0.5, p, LOGIT02) == 0.0
    eqs = find_equilibria(p, LOGIT02)
    sym = _by_kind(eqs, KIND_DISPERSION)
    assert len(sym) == 1 and sym[0].h_star == 0.5 and sym[0].residual == 0.0


def test_reference_scan_with_strong_attraction():
    # sigma=2.5, theta=0, mu=0.2: dispersion is unstable at phi=0.3 and 0.5
    # with a stable asymmetric pair, and is the unique (stable) rest point
    # at phi=0.9; the asymmetric location falls as trade gets freer
    spec = LOGIT02
    pins = {0.3: 0.963425737484033, 0.5: 0.859121243611137}
    tops = {}
    for phi, pin in pins.items():
        p = ModelParams(sigma=2.5, phi=phi, theta=0.0)
        eqs = find_equilibria(p, spec)
        assert [e.kind for e in eqs] == [KIND_PARTIAL, KIND_DISPERSION, KIND_PARTIAL]
        assert [e.stability for e in eqs] == [STABLE, UNSTABLE, STABLE]
        top = eqs[-1]
        assert abs(top.h_star - pin) <= 1e-9
        assert abs(top.h_star + eqs[0].h_star - 1.0) <= 1e-12
        tops[phi] = top.h_star
    assert tops[0.3] > tops[0.5] > 0.5

    p9 = ModelParams(sigma=2.5, phi=0.9, theta=0.0)
    eqs9 = find_equilibria(p9, spec)
    assert len(eqs9) == 1
    assert eqs9[0].kind == KIND_DISPERSION and eqs9[0].stability == STABLE


def test_unbounded_penalty_excludes_the_boundary():
    p = ModelParams(sigma=2.5, phi=0.3, theta=0.0)
    eqs = find_equilibria(p, LOGIT02)
    assert all(0.0 < e.h_star < 1.0 for e in eqs)


def test_zero_weight_logit_admits_stable_boundary_points():
    p = ModelParams(sigma=2.0, phi=0.5)
    eqs = find_equilibria(p, PenaltySpec(kind="logit", mu=0.0))
    kinds = [e.kind for e in eqs]
    assert kinds == [KIND_BOUNDARY, KIND_DISPERSION, KIND_BOUNDARY]
    assert [e.stability for e in eqs] == [STABLE, UNSTABLE, STABLE]
    assert eqs[0].h_star == 0.0 and eqs[-1].h_star == 1.0


def test_linear_penalty_boundary_admissibility_toggles_with_weight():
    p = ModelParams(sigma=2.0, phi=0.5)
    weak = find_equilibria(p, PenaltySpec(kind="linear", mu=0.3))
    assert {e.h_star for e in _by_kind(weak, KIND_BOUNDARY)} == {0.0, 1.0}
    assert all(e.stability == STABLE for e in _by_kind(weak, KIND_BOUNDARY))
    strong = find_equilibria(p, PenaltySpec(kind="linear", mu=2.0))
    assert _by_kind(strong, KIND_BOUNDARY) == []
    assert strong[0].kind == KIND_DISPERSION and strong[0].stability == STABLE


def test_near_boundary_rest_point_is_resolved_with_backward_error():
    # at small weights the asymmetric rest point hugs the boundary where the
    # logit slope diverges; the root is still located and accepted
    p = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    eqs = find_equilibria(p, PenaltySpec(kind="logit", mu=7.0 / 180.0))
    top = eqs[-1]
    assert top.kind == KIND_PARTIAL and top.stability == STABLE
    assert 0.99999 < top.h_star < 1.0
    assert top.residual <= 1e-10 * max(1.0, abs(top.slope))


def test_sub_resolution_rest_point_is_pinned_at_the_boundary():
    # below the resolution of double precision the rest point merges with
    # the boundary and is reported there, flagged by an infinite slope
    p = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    eqs = find_equilibria(p, PenaltySpec(kind="logit", mu=1.0 / 180.0))
    pinned = _by_kind(eqs, KIND_BOUNDARY)
    assert {e.h_star for e in pinned} == {0.0, 1.0}
    assert all(e.stability == STABLE for e in pinned)
    assert all(e.slope == -math.inf for e in pinned)
    assert all(e.residual > 0.0 for e in pinned)


def test_classify_stability_recomputes_the_recorded_labels():
    for phi, mu in [(0.3, 0.2), (0.9, 0.2), (0.4, 1.0 / 180.0), (0.5, 0.0)]:
        p = ModelParams(sigma=2.5, phi=phi, theta=0.0)
        spec = PenaltySpec(kind="logit", mu=mu)
        for eq in find_equilibria(p, spec):
            assert classify_stability(eq, p, spec) == eq.stability


def test_marginal_band_at_the_exact_threshold():
    p = ModelParams(sigma=2.0, phi=0.5)  # theta=1: threshold is mu_d exactly
    spec = PenaltySpec(kind="logit", mu=mu_d(2.0, 0.5))
    sym = _by_kind(find_equilibria(p, spec), KIND_DISPERSION)[0]
    assert sym.stability == MARGINAL


def test_grid_points_is_not_a_keyword():
    # the scan has one resolution, GRID_POINTS
    p = ModelParams(sigma=2.0, phi=0.5)
    with pytest.raises(TypeError):
        find_equilibria(p, LOGIT02, grid_points=GRID_POINTS)
    with pytest.raises(TypeError):
        sweep("mu", 0.1, 0.5, 3, p, LOGIT02, grid_points=GRID_POINTS)


@settings(deadline=None, max_examples=30, derandomize=True)
@given(
    sigma=st.floats(1.6, 4.0),
    phi=st.floats(0.05, 0.9),
    theta=st.floats(0.0, 2.0),
    mu=st.floats(0.02, 1.2),
)
def test_equilibrium_set_structure_property(sigma, phi, theta, mu):
    p = ModelParams(sigma=sigma, phi=phi, theta=theta)
    spec = PenaltySpec(kind="logit", mu=mu)
    eqs = find_equilibria(p, spec)
    hs = [e.h_star for e in eqs]
    # symmetric point present, set mirror-symmetric, sorted
    assert any(e.kind == KIND_DISPERSION for e in eqs)
    assert hs == sorted(hs)
    for h in hs:
        assert any(abs(h + g - 1.0) <= 1e-9 for g in hs)
    # whenever dispersion is unstable something else must catch the flow
    sym = _by_kind(eqs, KIND_DISPERSION)[0]
    if sym.stability == UNSTABLE:
        assert len(eqs) >= 3
    # interior records satisfy the backward-error residual bound
    for e in eqs:
        if e.kind != KIND_BOUNDARY:
            assert e.residual <= 1e-10 * max(1.0, abs(e.slope))


# ---------------------------------------------------------------------------
# find_equilibria against a from-scratch scan in the share


def _share_scan_equilibria(params, spec):
    """Rest points from a uniform scan and polish in the share h.

    Independent of the wage-parametrised scan: every delta_V evaluation
    goes through the wage solver, the nodes are equally spaced in h and
    each bracket is polished in h.  The first cell keeps a single probe
    next to 1/2.  The chase past the window edge and the pinned-boundary
    rule follow the library's; the per-root classification is the
    library's own.
    """
    n_upper = GRID_POINTS // 2 + 1
    upper = np.linspace(0.5, 1.0 - GRID_EDGE, n_upper)
    with np.errstate(divide="ignore"):
        values = np.asarray(delta_V(upper, params, spec), dtype=float)
    f = lambda x: float(delta_V(x, params, spec))
    roots = []

    def add_root(r):
        if r - 0.5 > DISPERSION_TOL and all(abs(r - seen) > DISPERSION_TOL for seen in roots):
            roots.append(r)

    slope_half = _slope_delta_V(0.5, params, spec)
    if values[1] != 0.0 and slope_half * values[1] < 0.0:
        a = 0.5 + 1e-12
        if f(a) * values[1] < 0.0:
            add_root(brentq(f, a, upper[1], xtol=1e-15, maxiter=200))
    for i in range(1, n_upper - 1):
        if values[i] == 0.0:
            add_root(float(upper[i]))
        elif values[i] * values[i + 1] < 0.0:
            add_root(brentq(f, float(upper[i]), float(upper[i + 1]), xtol=1e-15, maxiter=200))
    if values[-1] == 0.0:
        add_root(float(upper[-1]))

    def interior(h):
        return _interior_equilibrium(h, solve_wage(h, params), params, spec)

    found = [interior(0.5)]
    if not spec.bounded and values[-1] > 0.0:
        h_last = float(np.nextafter(1.0, 0.0))
        v_last = f(h_last)
        if v_last < 0.0:
            add_root(brentq(f, float(upper[-1]), h_last, xtol=1e-16, maxiter=200))
        elif v_last == 0.0:
            add_root(h_last)
        else:
            found += [Equilibrium(h_star=h, w=w, kind=KIND_BOUNDARY, stability=STABLE,
                                  slope=-math.inf, residual=v_last)
                      for h, w in zip((0.0, 1.0), params.wage_bracket)]
    for r in roots:
        found += [interior(r), interior(1.0 - r)]
    found += _boundary_equilibria(params, spec)
    return sorted(found, key=lambda e: e.h_star)


def _square(x):
    return x * x


def _square_prime(x):
    return 2.0 * x


_LOGIT02 = ("logit", 0.2)
_SCAN_CASES = {
    # acceptance criteria 4 and 8
    "criterion-4": [(2.5, phi, 0.0, _LOGIT02) for phi in (0.3, 0.5, 0.9)],
    "criterion-8": [(2.0, phi, theta, ("logit", mu)) for phi in (0.4, 0.5)
                    for theta in (0.0, 1.0) for mu in (0.05, 0.2, 1.0)],
    # the criterion-5 sweeps; the mu sweep is also fig6-left's
    "criterion-5-phi": [(2.0, float(phi), 0.0, _LOGIT02)
                        for phi in np.linspace(0.05, 0.95, 181)],
    "criterion-5-mu": [(2.0, 0.4, 0.0, ("logit", float(mu)))
                       for mu in np.linspace(0.0, 1.0, 181)],
    "criterion-7": [(2.0, 0.4, 0.0, ("logit", float(mu)))
                    for mu in np.linspace(0.2, 0.6, 21)],
    "fig6-right": [(2.0, float(phi), 0.0, _LOGIT02)
                   for phi in np.linspace(0.02, 0.98, 181)],
    # each penalty branch of the wage-side delta_V (with interior roots), the
    # log band and sigma near 1
    "families": [(2.0, 0.5, 0.0, ("linear", 0.3)), (2.5, 0.5, 0.0, ("linear", 0.5)),
                 (2.0, 0.7, 1.0, ("linear", 0.5)), (2.0, 0.5, 0.0, ("logit", 0.0)),
                 (2.0, 0.5, 1.0, ("custom", None)), (2.5, 0.3, 1.0, ("custom", None)),
                 (2.5, 0.3, 1.0 + 1e-9, _LOGIT02), (2.5, 0.3, 1.0 - 1e-9, _LOGIT02),
                 (1.05, 0.02, 0.5, ("logit", 0.05)), (4.0, 0.98, 2.0, ("logit", 0.01))],
}


def _spec(family):
    kind, mu = family
    if kind == "custom":
        return PenaltySpec(kind="custom", t=_square, t_prime=_square_prime)
    return PenaltySpec(kind=kind, mu=mu)


@pytest.mark.parametrize("group", sorted(_SCAN_CASES))
def test_wage_scan_matches_the_share_scan(group):
    for sigma, phi, theta, family in _SCAN_CASES[group]:
        params = ModelParams(sigma=sigma, phi=phi, theta=theta)
        spec = _spec(family)
        new = find_equilibria(params, spec)
        old = _share_scan_equilibria(params, spec)
        where = f"{group}: sigma={sigma} phi={phi} theta={theta} {family}"
        assert [(e.kind, e.stability) for e in new] == \
            [(e.kind, e.stability) for e in old], where
        for a, b in zip(new, old):
            assert abs(a.h_star - b.h_star) <= 1e-12, where


@pytest.mark.parametrize("sigma,phi,theta", [
    (2.0, 0.4, 0.0), (2.5, 0.3, 1.0), (3.0, 0.6, 2.0), (1.5, 0.2, 0.5)])
@pytest.mark.parametrize("gap", [5e-9, 1e-8, 2e-8])
def test_rest_points_inside_the_first_scan_cell_are_found(sigma, phi, theta, gap):
    # just below a supercritical pitchfork the stable pair sits within about
    # 1e-4 of 1/2, inside the first scan cell, where delta_V is ~1e-12
    params = ModelParams(sigma=sigma, phi=phi, theta=theta)
    spec = PenaltySpec(kind="logit", mu=dispersion_threshold(params) - gap)
    eqs = find_equilibria(params, spec)
    assert [(e.kind, e.stability) for e in eqs] == [
        (KIND_PARTIAL, STABLE), (KIND_DISPERSION, UNSTABLE), (KIND_PARTIAL, STABLE)]


@pytest.mark.parametrize("sigma,phi,theta", [
    (2.0, 0.4, 0.0), (2.5, 0.3, 1.0), (3.0, 0.6, 2.0), (1.5, 0.2, 0.5)])
def test_a_first_cell_rest_point_is_finished_in_the_one_batch(monkeypatch, sigma, phi, theta):
    # the closed-form symmetric slope sends the locate phase into the first
    # scan cell, so the finish sees 1/2 and the pair together: one call,
    # also for all the steps of a sweep
    params = ModelParams(sigma=sigma, phi=phi, theta=theta)
    spec = PenaltySpec(kind="logit", mu=dispersion_threshold(params) - 1e-8)
    sizes = []
    incentive_and_slope = equilibria._incentive_and_slope

    def counted(h, *args, **kwargs):
        sizes.append(np.size(h))
        return incentive_and_slope(h, *args, **kwargs)

    monkeypatch.setattr(equilibria, "_incentive_and_slope", counted)
    assert len(find_equilibria(params, spec)) == 3
    assert sizes == [3]
    sizes.clear()
    branch = sweep("mu", spec.mu - 1e-8, spec.mu, 2, params, spec)
    assert [len(eqs) for _, eqs in branch.samples] == [3, 3] and sizes == [6]


def _check_upper_scan(params):
    """The scan's invariants; returns its share gaps."""
    nodes, h, g, log_odds, du, probe_du = equilibria._upper_scan(params)
    a, b = _share_terms(nodes, params)
    assert nodes[0] == 1.0 and nodes.size == GRID_POINTS // 2 + 1
    assert np.all(np.diff(nodes) >= 0.0)
    assert np.all(b > 0.0) and np.all(np.isfinite(log_odds))
    assert np.array_equal(h, a / (a + b)) and np.array_equal(g, b / (a + b))
    # the probes' delta_u (at their solved wages) is the scalar one's (one
    # Newton step on, at the probe shares) to a few ulps of a conditioning
    # that grows with |1 - theta|/(sigma - 1) and as theta nears 1
    scalar = np.array([delta_u(float(x), params) for x in equilibria._PROBES])
    gap = abs(1.0 - params.theta)
    cond = 1.0 if gap < LOG_UTILITY_BAND else (1.0 + gap / (params.sigma - 1.0)) / min(1.0, gap)
    ulps = np.abs(probe_du - scalar) / (cond * np.spacing(np.maximum(1.0, np.abs(scalar))))
    assert ulps.max() <= 4.0
    return np.diff(h)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(sigma=st.floats(1.05, 4.0), phi=st.floats(0.02, 0.98), theta=st.floats(0.0, 2.0))
def test_upper_scan_is_as_fine_as_the_uniform_share_scan(sigma, phi, theta):
    # each node's share is within the wage solve's residual tolerance of
    # its evenly spaced share
    gaps = _check_upper_scan(ModelParams(sigma=sigma, phi=phi, theta=theta))
    assert gaps.max() <= (0.5 - GRID_EDGE) / (GRID_POINTS // 2) + 2.0 * WAGE_RESIDUAL_TOL


@pytest.mark.parametrize("sigma", [2.0, 50.0, 200.0])
@pytest.mark.parametrize("phi", [1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-14])
def test_upper_scan_near_free_trade_keeps_its_invariants(sigma, phi):
    # here solved wages tie or swap by a spacing of doubles, and some
    # nodes' w**sigma rounds past 1/phi
    _check_upper_scan(ModelParams(sigma=sigma, phi=phi, theta=0.0))


# fig6-left sample weights mu = k/180 whose lower rest point sits within
# 1e-4 of h = 0, with the oracle's mirror share to 10 digits.
@pytest.mark.parametrize("k,share", [
    (7, 4.545952144e-9),
    (9, 3.247058625e-7),
    (10, 1.446618698e-6),
    (12, 1.360644179e-5),
    (13, 3.222813713e-5),
])
def test_near_boundary_mirror_share_matches_a_high_precision_oracle(k, share):
    mu = float(np.linspace(0.0, 1.0, 181)[k])
    ref = Economy(2.0, 0.4, 0.0, mu)
    truth = ref.shares(ref.rest_point())[1]
    assert float(truth) == pytest.approx(share, rel=1e-9)
    eqs = find_equilibria(ModelParams(sigma=2.0, phi=0.4, theta=0.0),
                          PenaltySpec(kind="logit", mu=mu))
    lower = eqs[0]
    assert lower.kind == KIND_PARTIAL and lower.stability == STABLE
    # the mirror is formed as 1 - h*, so a spacing of doubles just below 1
    # (2**-53) per unit of error in h* is the floor; allow two of them
    assert abs(lower.h_star - truth) <= 2.3e-16


@pytest.mark.parametrize("phi", [0.9999, 0.999999])
def test_rest_points_at_freeness_near_one_match_an_mpmath_oracle(phi):
    # here one spacing of doubles in w moves h by more than
    # WAGE_RESIDUAL_TOL, so the wage solve is held to a backward error in w
    params = ModelParams(sigma=2.0, phi=phi)
    eqs = find_equilibria(params, LOGIT02)
    ref = Economy(2.0, phi, 1.0, 0.2)
    # delta_V keeps one sign on the upper half: 1/2 is the only rest point
    signs = {ref.delta_V(1 + (phi ** -0.5 - 1) * k / 2001) < 0 for k in range(1, 2001)}
    assert signs == {True}
    assert [(e.h_star, e.w, e.kind, e.stability) for e in eqs] == \
        [(0.5, 1.0, KIND_DISPERSION, STABLE)]
    assert eqs[0].slope == pytest.approx(float(ref.dV_dh(0.5)), rel=1e-7)


@pytest.mark.parametrize("sigma,phi", [(50.0, 0.99999999992475), (200.0, 1.0 - 1e-9),
                                       (50.0, 1.0 - 1e-14)])
def test_scan_edge_where_the_power_rounds_past_the_bracket(sigma, phi):
    # some scan nodes' X = w**sigma rounds past 1/phi here, which clips their
    # b to 0: a scan that kept them would take log(0), a RuntimeWarning that
    # the test settings turn into an error.  At the last economy the scan
    # collapses to w = 1.
    for kind in ("logit", "linear"):
        eqs = find_equilibria(ModelParams(sigma=sigma, phi=phi), PenaltySpec(kind=kind, mu=0.2))
        assert [(e.h_star, e.w, e.kind, e.stability) for e in eqs] == \
            [(0.5, 1.0, KIND_DISPERSION, STABLE)]


def test_fig6_left_records_carry_python_floats():
    branch = sweep("mu", 0.0, 1.0, 181, ModelParams(sigma=2.0, phi=0.4, theta=0.0), LOGIT02)
    records = [e for _, eqs in branch.samples for e in eqs]
    assert any(1.0 - e.h_star < GRID_EDGE for e in records if e.kind == KIND_PARTIAL)
    for e in records:
        for field in fields(e):
            value = getattr(e, field.name)
            if not isinstance(value, str):
                assert type(value) is float, (field.name, e)


# ---------------------------------------------------------------------------
# the batched finish against the scalar oracle


def _random_configs(n, seed):
    """(sigma, phi, theta, family) drawn over the scan's working range."""
    rng = np.random.default_rng(seed)
    families = [("logit", None), ("linear", None), ("custom", None)]
    configs = []
    for _ in range(n):
        kind, _ = families[rng.integers(3)]
        mu = float(rng.uniform(0.0, 1.2)) if kind != "custom" else None
        theta = float(rng.choice([0.0, 1.0, 2.0])) if rng.random() < 0.3 else float(rng.uniform(0, 2))
        configs.append((float(rng.uniform(1.05, 4.0)), float(rng.uniform(0.02, 0.98)),
                        theta, (kind, mu)))
    return configs


# logit weights whose outer rest point sits within 1e-10 of the boundary
# (inside the chase past the scan edge) at sigma = 2, phi = 0.4
_NEAR_BOUNDARY = [(2.0, 0.4, theta, ("logit", mu)) for theta in (0.0, 1.0)
                  for mu in (0.024, 0.026, 0.028, 0.03, 0.032)]
# bounded penalties: linear weights and the zero logit weight keep h = 0, 1
_BOUNDED = [(sigma, phi, theta, family) for sigma, phi in ((1.5, 0.2), (2.0, 0.5), (3.0, 0.9))
            for theta in (0.0, 1.0)
            for family in (("linear", 0.05), ("linear", 0.3), ("logit", 0.0))]
_FINISH_CASES = {**_SCAN_CASES, "random-400": _random_configs(400, 5),
                 "near-boundary": _NEAR_BOUNDARY, "bounded": _BOUNDED}


@pytest.mark.parametrize("group", sorted(_FINISH_CASES))
def test_batched_finish_matches_the_scalar_oracle(group):
    closest = 1.0
    for sigma, phi, theta, family in _FINISH_CASES[group]:
        params = ModelParams(sigma=sigma, phi=phi, theta=theta)
        spec = _spec(family)
        where = f"{group}: sigma={sigma} phi={phi} theta={theta} {family}"
        for e in find_equilibria(params, spec):
            if e.kind != KIND_BOUNDARY:
                closest = min(closest, 1.0 - e.h_star)
                o = _interior_equilibrium(e.h_star, e.w, params, spec)
                assert (e.kind, e.stability) == (o.kind, o.stability), where
                slope = o.slope
            elif e.slope == -math.inf:  # pinned: no slope to compare
                continue
            else:
                slope = (float(delta_V(1.0, params, spec))
                         - float(delta_V(1.0 - FD_STEP, params, spec))) / FD_STEP
            assert e.slope == pytest.approx(slope, rel=1e-6, abs=1e-9), where
            assert classify_stability(e, params, spec) == e.stability, where
    if group == "near-boundary":
        assert closest < 1e-10


# ---------------------------------------------------------------------------
# the penalty-free scan, kept for the last economy


def test_mu_sweep_reuses_the_scan_and_matches_a_fresh_scan_at_every_step(monkeypatch):
    params = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    equilibria._upper_scan.cache_clear()
    cached = sweep("mu", 0.0, 1.0, 13, params, LOGIT02)
    info = equilibria._upper_scan.cache_info()
    # the zero-weight step's boundary check reads the probes from it once more
    assert (info.misses, info.hits) == (1, 13)

    locate = equilibria._locate

    def fresh_scan(p, spec, slope):
        equilibria._upper_scan.cache_clear()
        return locate(p, spec, slope)

    monkeypatch.setattr(equilibria, "_locate", fresh_scan)
    fresh = sweep("mu", 0.0, 1.0, 13, params, LOGIT02)
    assert repr(cached.samples) == repr(fresh.samples)
    assert repr(cached.bifurcations) == repr(fresh.bifurcations)


def test_cached_scan_arrays_are_read_only():
    arrays = equilibria._upper_scan(ModelParams(sigma=2.0, phi=0.4))
    assert len(arrays) == 6
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0


# ---------------------------------------------------------------------------
# thresholds


def test_mu_d_frozen_values():
    assert mu_d(2.0, 0.4) == pytest.approx(0.529411764705882, rel=1e-12)
    assert mu_d(2.0, 0.5) == pytest.approx(3.0 / 7.0, rel=1e-13)


def test_mu_p_equals_mu_d_at_unit_wage():
    for sigma in (1.5, 2.0, 2.5, 5.0, 10.0):
        for phi in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert mu_p(1.0, sigma, phi) == pytest.approx(mu_d(sigma, phi),
                                                          rel=1e-12)


def test_mu_p_decreases_toward_zero_at_the_bracket_end():
    sigma, phi = 2.0, 0.5
    X = np.linspace(1.0, (1.0 / phi) * (1.0 - 1e-8), 200)
    vals = [mu_p(float(x ** (1.0 / sigma)), sigma, phi) for x in X]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1e-6
    assert mu_p(1.1, sigma, phi) == pytest.approx(0.401512801546207, rel=1e-10)


def test_mu_p_domain_error_outside_bracket():
    with pytest.raises(ValueError):
        mu_p(0.5, 2.0, 0.5)
    with pytest.raises(ValueError):
        mu_p(1.5, 2.0, 0.5)


def test_phi_b_frozen_values_and_absence():
    assert phi_b(2.0, 0.2) == pytest.approx(0.75, rel=1e-12)
    assert phi_b(2.5, 0.2) == pytest.approx(0.651162790697674, rel=1e-12)
    assert phi_b(2.0, 1.5) is None
    assert phi_b(2.0, 0.0) is None


def test_dispersion_threshold_reduces_to_mu_d_at_log_curvature():
    p = ModelParams(sigma=2.0, phi=0.4, theta=1.0)
    assert dispersion_threshold(p) == pytest.approx(mu_d(2.0, 0.4), rel=1e-13)
    p0 = p.with_theta(0.0)
    assert dispersion_threshold(p0) == pytest.approx(
        mu_d(2.0, 0.4) * (1.0 + 0.4) / 2.0, rel=1e-13)


def test_threshold_phi_crossings_match_closed_form_at_log_curvature():
    p = ModelParams(sigma=2.0, phi=0.5, theta=1.0)
    crossings = threshold_phi_crossings(p, 0.2)
    assert len(crossings) == 1
    assert crossings[0] == pytest.approx(0.75, abs=1e-10)
    # curvature moves the numeric crossing away from the closed form
    c0 = threshold_phi_crossings(p.with_theta(0.0), 0.2)
    assert len(c0) == 1
    assert c0[0] == pytest.approx(0.710793585979, abs=1e-8)


def _per_phi_crossings(params, mu):
    """threshold_phi_crossings by one ModelParams and one closed form per freeness."""
    grid = [float(p) for p in np.linspace(1e-6, 1.0 - 1e-6, 1024)]
    g = lambda p: dispersion_threshold(params.with_phi(p)) - mu
    values = [g(p) for p in grid]
    found = [(p, p) for p, v in zip(grid, values) if v == 0.0]
    found += [(a, brentq(g, a, b, xtol=1e-14, maxiter=200))
              for a, b, va, vb in zip(grid, grid[1:], values, values[1:]) if va * vb < 0.0]
    return [root for _, root in sorted(found)]


def test_threshold_phi_crossings_match_the_per_phi_oracle():
    rng = np.random.default_rng(11)
    crossed = 0
    for _ in range(400):
        params = ModelParams(sigma=float(rng.uniform(1.05, 4.0)), phi=0.5,
                             theta=float(rng.uniform(0.0, 2.0)))
        # weights up to 1.2x the largest threshold, so most draws cross
        mu = float(rng.uniform(0.0, 1.2)) * dispersion_threshold(params.with_phi(1e-6))
        found = threshold_phi_crossings(params, mu)
        assert repr(found) == repr(_per_phi_crossings(params, mu))
        crossed += bool(found)
    assert crossed > 200


def test_threshold_phi_crossings_report_an_exact_zero_at_the_last_node():
    p = ModelParams(sigma=2.0, phi=0.5, theta=1.0)
    last = 1.0 - 1e-6
    assert threshold_phi_crossings(p, dispersion_threshold(p.with_phi(last))) == [last]


@pytest.mark.parametrize("scale", [1e-200, 2e300])
def test_grid_roots_compare_signs_not_products(scale):
    # neighbouring values +-5e-201 multiply to -0.0, which hid the root, and
    # +-1e300 overflow with a RuntimeWarning; a sign comparison sees both
    f = lambda x: scale * (x - 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nodes in ([0.0, 1.0], [0.0, 0.5, 1.0]):  # a zero node brackets nothing more
            x = np.array(nodes)
            assert equilibria._grid_roots(f, x, f(x), 1e-15) == [0.5]


# ---------------------------------------------------------------------------
# bifurcations and sweeps


# The pitchforks of fig6-left (mu, also the one criterion 7 detects) and
# fig6-right (phi), and fig6-left's economy at theta = 1, with their 40-digit
# d3(delta_V)/dh3 at 1/2.  The stencil is 3.6e-7 (relative) off at theta = 0
# and 6.4e-7 at theta = 1.
@pytest.mark.parametrize("parameter,value,phi,theta,truth,rel", [
    ("mu", 0.37058823529411755, 0.4, 0.0, -11.6850325067946953, 4e-7),
    ("phi", 0.7107935859793734, 0.5, 0.0, -6.370214910135021276, 4e-7),
    ("mu", 0.5294117647058822, 0.4, 1.0, -7.7240454496473915261, 1e-6),
], ids=["fig6-left", "fig6-right", "fig6-left-theta1"])
def test_pitchfork_third_derivative_matches_a_40_digit_oracle(parameter, value, phi, theta,
                                                               truth, rel):
    b = pitchfork_criticality(parameter, value, ModelParams(sigma=2.0, phi=phi, theta=theta),
                              LOGIT02)
    at_phi, at_mu = (value, LOGIT02.mu) if parameter == "phi" else (phi, value)
    third = Economy(2.0, at_phi, theta, at_mu, dps=40).dV_dh(0.5, 3)
    assert float(third) == pytest.approx(truth, rel=1e-15)
    assert b.criticality == SUPERCRITICAL
    assert abs(b.third_derivative / float(third) - 1.0) <= rel


def test_freeness_derivative_has_criterion_3s_signs_on_its_whole_grid():
    # criterion 3's 1125 points: d(delta_u)/dphi at the fixed share is >= 0
    # at exactly the nine of (sigma, phi, theta) = (1.5, 0.1, 0), where it is
    # positive, and negative at the other 1116; the closed form agrees
    not_negative = []
    for sigma, phi, theta in itertools.product(SIGMA_GRID, PHI_GRID, (0.0, 0.5, 1.0, 2.0, 10.0)):
        params = ModelParams(sigma=sigma, phi=phi, theta=theta)
        ref = Economy(sigma, phi, theta, dps=20)
        for k in range(9):
            h = 0.55 + 0.05 * k
            truth = ref.ddelta_u_dphi(h)
            if truth >= 0:
                not_negative.append((sigma, phi, theta, truth > 0))
            assert abs(ddelta_u_dphi(h, params) / float(truth) - 1.0) <= 1e-12
    assert not_negative == [(1.5, 0.1, 0.0, True)] * 9


def test_criterion_5_phi_sweep_detects_the_curvature_adjusted_threshold():
    # criterion 5's own phi sweep has one supercritical pitchfork where the
    # theta = 0 threshold puts it (the criterion compares against theta = 1
    # closed forms instead); its mu sweep is the wide range below
    p = ModelParams(sigma=2.0, phi=0.5, theta=0.0)
    branch = sweep("phi", 0.05, 0.95, 181, p, LOGIT02)
    assert [b.criticality for b in branch.bifurcations] == [SUPERCRITICAL]
    assert abs(branch.bifurcations[0].value - threshold_phi_crossings(p, 0.2)[0]) <= 1e-12


def test_mu_sweep_detects_the_curvature_adjusted_threshold():
    p = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    for lo, hi, steps in ((0.2, 0.6, 21), (0.0, 1.0, 181)):  # the second is criterion 5's
        branch = sweep("mu", lo, hi, steps, p, LOGIT02)
        assert len(branch.bifurcations) == 1
        b = branch.bifurcations[0]
        assert b.value == pytest.approx(dispersion_threshold(p), abs=1e-8)
        assert b.criticality == SUPERCRITICAL
        assert branch.diagnostics == []
        # stable asymmetric branch exists only below the threshold and moves
        # toward 1/2 as the weight grows
        upper = {}
        for value, eqs in branch.samples:
            tops = [e.h_star for e in eqs if e.kind == KIND_PARTIAL and e.h_star > 0.5
                    and e.stability == STABLE]
            if tops:
                upper[value] = max(tops)
        assert all(v < b.value + 1e-6 for v in upper)
        seq = [upper[v] for v in sorted(upper)]
        assert all(a > c for a, c in zip(seq, seq[1:]))


def test_phi_sweep_at_log_curvature_recovers_the_closed_form_threshold():
    p = ModelParams(sigma=2.0, phi=0.5, theta=1.0)
    branch = sweep("phi", 0.6, 0.9, 16, p, LOGIT02)
    assert len(branch.bifurcations) == 1
    assert branch.bifurcations[0].value == pytest.approx(0.75, abs=1e-9)
    assert branch.bifurcations[0].criticality == SUPERCRITICAL


def _fd_slope_pitchforks(parameter, lo, hi, steps, params, spec):
    """Pitchforks located by bracketing the central-FD symmetric slope.

    Independent of the closed form the sweep brackets on: every slope is a
    central finite difference of delta_V at 1/2 through two wage solves.
    An exact zero at a step is a pitchfork as it stands; each sign change
    between neighbouring steps is polished by brentq on the same slope.
    """
    def slope_at(v):
        if parameter == "phi":
            return _slope_delta_V(0.5, params.with_phi(v), spec)
        return _slope_delta_V(0.5, params, replace(spec, mu=v))

    values = [float(v) for v in np.linspace(lo, hi, steps)]
    slopes = [slope_at(v) for v in values]
    located = [v for v, s in zip(values, slopes) if s == 0.0]
    located += [brentq(slope_at, a, b, xtol=1e-12, maxiter=200)
                for a, b, sa, sb in zip(values, values[1:], slopes, slopes[1:])
                if sa * sb < 0.0]
    return [pitchfork_criticality(parameter, v, params, spec) for v in sorted(located)]


def _half_square(x):
    return 0.5 * x * x


def _half_square_prime(x):
    return x


# (parameter, lo, hi, steps, base phi, penalty); each has one pitchfork in
# range at sigma = 2 for every tested theta
_PITCHFORK_SWEEPS = {
    "mu-logit": ("mu", 0.1, 1.0, 10, 0.4, PenaltySpec(kind="logit", mu=0.2)),
    "mu-linear": ("mu", 0.2, 2.0, 10, 0.4, PenaltySpec(kind="linear", mu=0.2)),
    "phi-logit": ("phi", 0.02, 0.98, 13, 0.5, PenaltySpec(kind="logit", mu=0.2)),
    "phi-linear": ("phi", 0.02, 0.98, 13, 0.5, PenaltySpec(kind="linear", mu=0.4)),
    "phi-custom": ("phi", 0.02, 0.98, 13, 0.5,
                   PenaltySpec(kind="custom", t=_half_square, t_prime=_half_square_prime)),
}


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0 - 1e-9, 1.0, 2.0])
@pytest.mark.parametrize("case", sorted(_PITCHFORK_SWEEPS))
def test_sweep_pitchforks_match_the_fd_slope_locator(case, theta):
    parameter, lo, hi, steps, phi, spec = _PITCHFORK_SWEEPS[case]
    params = ModelParams(sigma=2.0, phi=phi, theta=theta)
    found = sweep(parameter, lo, hi, steps, params, spec).bifurcations
    oracle = _fd_slope_pitchforks(parameter, lo, hi, steps, params, spec)
    assert len(found) == len(oracle) >= 1
    for b, o in zip(found, oracle):
        assert b.criticality == o.criticality
        assert b.value == pytest.approx(o.value, rel=1e-7)


@pytest.mark.parametrize("theta", [1.0 - 1e-9, 1.0 + 1e-9])
def test_log_band_pitchfork_sits_where_the_delta_V_slope_turns(theta):
    # inside LOG_UTILITY_BAND delta_u is the theta = 1 model, and so must be
    # the closed-form slope the sweep brackets
    parameter, lo, hi, steps, phi, spec = _PITCHFORK_SWEEPS["mu-logit"]
    params = ModelParams(sigma=2.0, phi=phi, theta=theta)
    found = sweep(parameter, lo, hi, steps, params, spec).bifurcations
    oracle = _fd_slope_pitchforks(parameter, lo, hi, steps, params, spec)
    assert len(found) == len(oracle) == 1
    assert found[0].value == pytest.approx(oracle[0].value, rel=1e-10)


def test_a_failed_step_hides_no_pitchfork(monkeypatch):
    # the pitchfork at phi = 0.75 lies between the steps 0.7 and 0.8
    params = ModelParams(sigma=2.0, phi=0.5, theta=1.0)
    locate = equilibria._locate

    def failing_scan(p, spec, slope):
        if p.phi == 0.7:
            raise SolverError("injected failure")
        return locate(p, spec, slope)

    monkeypatch.setattr(equilibria, "_locate", failing_scan)
    branch = sweep("phi", 0.6, 0.9, 4, params, LOGIT02)
    assert branch.diagnostics == ["phi=0.7: SolverError: injected failure"]
    assert [b.value for b in branch.bifurcations] == [pytest.approx(0.75, abs=1e-12)]


def test_sweep_with_workers_matches_serial():
    p = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    serial = sweep("mu", 0.1, 0.6, 11, p, LOGIT02)
    parallel = sweep("mu", 0.1, 0.6, 11, p, LOGIT02, workers=2)
    assert serial.samples == parallel.samples
    assert serial.bifurcations == parallel.bifurcations
    assert serial.diagnostics == parallel.diagnostics


def _assert_sweep_is_the_per_step_solve(parameter, lo, hi, steps, params, spec, workers=1):
    """Each sample of a sweep equals find_equilibria at its step, exactly,
    and a step that find_equilibria fails on carries its text."""
    branch = sweep(parameter, lo, hi, steps, params, spec, workers=workers)
    diagnostics = []
    for value, (sample_value, eqs) in zip(np.linspace(lo, hi, steps).tolist(), branch.samples):
        p2, s2 = (params.with_phi(value), spec) if parameter == "phi" \
            else (params, replace(spec, mu=value))
        try:
            expected = find_equilibria(p2, s2)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            expected = []
            diagnostics.append(f"{parameter}={value!r}: {type(exc).__name__}: {exc}")
        assert (sample_value, eqs) == (value, expected)
    assert branch.diagnostics == diagnostics
    return branch


@settings(deadline=None, max_examples=40, derandomize=True)
@given(
    sigma=st.floats(1.05, 4.0),
    phi=st.floats(0.05, 0.95),
    theta=st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0]),
    kind=st.sampled_from(["logit", "linear"]),
    sweep_range=st.sampled_from(["phi", "mu-from-0", "mu-near-0"]),
    workers=st.sampled_from([1, 2]),
)
def test_sweep_samples_equal_the_per_step_solve(sigma, phi, theta, kind, sweep_range, workers):
    # mu ranges starting at 0 and at 1e-3 of the threshold take in zero
    # weights, near-boundary chases and pinned rest points
    params = ModelParams(sigma=sigma, phi=phi, theta=theta)
    threshold = dispersion_threshold(params)
    spec = PenaltySpec(kind=kind, mu=threshold)
    if sweep_range == "phi":
        _assert_sweep_is_the_per_step_solve("phi", 0.05, 0.95, 7, params, spec, workers)
    else:
        lo = 0.0 if sweep_range == "mu-from-0" else 1e-3 * threshold
        _assert_sweep_is_the_per_step_solve("mu", lo, 2.0 * threshold, 7, params, spec, workers)


@pytest.mark.parametrize("parameter,lo,hi,spec", [
    # pitchfork at mu = 0.370588: rest points inside the first scan cell
    ("mu", 0.370588235 - 4e-8, 0.370588235 + 4e-8, LOGIT02),
    # fig6-left's smallest weights: boundary points, pinned and chased rest points
    ("mu", 0.0, 0.05, LOGIT02),
    ("mu", 0.0, 1.0, PenaltySpec(kind="linear", mu=0.2)),
    ("phi", 0.02, 0.98, LOGIT02),
    ("phi", 0.02, 0.98, PenaltySpec(kind="custom", t=_square, t_prime=_square_prime)),
    # fig6-right's pitchfork: the phi-steps' slopes hand over the first-cell search
    ("phi", 0.7107935859793734 - 4e-8, 0.7107935859793734 + 4e-8, LOGIT02),
])
def test_sweep_samples_equal_the_per_step_solve_on_fig6_economies(parameter, lo, hi, spec):
    params = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    branch = _assert_sweep_is_the_per_step_solve(parameter, lo, hi, 41, params, spec)
    # (kind, pinned, chased past the scan edge)
    kinds = {(e.kind, e.slope == -math.inf, 0.0 < 1.0 - e.h_star < GRID_EDGE)
             for _, eqs in branch.samples for e in eqs}
    if parameter == "mu" and spec.kind == "logit" and lo == 0.0:
        assert {(KIND_BOUNDARY, False, False), (KIND_BOUNDARY, True, False),
                (KIND_PARTIAL, False, True)} <= kinds


# Near sigma = 1 with theta > 1, kappa = (1 - theta)/(sigma - 1) is large and
# negative: ((1 + phi)/2)**kappa and the utility powers can pass the largest
# double.  In a 300-draw run of this strategy 188 did, each a SolverError
# naming the quantity and the economy; the others solved with finite residuals.
@settings(deadline=None, max_examples=100, derandomize=True)
@given(log_gap=st.floats(-4.0, -1.2), theta=st.floats(1.18, 5.0), phi=st.floats(1e-6, 1.0 - 1e-6),
       log_mu=st.floats(-300.0, 6.0), kind=st.sampled_from(["logit", "linear"]))
def test_economies_near_sigma_one_solve_or_name_the_overflow(log_gap, theta, phi, log_mu, kind):
    params = ModelParams(sigma=1.0 + 10.0 ** log_gap, phi=phi, theta=theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            eqs = find_equilibria(params, PenaltySpec(kind=kind, mu=10.0 ** log_mu))
        except SolverError as exc:
            assert "leaves the double range" in str(exc)
            assert f"sigma={params.sigma!r}" in str(exc) and f"theta={theta!r}" in str(exc)
            return
    assert eqs and all(math.isfinite(e.residual) for e in eqs)


def test_delta_V_of_mixed_economies_matches_each_economys_own_call():
    params = ModelParams(sigma=2.0, phi=0.4, theta=0.5)
    h = np.linspace(0.0, 1.0, 9)
    economies = [(phi, mu) for phi in (0.1, 0.4, 0.9) for mu in (0.0, 0.05, 0.3)]
    for kind in ("logit", "linear"):
        spec = PenaltySpec(kind=kind, mu=0.2)
        mixed = delta_V(np.tile(h, len(economies)), params, spec,
                        phi=np.repeat([p for p, _ in economies], h.size),
                        mu=np.repeat([m for _, m in economies], h.size))
        alone = np.concatenate([delta_V(h, params.with_phi(p), replace(spec, mu=m))
                                for p, m in economies])
        assert [x.hex() for x in mixed] == [x.hex() for x in alone], kind


def _bumped_incentive(monkeypatch, fail):
    """Make delta_V at freeness 0.7 fail: ``fail`` 'residual' lifts it off
    zero, 'raise' raises from the call that carries such a share."""
    incentive = equilibria.delta_V

    def bumped(h, params, spec, *, phi=None, mu=None):
        v = incentive(h, params, spec, phi=phi, mu=mu)
        at = np.broadcast_to(params.phi if phi is None else phi, np.shape(v)) == 0.7
        if fail == "raise" and at.any():
            raise SolverError("injected failure")
        return v + 1e-6 * at

    monkeypatch.setattr(equilibria, "delta_V", bumped)


@pytest.mark.parametrize("fail", ["residual", "raise"])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_step_whose_finish_fails_keeps_its_text_and_spares_the_others(monkeypatch,
                                                                       fail, workers):
    params = ModelParams(sigma=2.0, phi=0.5, theta=1.0)
    clean = sweep("phi", 0.6, 0.9, 4, params, LOGIT02)
    _bumped_incentive(monkeypatch, fail)
    branch = _assert_sweep_is_the_per_step_solve("phi", 0.6, 0.9, 4, params, LOGIT02, workers)
    assert len(branch.diagnostics) == 1 and branch.diagnostics[0].startswith(
        "phi=0.7: SolverError: " + ("rest-point residual" if fail == "residual"
                                    else "injected failure"))
    assert [eqs for _, eqs in branch.samples] == [
        [] if value == 0.7 else eqs for value, eqs in clean.samples]


def test_high_weight_sweep_keeps_dispersion_stable_everywhere():
    p = ModelParams(sigma=2.0, phi=0.4, theta=0.0)
    branch = sweep("phi", 0.1, 0.9, 9, p, PenaltySpec(kind="logit", mu=2.0))
    assert branch.bifurcations == []
    for _, eqs in branch.samples:
        assert len(eqs) == 1
        assert eqs[0].kind == KIND_DISPERSION and eqs[0].stability == STABLE


def test_sweep_validation():
    p = ModelParams(sigma=2.0, phi=0.4)
    with pytest.raises(ValueError):
        sweep("sigma", 0.1, 0.9, 5, p, LOGIT02)
    with pytest.raises(ValueError):
        sweep("phi", 0.9, 0.1, 5, p, LOGIT02)
    with pytest.raises(ValueError):
        sweep("phi", 0.0, 0.9, 5, p, LOGIT02)
    with pytest.raises(ValueError):
        sweep("mu", -0.1, 0.5, 5, p, LOGIT02)
    with pytest.raises(ValueError, match="penalty weight mu must be finite"):
        sweep("mu", 0.1, math.inf, 5, p, LOGIT02)
    with pytest.raises(ValueError, match=r"phi must lie strictly inside \(0, 1\), got nan"):
        sweep("phi", 0.1, math.nan, 5, p, LOGIT02)
    with pytest.raises(ValueError):
        sweep("mu", 0.1, 0.5, 1, p, LOGIT02)
    with pytest.raises(ValueError):
        sweep("mu", 0.1, 0.5, 5, p, LOGIT02, workers=0)


def test_mu_sweep_rejects_custom_penalty():
    p = ModelParams(sigma=2.0, phi=0.4)
    custom = PenaltySpec(kind="custom", t=lambda x: x, t_prime=lambda x: 1.0)
    with pytest.raises(ValueError):
        sweep("mu", 0.1, 0.5, 5, p, custom)
