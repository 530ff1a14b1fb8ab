"""Indirect-utility differential between the two regions.

``delta_u(h)`` is the utility advantage of living in region L when a share
h of the population does, evaluated at the market-clearing wage.  Its sign
drives migration; its roots and slopes drive everything in
:mod:`geoeq.equilibria`.

The gap and every slope are closed forms in the wage w, one expression for
scalars and arrays, whose powers are numpy's (see :mod:`geoeq.model`), so
a scalar gets the bits it gets inside any array: the gap ``_delta_u_at``
reads the consumption ratio C_L/C_R = w**m, and the slope kernel
``_slopes`` differentiates the wage map implicitly.  The public functions
solve the wage state of a share, the wage with its share terms
(:func:`geoeq.model._solve_state`), and pass it on, so nothing forms those
terms twice; the tests check both against the high-precision reference
model.  The slope coefficients are exposed as
:class:`StabilityCoefficients` because their signs, not just the final
value, are individually meaningful.  ``ddelta_u_dh_closed``
is a former name of ``ddelta_u_dh``, kept while the benchmark names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (G_poly, ModelParams, SolverError, _checked, _in_open_unit_interval,
                    _interior_share, _solve_state)

__all__ = [
    "StabilityCoefficients",
    "delta_u",
    "ddelta_u_dh",
    "ddelta_u_dh_closed",
    "stability_coefficients",
    "dispersion_slope",
    "ddelta_u_dphi",
]

# theta this close to 1 is taken as 1: a convention shared with the benchmark's oracle.
LOG_UTILITY_BAND = 1e-8

# ln of the largest double, 709.7827..., less a margin for an exponent's rounding.
_EXP_LIMIT = 709.78


def _utility_theta(params: ModelParams) -> float:
    """theta, or exactly 1 inside LOG_UTILITY_BAND: the curvature every formula here takes."""
    return 1.0 if abs(params.theta - 1.0) < LOG_UTILITY_BAND else params.theta


def _check_range(log_value, what: str, params: ModelParams, phi) -> None:
    """A SolverError naming ``what`` and the economy where exp(log_value) overflows."""
    bad = log_value > _EXP_LIMIT
    if bad.any() if bad.ndim else bad:
        phi = np.ravel(np.broadcast_to(phi, np.shape(bad)))[np.argmax(bad)]
        raise SolverError(f"{what} leaves the double range at sigma={params.sigma!r}, "
                          f"phi={float(phi)!r}, theta={params.theta!r}")


def _scaled_exp(top, q, over, what: str, params: ModelParams, phi):
    """e**top q, with ln|q| folded into top where ``over`` holds; a
    SolverError names ``what`` where the product leaves the double range."""
    if over.any() if over.ndim else over:
        with np.errstate(divide="ignore"):  # ln 0 where q = 0
            top = np.where(over, top + np.log(abs(q)), top)
        q = np.where(over, np.sign(q), q)
        _check_range(top, what, params, phi)
    return np.exp(top) * q


def _power_sum(c1, l1, c2, l2, what: str, params: ModelParams, phi=None):
    """c1 e**l1 + c2 e**l2, the larger power factored out as in :func:`_delta_u_at`;
    ``phi``, if given, is the per-element freeness a SolverError names."""
    top = np.maximum(l1, l2)
    q = c1 * np.exp(l1 - top) + c2 * np.exp(l2 - top)
    return _scaled_exp(top, q, top + np.log(np.maximum(abs(q), 1.0)) > _EXP_LIMIT,
                       what, params, params.phi if phi is None else phi)


def delta_u(h, params: ModelParams, *, phi=None):
    """Utility advantage of region L at population share h.

    Antisymmetric about h = 1/2 and zero there.  Accepts scalars or
    arrays; each point is evaluated at its own market-clearing wage.
    ``phi``, if given, is a per-element freeness broadcast against h in
    place of ``params.phi``, as in :func:`geoeq.model.solve_wage`.

    At market clearing C_L/C_R = w**m, m = (2 sigma - 1)/(sigma - 1).  With
    r = 1 - theta and the log-consumption gap L = m ln w, the value is

        C_R**r expm1(r L) / r,   C_R**(sigma - 1) = (1 - phi**2) w / (a + b),

    and its limit L at r = 0, with a, b the share terms of the solved
    wage (:func:`geoeq.model._solve_state`).  ln w is taken one Newton step
    on from the solved wage, to h.  A SolverError says where the value
    leaves the double range.
    """
    h_arr = np.asarray(h, dtype=float)
    w, X, a, b = _solve_state(h_arr, params, phi)
    ab = a + b
    # one Newton step: the share residual h - a/(a + b) times
    # d(ln w)/dh = (a + b)**2 / (w X G)
    step = (h_arr * ab - a) * ab / (w * X * G_poly(X, params, phi=phi))
    val = _delta_u_at(np.log(w) + step, w, ab, params, phi)
    return float(val) if np.ndim(h) == 0 else val


def _delta_u_at(log_w, w, ab, params: ModelParams, phi=None):
    """delta_u at wages w, given ln w and the share denominator ab = a + b.

    No wage solve and no domain checks; ``phi`` is as in :func:`delta_u`.
    e**top is the larger of C_L**r = C_R**r e**x (x = r L) and C_R**r, and
    the powers over it, e**(x - x+) and e**(-x+) with x+ = max(x, 0),
    include an exact 1: nothing cancels or overflows while the value fits.
    """
    s, r = params.sigma, 1.0 - _utility_theta(params)
    gap = (2.0 * s - 1.0) / (s - 1.0) * log_w
    if r == 0.0:
        return gap
    p = params.phi if phi is None else phi
    x = r * gap
    x_plus = 0.5 * (x + abs(x))
    top = r / (s - 1.0) * np.log((1.0 - p) * (1.0 + p) * w / ab) + x_plus
    q = (np.expm1(x - x_plus) - np.expm1(-x_plus)) / r  # |q| < 1/|r|
    if r < 0.0:  # both powers exceed 1: where exp(top) would overflow, fold |q| into it
        return _scaled_exp(top, q, top > _EXP_LIMIT + math.log(min(1.0, -r)),
                           "utility gap", params, p)
    return np.exp(top) * q


@dataclass(frozen=True)
class StabilityCoefficients:
    """Sign-carrying pieces of the closed-form utility-differential slopes.

    With X = w**sigma, a + b > 0 the wage map's denominator and G =
    G_poly(X) > 0: ``zeta``/``varphi``/``psi`` assemble the slope in the
    share, with zeta = -(a + b)/((sigma - 1) G) < 0, so the bracketed
    utility factor carries its sign; ``a1``/``a2``/``a3`` assemble the
    slope in the freeness, with a3 = -(sigma - 1)((a + b)/X) G < 0, and
    ``Psi`` is that slope stripped of its positive factor w core**-e (see
    :func:`_slopes`): Psi < 0 means freer trade erodes the attraction of
    the crowded region.
    """

    zeta: float
    varphi: float
    psi: float
    a1: float
    a2: float
    a3: float
    Psi: float


def _slopes(w, X, a, b, params: ModelParams, phi=None):
    """The coefficients zeta ... a3 of :class:`StabilityCoefficients`,
    d(delta_u)/dh, d(delta_u)/d(phi) and ln X**-e at the wage state (w, X,
    a, b), scalar or array; ``phi``, if given, is a per-element freeness in
    place of ``params.phi``, as in :func:`delta_u`.  With core =
    C_R**(sigma - 1) = (1 - phi**2) w/(a + b), kappa = (1 - theta)/(sigma - 1)
    and e = 1 - kappa, the slopes are zeta (varphi (X core)**kappa + psi
    core**kappa / w) and -(w/a3)(a1 (X core)**-e + a2 core**-e).  Near
    sigma = 1 those powers leave the double range where the slopes do not:
    they are formed in logs.
    varphi and psi are O(1 - phi) at w = 1; written in the share terms,
    varphi's bracket as sigma phi X (1 - w) - (2 sigma - 1) b and psi as
    sigma phi (w - 1) - (2 sigma - 1) a/X, they take no cancellation there.
    """
    s, th = params.sigma, _utility_theta(params)
    p = params.phi if phi is None else phi
    ab = a + b
    G = G_poly(X, params, phi=p)
    zeta = -ab / ((s - 1.0) * G)
    varphi = np.power(w, -th - s) * (s * p * X * (1.0 - w) - (2.0 * s - 1.0) * b)
    psi = s * p * (w - 1.0) - (2.0 * s - 1.0) * (a / X)
    a1 = (np.power(w, 1.0 - th) * (p * X - 1.0)
          * (-2.0 * s + 2.0 * (s - 1.0) * p * X + p * p + 1.0))
    a2 = np.power(w, -s) * (X - p) * (2.0 * (s - 1.0) * p + (p * p + 1.0 - 2.0 * s) * X)
    a3 = -(s - 1.0) * (ab / X) * G
    kappa = (1.0 - th) / (s - 1.0)
    e = (th + s - 2.0) / (s - 1.0)
    log_x = s * np.log(w)
    log_core = np.log((1.0 - p) * (1.0 + p) * w / ab)
    du_dh = _power_sum(zeta * varphi, kappa * (log_x + log_core), zeta * psi / w,
                       kappa * log_core, "utility slope in h", params, p)
    du_dphi = _power_sum(-w * a1 / a3, -e * (log_x + log_core), -w * a2 / a3, -e * log_core,
                         "utility slope in phi", params, p)
    return (zeta, varphi, psi, a1, a2, a3), du_dh, du_dphi, -e * log_x


def stability_coefficients(h_star: float, params: ModelParams) -> StabilityCoefficients:
    """Closed-form coefficient bundle at an interior share h_star; Psi =
    -(a1 X**-e + a2)/a3 is formed in logs as the slopes are."""
    _interior_share(h_star)
    (zeta, varphi, psi, a1, a2, a3), _, _, log_x_e = _slopes(*_solve_state(h_star, params), params)
    Psi = _power_sum(-a1 / a3, log_x_e, -a2 / a3, 0.0, "Psi", params)
    return StabilityCoefficients(*(float(v) for v in (zeta, varphi, psi, a1, a2, a3, Psi)))


def ddelta_u_dh(h_star: float, params: ModelParams) -> float:
    """Closed-form slope of the utility differential at an interior share.

    Assembled from the implicit wage derivative; finite for every interior
    h because the only candidate singularities sit at the bracket ends.
    """
    _interior_share(h_star)
    return float(_slopes(*_solve_state(h_star, params), params)[1])


def ddelta_u_dh_closed(h_star: float, params: ModelParams) -> float:
    """:func:`ddelta_u_dh` under its former name, which the benchmark's span
    list still wraps; it goes with the benchmark's next change."""
    return ddelta_u_dh(h_star, params)


def dispersion_slope(params: ModelParams, *, phi=None):
    """Symmetric-point slope expression in the display convention.

    Closed form at h = 1/2 (where w = 1):

        2(2 sigma - 1)(1 - phi) ((1+phi)/2)**kappa
            / ((sigma - 1)(2 sigma + phi - 1)).

    Note the convention: this display equals exactly half of the true
    derivative ``ddelta_u_dh(1/2)``.  Threshold formulas built from it
    (``mu_d`` and friends) halve the penalty side by the same factor, so
    the pair stays consistent; see the equilibria module.  ``phi``, if
    given, is a freeness (scalar or array) in place of ``params.phi``, as
    in :func:`delta_u`, and checked as ``params.phi`` is.  A SolverError
    says where the slope overflows, as it can for theta > 1 near sigma = 1.
    """
    s = params.sigma
    if phi is not None:
        _in_open_unit_interval(phi)
    p = params.phi if phi is None else phi
    kappa = (1.0 - _utility_theta(params)) / (s - 1.0)
    if kappa < 0.0:  # ((1+phi)/2)**kappa exceeds 1 and can overflow
        _check_range(np.log(2.0 * (2.0 * s - 1.0) * (1.0 - p) / ((s - 1.0) * (2.0 * s + p - 1.0)))
                     + kappa * np.log((1.0 + p) / 2.0), "symmetric slope", params, p)
    slope = (2.0 * (2.0 * s - 1.0) * (1.0 - p) * np.power((1.0 + p) / 2.0, kappa)
             / ((s - 1.0) * (2.0 * s + p - 1.0)))
    return float(slope) if np.ndim(slope) == 0 else slope


def ddelta_u_dphi(h_star: float, params: ModelParams) -> float:
    """Slope of the utility differential in the freeness of trade.

    Defined for asymmetric interior shares in (1/2, 1); by antisymmetry
    the mirrored share has the opposite sign.  Negative whenever the
    crowded region's advantage shrinks as trade gets freer.
    """
    _checked(h_star, lambda x: (x > 0.5) & (x < 1.0),
             "population share must lie strictly inside (1/2, 1)")
    return float(_slopes(*_solve_state(h_star, params), params)[2])
