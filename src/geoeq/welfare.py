"""Indirect-utility differential between the two regions.

``delta_u(h)`` is the utility advantage of living in region L when a share
h of the population does, evaluated at the market-clearing wage.  Its sign
drives migration; its roots and slopes drive everything in
:mod:`geoeq.equilibria`.

The derivative helpers come in two flavors: finite differences through the
wage solver (robust, any h), and closed forms obtained by implicit
differentiation (fast, exact, used to cross-check the numerics and to
price stability of interior rest points).  The closed forms carry a
cluster of intermediate coefficients that are exposed as
:class:`StabilityCoefficients` because their signs, not just the final
value, are individually meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, SingularityError, solve_wage

__all__ = [
    "StabilityCoefficients",
    "delta_u",
    "ddelta_u_dh",
    "ddelta_u_dh_closed",
    "stability_coefficients",
    "dispersion_slope",
    "ddelta_u_dphi",
]

# Below this distance from theta = 1 the isoelastic prefactor 1/(1 - theta)
# loses too many digits, so evaluation routes through the log-utility limit.
LOG_UTILITY_BAND = 1e-8

# Central finite-difference step for the derivative checks: cube root of
# machine epsilon balances truncation against cancellation for O(1) slopes.
FD_STEP = float(np.cbrt(np.finfo(float).eps))

# Closed-form and finite-difference slopes must agree to this relative
# tolerance before a closed-form value is trusted.
CLOSED_FORM_REL_TOL = 1e-6


def _utility_theta(params: ModelParams) -> float:
    """The curvature every utility formula here evaluates: theta, or exactly
    1 inside LOG_UTILITY_BAND, where delta_u takes the log-utility limit."""
    return 1.0 if abs(params.theta - 1.0) < LOG_UTILITY_BAND else params.theta


def delta_u(h, params: ModelParams, *, phi=None):
    """Utility advantage of region L at population share h.

    Antisymmetric about h = 1/2 and zero there.  Accepts scalars or
    arrays; each point is evaluated at its own market-clearing wage.
    ``phi``, if given, is a per-element freeness broadcast against h in
    place of ``params.phi``, as in :func:`geoeq.model.solve_wage`.

    With curvature ``theta != 1`` the value is

        eta/(1-theta) * (w**(1-theta) A**kappa - B**kappa),
        kappa = (1-theta)/(sigma-1),

    where A and B are the (normalized) price-index brackets of L and R.
    As theta -> 1 this degenerates to eta * (ln w + ln(A/B)/(sigma-1)),
    which is used inside LOG_UTILITY_BAND to keep the crossover smooth.
    """
    h_arr = np.asarray(h, dtype=float)
    val = _delta_u_at(h_arr, 1.0 - h_arr, solve_wage(h_arr, params, phi=phi), params, phi)
    return float(val) if np.ndim(h) == 0 else val


def _delta_u_at(h, g, w, params: ModelParams, phi=None):
    """delta_u from shares h and g = 1 - h and the wage w that supports them.

    No wage solve and no domain checks: callers that walk the wage supply
    both shares from the closed form of :func:`geoeq.model._share_terms`.
    ``phi``, if given, is a per-element freeness in place of ``params.phi``.
    """
    s, th, eta = params.sigma, _utility_theta(params), params.eta
    p = params.phi if phi is None else phi
    wm = w ** (1.0 - s)
    A = h * wm + g * p
    B = h * p * wm + g
    if th == 1.0:
        return eta * (np.log(w) + np.log(A / B) / (s - 1.0))
    kappa = (1.0 - th) / (s - 1.0)
    return eta / (1.0 - th) * (w ** (1.0 - th) * A ** kappa - B ** kappa)


def _delta_u_fd_slope(h: float, params: ModelParams) -> float:
    step = min(FD_STEP, 0.5 * h, 0.5 * (1.0 - h))
    return (delta_u(h + step, params) - delta_u(h - step, params)) / (2.0 * step)


@dataclass(frozen=True)
class StabilityCoefficients:
    """Sign-carrying pieces of the closed-form utility-differential slopes.

    ``zeta``/``varphi``/``psi`` assemble the slope in the population share
    (zeta < 0 on the open bracket: its numerator is the positive share
    denominator a + b of the wage map and its denominator is -(sigma - 1)
    times the positive G_poly, so the bracketed utility factor carries the
    sign of the slope); ``a1``/``a2``/``a3`` assemble the slope
    in the freeness of trade, with ``a3 < 0`` whenever w > 1, and ``Psi``
    is the freeness slope stripped of the positive factor eta*w: Psi < 0
    means freer trade erodes the attraction of the crowded region.
    """

    zeta: float
    varphi: float
    psi: float
    a1: float
    a2: float
    a3: float
    Psi: float


def _coefficients(w: float, params: ModelParams) -> StabilityCoefficients:
    s, p, th = params.sigma, params.phi, _utility_theta(params)
    X = w ** s
    D = X * X - (w + 1.0) * p * X + w
    denom = (s - 1.0) * (
        (s - 1.0) * p + (s - 1.0) * p * X * X + (p * p + 1.0 - 2.0 * s) * X
    )
    if denom == 0.0:
        raise SingularityError(f"slope denominator vanished at w={w}")
    zeta = D / denom
    varphi = w ** (-th - s) * (p * (s + (s - 1.0) * w) * X - 2.0 * s * w + w)
    psi = (s - 1.0) * p + (1.0 - 2.0 * s) * X + s * p * w
    a1 = w ** (1.0 - th) * (p * X - 1.0) * (
        -2.0 * s + 2.0 * (s - 1.0) * p * X + p * p + 1.0
    )
    a2 = w ** (-s) * (X - p) * (
        2.0 * (s - 1.0) * p + (p * p + 1.0 - 2.0 * s) * X
    )
    a3 = (s - 1.0) * (w ** (1.0 - s) + X - (w + 1.0) * p) * (
        (s - 1.0) * p + (s - 1.0) * p * X * X + (p * p + 1.0 - 2.0 * s) * X
    )
    if a3 == 0.0:
        raise SingularityError(f"freeness-slope denominator vanished at w={w}")
    e = (th + s - 2.0) / (s - 1.0)
    Psi = -(a1 * w ** (-s * e) + a2) / a3
    return StabilityCoefficients(zeta=zeta, varphi=varphi, psi=psi,
                                 a1=a1, a2=a2, a3=a3, Psi=Psi)


def stability_coefficients(h_star: float, params: ModelParams) -> StabilityCoefficients:
    """Closed-form coefficient bundle at an interior share h_star."""
    if not 0.0 < h_star < 1.0:
        raise ValueError(f"interior share required, got {h_star}")
    return _coefficients(solve_wage(h_star, params), params)


def ddelta_u_dh_closed(h_star: float, params: ModelParams) -> float:
    """Closed-form slope of the utility differential at an interior share.

    Assembled from the implicit wage derivative; finite for every interior
    h because the only candidate singularities sit at the bracket ends.
    """
    if not 0.0 < h_star < 1.0:
        raise ValueError(f"interior share required, got {h_star}")
    s, p, th, eta = params.sigma, params.phi, _utility_theta(params), params.eta
    w = solve_wage(h_star, params)
    X = w ** s
    D = X * X - (w + 1.0) * p * X + w
    c = _coefficients(w, params)
    kappa = (1.0 - th) / (s - 1.0)
    core = (1.0 - p * p) * w / D
    return eta * c.zeta * (
        (c.varphi * w ** (s * (1.0 - th) / (s - 1.0)) + c.psi / w) * core ** kappa
    )


def ddelta_u_dh(h_star: float, params: ModelParams) -> float:
    """Slope of the utility differential in h at an interior share.

    Returns the closed form after verifying it against a central finite
    difference through the wage solver to CLOSED_FORM_REL_TOL; raises
    ArithmeticError if the two disagree, since that would mean the
    implicit differentiation no longer matches the model.
    """
    if not 0.0 < h_star < 1.0:
        raise ValueError(f"interior share required, got {h_star}")
    closed = ddelta_u_dh_closed(h_star, params)
    fd = _delta_u_fd_slope(h_star, params)
    scale = max(abs(closed), abs(fd), 1.0)
    if abs(closed - fd) > CLOSED_FORM_REL_TOL * scale:
        raise ArithmeticError(
            f"closed-form slope {closed!r} and finite difference {fd!r} "
            f"disagree at h={h_star}; model and derivative are out of sync"
        )
    return closed


def dispersion_slope(params: ModelParams) -> float:
    """Symmetric-point slope expression in the display convention.

    Closed form at h = 1/2 (where w = 1):

        eta * 2(2 sigma - 1)(1 - phi) ((1+phi)/2)**kappa
            / ((sigma - 1)(2 sigma + phi - 1)).

    Note the convention: this display equals exactly half of the true
    derivative ``ddelta_u_dh(1/2)``.  Threshold formulas built from it
    (``mu_d`` and friends) halve the penalty side by the same factor, so
    the pair stays consistent; see the equilibria module.
    """
    return _dispersion_slope_at(params.phi, params)


def _dispersion_slope_at(phi, params: ModelParams):
    """:func:`dispersion_slope` at freeness phi (scalar or array), other primitives from params."""
    s, eta = params.sigma, params.eta
    kappa = (1.0 - _utility_theta(params)) / (s - 1.0)
    return eta * (
        2.0 * (2.0 * s - 1.0) * (1.0 - phi) * ((1.0 + phi) / 2.0) ** kappa
        / ((s - 1.0) * (2.0 * s + phi - 1.0))
    )


def ddelta_u_dphi(h_star: float, params: ModelParams) -> float:
    """Slope of the utility differential in the freeness of trade.

    Defined for asymmetric interior shares in (1/2, 1); by antisymmetry
    the mirrored share has the opposite sign.  Negative whenever the
    crowded region's advantage shrinks as trade gets freer.
    """
    if not 0.5 < h_star < 1.0:
        raise ValueError(f"share in (1/2, 1) required, got {h_star}")
    s, p, th, eta = params.sigma, params.phi, _utility_theta(params), params.eta
    w = solve_wage(h_star, params)
    X = w ** s
    D = X * X - (w + 1.0) * p * X + w
    c = _coefficients(w, params)
    e = (th + s - 2.0) / (s - 1.0)
    A_core = (1.0 - p * p) * w * X / D
    B_core = (1.0 - p * p) * w / D
    return eta * (-(w / c.a3) * (c.a1 * A_core ** (-e) + c.a2 * B_core ** (-e)))

