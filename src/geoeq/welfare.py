"""Indirect-utility differential between the two regions.

``delta_u(h)`` is the utility advantage of living in region L when a share
h of the population does, evaluated at the market-clearing wage.  Its sign
drives migration; its roots and slopes drive everything in
:mod:`geoeq.equilibria`.

Every closed-form slope comes from one kernel in the wage w, ``_slopes``,
scalar or array, obtained by implicit differentiation of the wage map; the
public slopes solve the wage of a share and call it, and the tests check
it against the high-precision reference model.  Its intermediate
coefficients are exposed as :class:`StabilityCoefficients` because their
signs, not just the final value, are individually meaningful.
``ddelta_u_dh_closed`` is a former name of ``ddelta_u_dh``, kept while
the benchmark's span list names it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _wage_pieces, solve_wage

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


def _utility_theta(params: ModelParams) -> float:
    """The curvature every utility formula here evaluates: theta, or exactly
    1 inside LOG_UTILITY_BAND, where delta_u takes the log-utility limit."""
    return 1.0 if abs(params.theta - 1.0) < LOG_UTILITY_BAND else params.theta


def delta_u(h, params: ModelParams, *, phi=None):
    """Utility advantage of region L at population share h.

    Antisymmetric about h = 1/2 and zero there.  Accepts scalars or
    arrays; each point is evaluated at its own market-clearing wage.
    ``phi``, if given, is a per-element freeness broadcast against h in
    place of ``params.phi``, as in :func:`geoeq.model.solve_wage`.  A
    scalar share and the same share inside an array can differ in the
    last bit: the wage is the same, but a scalar's powers go through
    Python's ``**`` and an array's through numpy's ``power``.

    With curvature ``theta != 1`` the value is

        1/(1-theta) * (w**(1-theta) A**kappa - B**kappa),
        kappa = (1-theta)/(sigma-1),

    where A and B are the price-index brackets of L and R.  As theta -> 1
    this degenerates to ln w + ln(A/B)/(sigma-1),
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
    s, th = params.sigma, _utility_theta(params)
    p = params.phi if phi is None else phi
    wm = w ** (1.0 - s)
    A = h * wm + g * p
    B = h * p * wm + g
    if th == 1.0:
        return np.log(w) + np.log(A / B) / (s - 1.0)
    kappa = (1.0 - th) / (s - 1.0)
    return 1.0 / (1.0 - th) * (w ** (1.0 - th) * A ** kappa - B ** kappa)


@dataclass(frozen=True)
class StabilityCoefficients:
    """Sign-carrying pieces of the closed-form utility-differential slopes.

    With X = w**sigma, D = X**2 - (w + 1) phi X + w > 0 (the share
    denominator a + b of the wage map) and G = G_poly(X) > 0 on the
    bracket: ``zeta``/``varphi``/``psi`` assemble the slope in the
    population share, with zeta = -D/((sigma - 1) G) < 0 on the open
    bracket, so the bracketed utility factor carries the sign of the
    slope; ``a1``/``a2``/``a3`` assemble the slope in the freeness of
    trade, with a3 = -(sigma - 1)(D/X) G < 0, and ``Psi`` is the freeness
    slope stripped of the positive factor w: Psi < 0 means freer trade
    erodes the attraction of the crowded region.
    """

    zeta: float
    varphi: float
    psi: float
    a1: float
    a2: float
    a3: float
    Psi: float


def _slopes(w, params: ModelParams):
    """The closed-form slopes at wages w, scalar or array: the
    :class:`StabilityCoefficients` (of numpy values), d(delta_u)/dh and
    d(delta_u)/d(phi) at fixed share, all from one
    :func:`geoeq.model._wage_pieces` call, which checks the wages.
    """
    s, p, th = params.sigma, params.phi, _utility_theta(params)
    w, X, D, G = _wage_pieces(w, params)
    zeta = -D / ((s - 1.0) * G)
    varphi = w ** (-th - s) * (p * (s + (s - 1.0) * w) * X - 2.0 * s * w + w)
    psi = (s - 1.0) * p + (1.0 - 2.0 * s) * X + s * p * w
    a1 = w ** (1.0 - th) * (p * X - 1.0) * (
        -2.0 * s + 2.0 * (s - 1.0) * p * X + p * p + 1.0
    )
    a2 = w ** (-s) * (X - p) * (
        2.0 * (s - 1.0) * p + (p * p + 1.0 - 2.0 * s) * X
    )
    a3 = -(s - 1.0) * (D / X) * G
    kappa = (1.0 - th) / (s - 1.0)
    e = (th + s - 2.0) / (s - 1.0)
    Psi = -(a1 * w ** (-s * e) + a2) / a3
    core = (1.0 - p * p) * w / D
    du_dh = zeta * ((varphi * w ** (s * (1.0 - th) / (s - 1.0)) + psi / w) * core ** kappa)
    du_dphi = -(w / a3) * (a1 * ((1.0 - p * p) * w * X / D) ** (-e) + a2 * core ** (-e))
    return (StabilityCoefficients(zeta=zeta, varphi=varphi, psi=psi, a1=a1, a2=a2, a3=a3,
                                  Psi=Psi), du_dh, du_dphi)


def stability_coefficients(h_star: float, params: ModelParams) -> StabilityCoefficients:
    """Closed-form coefficient bundle at an interior share h_star."""
    if not 0.0 < h_star < 1.0:
        raise ValueError(f"interior share required, got {h_star}")
    coefficients = _slopes(solve_wage(h_star, params), params)[0]
    return StabilityCoefficients(**{k: float(v) for k, v in vars(coefficients).items()})


def ddelta_u_dh(h_star: float, params: ModelParams) -> float:
    """Closed-form slope of the utility differential at an interior share.

    Assembled from the implicit wage derivative; finite for every interior
    h because the only candidate singularities sit at the bracket ends.
    """
    if not 0.0 < h_star < 1.0:
        raise ValueError(f"interior share required, got {h_star}")
    return float(_slopes(solve_wage(h_star, params), params)[1])


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
    in :func:`delta_u`; a float freeness is evaluated with Python's ``**``.
    """
    s = params.sigma
    p = params.phi if phi is None else phi
    kappa = (1.0 - _utility_theta(params)) / (s - 1.0)
    return (
        2.0 * (2.0 * s - 1.0) * (1.0 - p) * ((1.0 + p) / 2.0) ** kappa
        / ((s - 1.0) * (2.0 * s + p - 1.0))
    )


def ddelta_u_dphi(h_star: float, params: ModelParams) -> float:
    """Slope of the utility differential in the freeness of trade.

    Defined for asymmetric interior shares in (1/2, 1); by antisymmetry
    the mirrored share has the opposite sign.  Negative whenever the
    crowded region's advantage shrinks as trade gets freer.
    """
    if not 0.5 < h_star < 1.0:
        raise ValueError(f"share in (1/2, 1) required, got {h_star}")
    return float(_slopes(solve_wage(h_star, params), params)[2])
