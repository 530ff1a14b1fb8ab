"""Primitives and short-run equilibrium of the two-region economy.

Region R's wage is the numeraire throughout, so ``w`` is the wage of region
L relative to R and ``h`` is the share of consumers residing in L.  Trade
frictions enter through the freeness parameter ``phi = tau**(1 - sigma)``,
which maps iceberg costs in (1, inf) onto (0, 1).

At a fixed spatial distribution h, market clearing pins the relative wage
down implicitly.  The map from wages to the population share supporting
them is a cheap closed form and is strictly increasing on the admissible
wage bracket [phi**(1/sigma), phi**(-1/sigma)].  Its inverse is explicit
up to one scalar equation in the log-odds: with X = w**sigma and
u = ln((X - phi)/(1 - phi X)),

    X = (phi + e**u)/(1 + phi e**u),   ln(h/(1 - h)) = u + c ln X(u),

c = (sigma - 1)/sigma.  The right-hand side has slope in [1, 2) in u, so
Newton's method started at u = ln(h/(1 - h)) contracts on every share
without a bracket; :func:`solve_wage` runs it for scalars and arrays
alike.  Code that asks "what happens at share h" composes with
:func:`solve_wage`; code free to choose where it looks, such as the
rest-point scan in :mod:`geoeq.equilibria`, walks the wage instead and
reads both shares off the closed form without solving anything.  The
bracketed root finds of :mod:`geoeq.equilibria` use the module's own Brent
solver (``brentq``): the iteration of ``scipy.optimize.brentq``, root for
root, without scipy's import cost, so the package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "ShortRunState",
    "SingularityError",
    "SolverError",
    "freeness_from_tau",
    "wage_share",
    "solve_wage",
    "price_indices",
    "consumption",
    "firm_counts",
    "dw_dh",
    "dw_dphi",
    "G_poly",
    "short_run_state",
]

# Residual tolerance on h for the implicit-wage solve.  Where one spacing of
# doubles in w moves h by more than this (freeness near 1), the solve is
# held to _WAGE_ULPS spacings of w instead: a backward error in the wage.
WAGE_RESIDUAL_TOL = 1e-12

# Spacings of w a solved wage may be off by in the backward-error check.
_WAGE_ULPS = 4.0

# Cap on Newton steps per share; the iteration is a contraction, and from
# its start it takes two to four.
_WAGE_STEPS = 32

# Relative slack admitted at the bracket endpoints before a wage is rejected
# as out of domain; absorbs representation error of phi**(1/sigma).
_BRACKET_SLACK = 1e-12

# Relative part of brentq's stopping tolerance, scipy's floor for it.
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)


class SingularityError(ArithmeticError):
    """A derivative formula hit a vanishing denominator."""


class SolverError(RuntimeError):
    """A root-finder failed to meet its residual tolerance."""


def brentq(f, a, b, *, xtol, maxiter):
    """Root of f between a and b by Brent's method (Brent 1973, ch. 4).

    Step for step the iteration of ``scipy.optimize.brentq``: the same
    bracket bookkeeping, the same test for accepting a secant or inverse
    quadratic step over bisection, and the same stopping rule
    ``|sbis| < (xtol + 4*eps*|x|)/2``, so both return the same float.  An
    exact zero at either end is returned as that end.

    Raises:
        ValueError: if f(a) and f(b) have the same sign, or f returns NaN.
        SolverError: if maxiter iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre != fpre or fcur != fcur:
        raise ValueError(f"f is NaN at a bracket end [{xpre!r}, {xcur!r}]")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is tried and accepted
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:  # scipy's C loop gets an inf/NaN step here: it bisects
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if fcur != fcur:
            raise ValueError(f"f is NaN at x={xcur!r}")
    raise SolverError(f"brentq did not converge in {maxiter} iterations, last x={xcur!r}")


def freeness_from_tau(tau: float, sigma: float) -> float:
    """Convert an iceberg trade cost into the freeness of trade.

    Freeness is ``tau**(1 - sigma)``: it rises toward 1 as shipping gets
    cheap and falls toward 0 as it gets prohibitive.

    Args:
        tau: iceberg cost, units shipped per unit arriving; must exceed 1.
        sigma: elasticity of substitution between varieties; must exceed 1.
    """
    if not (tau > 1.0 and math.isfinite(tau)):
        raise ValueError(f"iceberg cost must be a finite number > 1, got {tau}")
    _elasticity(sigma)
    return tau ** (1.0 - sigma)


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the two-region economy.

    Exactly one of ``phi`` (freeness of trade) and ``tau`` (iceberg cost)
    must be supplied; the other is derived from ``phi = tau**(1 - sigma)``.
    Freeness is canonical internally; tau is an input convenience.

    Input requirements are normalised: mill prices equal wages and each
    region hosts as many firms as it has residents.  Other input
    requirements or a utility scale would only multiply the utility
    differential by a positive constant, which a rescaled penalty weight
    reproduces, so the economy is (sigma, phi | tau, theta) and the
    penalty weight mu carries every utility scale.

    ``theta`` is the curvature of the isoelastic sub-utility; it amplifies
    consumption gaps into utility gaps (``theta = 0`` linear, ``theta = 1``
    logarithmic).
    """

    sigma: float
    phi: float | None = None
    tau: float | None = None
    theta: float = 1.0

    def __post_init__(self) -> None:
        _elasticity(float(self.sigma))  # one number, as phi below
        if (self.phi is None) == (self.tau is None):
            raise ValueError("supply exactly one of phi (freeness) or tau (iceberg cost)")
        if self.phi is None:
            object.__setattr__(self, "phi", freeness_from_tau(self.tau, self.sigma))
        _in_open_unit_interval(float(self.phi))  # tau**(1 - sigma) can round to 0 or 1
        if self.tau is None:
            # Near sigma = 1 the implied iceberg cost exceeds every double: a
            # Python float raises where a numpy float returns inf.
            with np.errstate(over="ignore"):
                try:
                    tau = self.phi ** (1.0 / (1.0 - self.sigma))
                except OverflowError:
                    tau = math.inf
            object.__setattr__(self, "tau", tau)
        if not (self.theta >= 0.0 and math.isfinite(self.theta)):
            raise ValueError(f"theta must be a finite number >= 0, got {self.theta}")

    @property
    def wage_bracket(self) -> tuple[float, float]:
        """Admissible relative wages [phi**(1/sigma), phi**(-1/sigma)], by ``np.power``."""
        lo = float(np.power(self.phi, 1.0 / self.sigma))
        return lo, 1.0 / lo

    def with_phi(self, phi: float) -> "ModelParams":
        """Copy of these parameters at a different freeness of trade."""
        return ModelParams(sigma=self.sigma, phi=phi, theta=self.theta)

    def with_theta(self, theta: float) -> "ModelParams":
        """Copy of these parameters at a different utility curvature."""
        return ModelParams(sigma=self.sigma, phi=self.phi, theta=theta)


@dataclass(frozen=True)
class ShortRunState:
    """Market-clearing outcome at a fixed spatial distribution h, in the
    column order of the ``shortrun`` table."""

    h: float
    w: float
    P_L: float
    P_R: float
    C_L: float
    C_R: float
    n_L: float
    n_R: float


def _share_terms(w, params: ModelParams, phi=None):
    """The two non-negative weights whose ratio gives the share at wage w.

    The textbook ratio subtracts ``phi`` from ``w**sigma`` top and bottom,
    which cancels catastrophically near the lower bracket end.  Multiplying
    through by ``w**sigma`` gives two non-negative terms instead:

        h = a / (a + b),  1 - h = b / (a + b),
        a = X(X - phi),  b = w(1 - phi X),  X = w**sigma.

    ``a`` vanishes cleanly at the lower end (h -> 0) and ``b`` at the upper
    end (h -> 1), so both shares come out without cancellation.  Roundoff
    can push either term a hair below zero at its bracket end; it is
    clipped there, as (t + |t|)/2, which is exact and keeps a scalar w's
    terms Python floats.  ``phi``, if given, is a per-element freeness
    broadcast against w in place of ``params.phi``.
    """
    phi = params.phi if phi is None else phi
    X = w ** params.sigma
    a = X * (X - phi)
    b = w * (1.0 - phi * X)
    return 0.5 * (a + abs(a)), 0.5 * (b + abs(b))


def _checked(values, inside, rule: str):
    """values as a float array if ``inside`` holds for each element, else a
    ValueError that states the rule and names the first element outside it."""
    x = np.asarray(values, dtype=float)
    ok = inside(x[()])  # on a numpy scalar for scalar input: cheap comparisons
    if not (ok if x.ndim == 0 else np.count_nonzero(ok) == x.size):  # a scalar's bool is cheaper
        raise ValueError(f"{rule}, got {float(np.ravel(x)[~np.ravel(ok)][0])!r}")
    return x


def _elasticity(sigma):
    """sigma as a float array, checked to be an elasticity of substitution
    (NaN is not)."""
    return _checked(sigma, lambda x: (x > 1.0) & (x < math.inf),
                    "sigma must be a finite number > 1")


def _in_unit_interval(h):
    """h as a float array, checked to be population shares (NaN is not)."""
    return _checked(h, lambda x: (x >= 0.0) & (x <= 1.0), "population share must lie in [0, 1]")


def _interior_share(h):
    """h as a float array, checked to be shares strictly between the
    boundaries (NaN is not)."""
    return _checked(h, lambda x: (x > 0.0) & (x < 1.0),
                    "population share must lie strictly inside (0, 1)")


def _in_open_unit_interval(phi):
    """phi as a float array, checked to be freeness of trade (NaN is not)."""
    return _checked(phi, lambda x: (x > 0.0) & (x < 1.0),
                    "freeness of trade phi must lie strictly inside (0, 1)")


def _in_bracket(w, params: ModelParams):
    """w as a float array, checked against the admissible bracket: a
    ValueError names the first wage outside it (NaN is outside)."""
    x = np.asarray(w, dtype=float)
    lo, hi = params.wage_bracket
    inside = (x >= lo * (1.0 - _BRACKET_SLACK)) & (x <= hi * (1.0 + _BRACKET_SLACK))
    if not inside.all():
        raise ValueError(f"wage {x[~inside][0]} outside the admissible bracket "
                         f"[{lo:.6g}, {hi:.6g}] for sigma={params.sigma}, phi={params.phi}")
    return x


def wage_share(w, params: ModelParams):
    """Invert the economy: which population share h supports wage w?

    Strictly increasing on the wage bracket, 0 at its lower end, 1/2 at
    w = 1, and 1 at its upper end.  Accepts scalars or arrays.

    Raises:
        ValueError: if any wage lies outside the admissible bracket.
    """
    a, b = _share_terms(_in_bracket(w, params), params)
    h = np.clip(a / (a + b), 0.0, 1.0)
    return float(h) if np.ndim(w) == 0 else h


def _log_power(u, phi):
    """ln X and its slope d(ln X)/du at log-odds u, X = (phi + e**u)/(1 + phi e**u).

    Written in t = e**-|u| and the odd symmetry ln X(-u) = -ln X(u), so
    nothing overflows, and through log1p so ln X keeps its relative
    accuracy as u -> 0.
    """
    a = -np.abs(u)
    t = np.exp(a)
    pt = phi + t
    ln_x = np.copysign(np.log1p((phi - 1.0) * np.expm1(a) / pt), u)
    return ln_x, (1.0 - phi * phi) * t / ((1.0 + phi * t) * pt)


def _freeness_terms(phi, shape, params: ModelParams):
    """phi, the wage-bracket ends and ln(1/phi): at params' freeness, or per element.

    A per-element freeness is checked and broadcast to ``shape``.  Either
    way the lower end is numpy's ``power``, the expression of
    :attr:`ModelParams.wage_bracket`, which gives a scalar the bits of its
    array loop, so a share of a mixed array meets the same bracket as in
    its own economy's call.
    """
    phi = params.phi if phi is None else np.broadcast_to(_in_open_unit_interval(phi), shape)
    lo = np.power(phi, 1.0 / params.sigma)
    return phi, lo, 1.0 / lo, -np.log(phi)


def solve_wage(h, params: ModelParams, *, phi=None):
    """Relative wage clearing markets at population share h.

    Solves ln(h/(1 - h)) = u + c ln X(u) for the log-odds u of X = w**sigma
    (see the module docstring) by Newton's method.  The equation's slope
    lies in [1, 1 + c(1 - phi)/(1 + phi)], inside [1, 2), so from any start
    every Newton step shrinks the error and no bracket or fallback is
    needed; from a start that replaces ln X by its tangent at u = 0, cut
    off at +-ln(1/phi), two to four steps reach double precision.  Each share
    stops on its own, so it gets the same wage alone as inside any array.
    The wage is X**(1/sigma), clipped to the wage bracket.  It is exact at
    h = 1/2, where u = 0, and the bracket ends are returned at h = 0 and 1.
    Accepts scalars or arrays.  ``phi``, if given, is a per-element
    freeness broadcast against h in place of ``params.phi``, so one call
    serves shares of economies that differ only in it; each share gets the
    same wage as in its own economy's call.

    Raises:
        ValueError: if any h lies outside [0, 1] or per-element phi outside (0, 1).
        SolverError: if a wage misses its backward-error check: |h(w) - h|
            may not exceed WAGE_RESIDUAL_TOL or, where one spacing of w
            moves h by more, _WAGE_ULPS such spacings.
    """
    x = _in_unit_interval(h)[()]  # a numpy scalar for scalar input: cheap arithmetic
    s = params.sigma
    c = (s - 1.0) / s
    phi, lo, hi, lim = _freeness_terms(phi, np.shape(x), params)
    ends = (x == 0.0) | (x == 1.0)
    has_ends = np.count_nonzero(ends)
    x_in = np.where(ends, 0.5, x)[()] if has_ends else x
    target = np.log(x_in) - np.log1p(-x_in)
    # Start from the root with ln X(u) replaced by its tangent at 0,
    # g0 u, cut off at its limits +-ln(1/phi).
    g0 = (1.0 - phi) / (1.0 + phi)
    u = target - c * np.minimum(np.maximum(target * (g0 / (1.0 + c * g0)), -lim), lim)
    # The equation's slope is at least 1 and its curvature at most 1/4, so a
    # Newton step s leaves an error of at most s**2/2: once s**2 is within a
    # spacing of the target (|u| <= |target| at the root), the step just
    # taken is the last one needed.
    tol = np.sqrt(np.spacing(np.abs(target)))
    active = target != 0.0
    for _ in range(_WAGE_STEPS):
        if not np.count_nonzero(active):
            break
        ln_x, slope = _log_power(u, phi)
        step = (u - target + c * ln_x) / (1.0 + c * slope)
        u = u - step * active  # converged shares stay put: their step is finite
        active = active & (np.abs(step) > tol)
    # np.power, not **: on numpy scalars ** takes libm's pow, which can round
    # differently from the array loop
    t = np.exp(-np.abs(u))
    w = np.minimum(np.maximum(np.power((1.0 + phi * t) / (phi + t), np.copysign(1.0 / s, u)),
                              lo), hi)
    if has_ends:
        w = np.where(ends, np.where(x == 0.0, lo, hi), w)[()]
    # backward error: |h(w) - h| against WAGE_RESIDUAL_TOL or, where that is
    # missed, _WAGE_ULPS spacings of w times
    # dh/dw = sigma ((1 - phi**2) X**2 + c a b/w)/(a + b)**2
    a, b = _share_terms(w, params, phi)
    residual = np.abs(a / (a + b) - x)
    allowed = WAGE_RESIDUAL_TOL
    missed = ~(residual <= allowed)  # a NaN residual misses too
    if np.count_nonzero(missed):
        x_ab, a_ab, b_ab = w ** s / (a + b), a / (a + b), b / (a + b)
        dh_dw = s * ((1.0 - phi * phi) * x_ab * x_ab + c * a_ab * b_ab / w)
        allowed = np.maximum(allowed, _WAGE_ULPS * np.spacing(w) * dh_dw)
        missed = ~(residual <= allowed)
    if np.count_nonzero(missed):
        i = int(np.argmax(missed))
        raise SolverError(
            f"wage solve residual {np.ravel(residual)[i]:.3e} exceeds "
            f"{np.ravel(allowed)[i]:.1e} at h={np.ravel(x)[i]!r}"
        )
    return float(w) if np.ndim(h) == 0 else w


def price_indices(h, w, params: ModelParams):
    """Regional CES price indices at distribution h and relative wage w.

    Mill prices equal wages under the normalised input requirements, so

        P_L = [h w**(1-sigma) + (1-h) phi]**(1/(1-sigma)),
        P_R = [h phi w**(1-sigma) + (1-h)]**(1/(1-sigma)).

    Accepts scalars or matching arrays.
    """
    scalar = np.ndim(h) == 0 and np.ndim(w) == 0
    h_arr = _in_unit_interval(h)
    w_arr = _checked(w, lambda x: x > 0.0, "wage must be positive")
    s = params.sigma
    ex = 1.0 / (1.0 - s)
    local = h_arr * w_arr ** (1.0 - s)
    P_L = (local + (1.0 - h_arr) * params.phi) ** ex
    P_R = (params.phi * local + (1.0 - h_arr)) ** ex
    if scalar:
        return float(P_L), float(P_R)
    return P_L, P_R


def consumption(h, params: ModelParams):
    """Consumption aggregates (C_L, C_R) = (w/P_L, 1/P_R) at share h."""
    state = short_run_state(h, params)
    return state.C_L, state.C_R


def firm_counts(h, params: ModelParams):
    """Firm masses (n_L, n_R) = (h, 1 - h): under the normalised input
    requirements each region hosts as many firms as it has residents."""
    h_arr = _in_unit_interval(h)
    if np.ndim(h) == 0:
        return float(h_arr), float(1.0 - h_arr)
    return h_arr.copy(), 1.0 - h_arr


def G_poly(x, params: ModelParams):
    """Concave quadratic governing the implicit wage derivatives.

    Evaluated at ``x = w**sigma``; strictly positive on [phi, 1/phi], which
    is what keeps the wage strictly increasing in h on the bracket.  The
    quadratic (2 sigma - phi**2 - 1) x - (sigma - 1) phi (1 + x**2) is
    written as (sigma - 1)[(1 - phi)(1 + x**2) - (x - 1)**2] + (1 - phi**2) x,
    with 1 - phi**2 as (1 - phi)(1 + phi): every term keeps its relative
    accuracy as phi -> 1, where the first form cancels.
    """
    s, p = params.sigma, params.phi
    x = np.asarray(x, dtype=float)
    val = ((s - 1.0) * ((1.0 - p) * (1.0 + x * x) - (x - 1.0) * (x - 1.0))
           + (1.0 - p) * (1.0 + p) * x)
    return float(val) if np.ndim(val) == 0 else val


def _wage_pieces(w, params: ModelParams):
    """w, X = w**sigma, D = X**2 - (w + 1) phi X + w (the share denominator
    a + b of :func:`_share_terms`, positive) and G = G_poly(X) at wages w in
    the bracket, scalar or array: the inputs of every closed-form slope.  A
    scalar w comes back as a numpy scalar, whose ``**`` is libm's ``pow``
    as a Python float's is.  G is positive on the bracket; a
    SingularityError names the first wage where it is not.
    """
    x = _in_bracket(w, params)
    w = x[()]
    X = w ** params.sigma
    G = G_poly(X, params)
    positive = np.greater(G, 0.0)
    if not positive.all():
        raise SingularityError(f"G_poly is not positive at w={x[~positive][0]}")
    return w, X, X * X - (w + 1.0) * params.phi * X + w, G


def dw_dh(w: float, params: ModelParams) -> float:
    """Slope of the implicit wage in the population share, at wage w.

    dw/dh = D**2 / (X G) with X = w**sigma and D = X**2 - (w + 1) phi X + w.
    Strictly positive on the bracket: attracting consumers to a region
    raises its relative wage.
    """
    _, X, D, G = _wage_pieces(w, params)
    return float(D * D / (X * G))


def dw_dphi(w: float, params: ModelParams) -> float:
    """Response of the market-clearing wage to the freeness of trade.

    Negative for w > 1, positive for w < 1, zero at w = 1: freer trade
    compresses wage differentials.
    """
    w, X, _, G = _wage_pieces(w, params)
    return float(-w * (X * X - 1.0) / G)


def short_run_state(h, params: ModelParams) -> ShortRunState:
    """Full market-clearing snapshot at population share h, scalar or array
    (passed through as given)."""
    w = solve_wage(h, params)
    P_L, P_R = price_indices(h, w, params)
    n_L, n_R = firm_counts(h, params)
    return ShortRunState(h=h, w=w, P_L=P_L, P_R=P_R,
                         C_L=w / P_L, C_R=1.0 / P_R, n_L=n_L, n_R=n_R)
