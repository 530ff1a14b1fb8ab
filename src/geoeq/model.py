"""Primitives and short-run equilibrium of the two-region economy.

Region R's wage is the numeraire throughout, so ``w`` is the wage of region
L relative to R and ``h`` is the share of consumers residing in L.  Trade
frictions enter through the freeness parameter ``phi = tau**(1 - sigma)``,
which maps iceberg costs in (1, inf) onto (0, 1).

At a fixed spatial distribution h, market clearing pins the relative wage
down implicitly.  The map from wages to the population share supporting
them is a cheap closed form and is strictly increasing on the admissible
wage bracket [phi**(1/sigma), phi**(-1/sigma)], so the inverse problem is a
bracketed scalar root find.  Code that asks "what happens at share h"
composes with :func:`solve_wage`; code free to choose where it looks, such
as the rest-point scan in :mod:`geoeq.equilibria`, walks the wage instead
and reads both shares off the closed form without solving anything.  Code
that already holds a market-clearing pair (h0, w0) and needs the wages at
shares close by continues from it with a few Newton steps
(``_solve_wage_near``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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
    "demand",
    "dw_dh",
    "dw_dphi",
    "G_poly",
    "short_run_state",
]

# Residual tolerance on h for the implicit-wage solve, and the iteration cap.
WAGE_RESIDUAL_TOL = 1e-12
WAGE_MAX_ITER = 200

# Bisection sweeps for vectorized (grid) wage solves.  The bracket width is
# at most a few units, so 90 halvings land well below double resolution.
_GRID_BISECTIONS = 90

# Newton continuation of the wage (_solve_wage_near): a step within this many
# spacings of its wage counts as converged, and at most this many steps run.
_NEWTON_ULPS = 4.0
_NEWTON_MAX_ITER = 8

# Relative slack admitted at the bracket endpoints before a wage is rejected
# as out of domain; absorbs representation error of phi**(1/sigma).
_BRACKET_SLACK = 1e-12


class SingularityError(ArithmeticError):
    """A derivative formula hit a vanishing denominator."""


class SolverError(RuntimeError):
    """A root-finder failed to meet its residual tolerance."""


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
    if not (sigma > 1.0 and math.isfinite(sigma)):
        raise ValueError(f"elasticity must be a finite number > 1, got {sigma}")
    return tau ** (1.0 - sigma)


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the two-region economy.

    Exactly one of ``phi`` (freeness of trade) and ``tau`` (iceberg cost)
    must be supplied; the other is derived from ``phi = tau**(1 - sigma)``.
    Freeness is canonical internally; tau is an input convenience.

    ``alpha`` (fixed input requirement) and ``beta`` (variable input
    requirement) default to the normalization ``alpha * sigma = 1`` and
    ``(sigma - 1) / (sigma * beta) = 1``, under which firm counts equal
    population shares, mill prices equal wages, and the utility scale
    ``eta`` is 1.  ``eta`` stays a visible field so the utility prefactor
    is explicit in the welfare formulas.

    ``theta`` is the curvature of the isoelastic sub-utility; it amplifies
    consumption gaps into utility gaps (``theta = 0`` linear, ``theta = 1``
    logarithmic).
    """

    sigma: float
    phi: float | None = None
    tau: float | None = None
    theta: float = 1.0
    alpha: float | None = None
    beta: float | None = None
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not (self.sigma > 1.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be a finite number > 1, got {self.sigma}")
        if (self.phi is None) == (self.tau is None):
            raise ValueError("supply exactly one of phi (freeness) or tau (iceberg cost)")
        if self.phi is None:
            phi = freeness_from_tau(self.tau, self.sigma)
            if not 0.0 < phi < 1.0:
                raise ValueError(
                    f"iceberg cost tau={self.tau} at sigma={self.sigma} gives freeness "
                    f"{phi!r}, which is not inside (0, 1) in double precision")
            object.__setattr__(self, "phi", phi)
        else:
            if not (0.0 < self.phi < 1.0):
                raise ValueError(f"phi must lie strictly inside (0, 1), got {self.phi}")
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
        if self.alpha is None:
            object.__setattr__(self, "alpha", 1.0 / self.sigma)
        elif not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta is None:
            object.__setattr__(self, "beta", (self.sigma - 1.0) / self.sigma)
        elif not (self.beta > 0.0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not (self.eta > 0.0):
            raise ValueError(f"eta must be positive, got {self.eta}")

    @property
    def normalized(self) -> bool:
        """Whether the default input-requirement normalization holds."""
        return (
            abs(self.alpha * self.sigma - 1.0) < 1e-12
            and abs((self.sigma - 1.0) / (self.sigma * self.beta) - 1.0) < 1e-12
        )

    @property
    def wage_bracket(self) -> tuple[float, float]:
        """Admissible relative wages: [phi**(1/sigma), phi**(-1/sigma)]."""
        lo = self.phi ** (1.0 / self.sigma)
        return lo, 1.0 / lo

    def with_phi(self, phi: float) -> "ModelParams":
        """Copy of these parameters at a different freeness of trade."""
        return ModelParams(sigma=self.sigma, phi=phi, theta=self.theta,
                           alpha=self.alpha, beta=self.beta, eta=self.eta)

    def with_theta(self, theta: float) -> "ModelParams":
        """Copy of these parameters at a different utility curvature."""
        return ModelParams(sigma=self.sigma, phi=self.phi, theta=theta,
                           alpha=self.alpha, beta=self.beta, eta=self.eta)


@dataclass(frozen=True)
class ShortRunState:
    """Market-clearing outcome at a fixed spatial distribution h."""

    h: float
    w: float
    P_L: float
    P_R: float
    C_L: float
    C_R: float
    n_L: float
    n_R: float


def _share_terms(w, params: ModelParams):
    """The two non-negative weights whose ratio gives the share at wage w.

    The textbook ratio subtracts ``phi`` from ``w**sigma`` top and bottom,
    which cancels catastrophically near the lower bracket end.  Multiplying
    through by ``w**sigma`` gives two non-negative terms instead:

        h = a / (a + b),  1 - h = b / (a + b),
        a = X(X - phi),  b = w(1 - phi X),  X = w**sigma.

    ``a`` vanishes cleanly at the lower end (h -> 0) and ``b`` at the upper
    end (h -> 1), so both shares come out without cancellation.  Roundoff
    can push either term a hair below zero at its bracket end; it is
    clipped there.
    """
    X = w ** params.sigma
    a = X * (X - params.phi)
    b = w * (1.0 - params.phi * X)
    return np.maximum(a, 0.0), np.maximum(b, 0.0)


def _share_raw(w, params: ModelParams):
    """Population share supported by wage w, without domain checks."""
    a, b = _share_terms(w, params)
    return a / (a + b)


def wage_share(w, params: ModelParams):
    """Invert the economy: which population share h supports wage w?

    Strictly increasing on the wage bracket, 0 at its lower end, 1/2 at
    w = 1, and 1 at its upper end.  Accepts scalars or arrays.

    Raises:
        ValueError: if any wage lies outside the admissible bracket.
    """
    lo, hi = params.wage_bracket
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr < lo * (1.0 - _BRACKET_SLACK)) or np.any(w_arr > hi * (1.0 + _BRACKET_SLACK)):
        raise ValueError(
            f"wage outside the admissible bracket [{lo:.6g}, {hi:.6g}] "
            f"for sigma={params.sigma}, phi={params.phi}"
        )
    h = np.clip(_share_raw(w_arr, params), 0.0, 1.0)
    return float(h) if np.ndim(w) == 0 else h


def solve_wage(h, params: ModelParams):
    """Relative wage clearing markets at population share h.

    Scalar inputs use bracketed root finding with interpolation
    acceleration on the wage bracket; array inputs use vectorized
    bisection.  Endpoint and midpoint wages are returned in closed form
    (``phi**(1/sigma)``, 1, ``phi**(-1/sigma)``).

    Raises:
        ValueError: if any h lies outside [0, 1].
        SolverError: if the residual tolerance cannot be met.
    """
    if np.ndim(h) > 0:
        return _solve_wage_grid(np.asarray(h, dtype=float), params)

    h = float(h)
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"population share must lie in [0, 1], got {h}")
    lo, hi = params.wage_bracket
    if h == 0.0:
        return lo
    if h == 1.0:
        return hi
    if h == 0.5:
        return 1.0
    # Roundoff at the bracket ends leaves a share of order 1e-16 (resp.
    # 1 - 1e-16), so a tinier h has no representable preimage; the nearest
    # endpoint is the correctly rounded answer and brentq would reject the
    # equal-signed bracket.
    if _share_raw(lo, params) - h >= 0.0:
        return lo
    if _share_raw(hi, params) - h <= 0.0:
        return hi
    w = brentq(
        lambda x: _share_raw(x, params) - h,
        lo,
        hi,
        xtol=1e-15,
        rtol=4.0 * np.finfo(float).eps,
        maxiter=WAGE_MAX_ITER,
    )
    residual = abs(_share_raw(w, params) - h)
    if residual > WAGE_RESIDUAL_TOL:
        raise SolverError(
            f"wage solve residual {residual:.3e} exceeds {WAGE_RESIDUAL_TOL:.0e} at h={h}"
        )
    return float(w)


def _solve_wage_grid(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """Vectorized bisection for a whole grid of population shares."""
    if np.any((h < 0.0) | (h > 1.0)):
        raise ValueError("population shares must lie in [0, 1]")
    lo_w, hi_w = params.wage_bracket
    lo = np.full(h.shape, lo_w)
    hi = np.full(h.shape, hi_w)
    for _ in range(_GRID_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = _share_raw(mid, params) < h
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    w = 0.5 * (lo + hi)
    w = np.where(h == 0.0, lo_w, w)
    w = np.where(h == 0.5, 1.0, w)
    w = np.where(h == 1.0, hi_w, w)
    return w


def price_indices(h, w, params: ModelParams):
    """Regional CES price indices at distribution h and relative wage w.

    Implemented with the mill-price markup ``beta*sigma/(sigma-1)`` and the
    firm-mass scale ``1/(sigma*alpha)`` written out, so non-normalized
    input requirements are honored; under the default normalization both
    factors are 1 and the expression collapses to

        P_L = [h w**(1-sigma) + (1-h) phi]**(1/(1-sigma)),
        P_R = [h phi w**(1-sigma) + (1-h)]**(1/(1-sigma)).

    Accepts scalars or matching arrays.
    """
    scalar = np.ndim(h) == 0 and np.ndim(w) == 0
    h_arr = np.asarray(h, dtype=float)
    w_arr = np.asarray(w, dtype=float)
    if np.any((h_arr < 0.0) | (h_arr > 1.0)):
        raise ValueError("population shares must lie in [0, 1]")
    if np.any(w_arr <= 0.0):
        raise ValueError("wages must be positive")
    s = params.sigma
    mill = params.beta * s / (s - 1.0)
    scale = 1.0 / (s * params.alpha)
    ex = 1.0 / (1.0 - s)
    local = h_arr * w_arr ** (1.0 - s)
    P_L = mill * (scale * (local + (1.0 - h_arr) * params.phi)) ** ex
    P_R = mill * (scale * (params.phi * local + (1.0 - h_arr))) ** ex
    if scalar:
        return float(P_L), float(P_R)
    return P_L, P_R


def consumption(h, params: ModelParams):
    """Consumption aggregates (C_L, C_R) = (w/P_L, 1/P_R) at share h."""
    w = solve_wage(h, params)
    P_L, P_R = price_indices(h, w, params)
    return w / P_L, 1.0 / P_R


def firm_counts(h, params: ModelParams):
    """Firm masses (n_L, n_R); they sum to 1/(sigma*alpha)."""
    h_arr = np.asarray(h, dtype=float)
    if np.any((h_arr < 0.0) | (h_arr > 1.0)):
        raise ValueError("population shares must lie in [0, 1]")
    scale = 1.0 / (params.sigma * params.alpha)
    n_L = h_arr * scale
    if np.ndim(h) == 0:
        return float(n_L), float((1.0 - h_arr) * scale)
    return n_L, (1.0 - h_arr) * scale


def demand(w_i: float, p_ij: float, P_i: float, sigma: float) -> float:
    """CES demand of a consumer with income w_i for one variety.

    Homogeneous of degree zero in (price, price index, income) jointly.
    """
    if not (w_i > 0.0 and p_ij > 0.0 and P_i > 0.0 and sigma > 1.0):
        raise ValueError("demand requires positive income, price, index and sigma > 1")
    return p_ij ** (-sigma) * P_i ** (sigma - 1.0) * w_i


def G_poly(x, params: ModelParams):
    """Concave quadratic governing the implicit wage derivatives.

    Evaluated at ``x = w**sigma``; strictly positive on [phi, 1/phi], which
    is what keeps the wage strictly increasing in h on the bracket.
    """
    s, p = params.sigma, params.phi
    x = np.asarray(x, dtype=float)
    val = (2.0 * s - p * p - 1.0) * x - (s - 1.0) * p * (1.0 + x * x)
    return float(val) if np.ndim(val) == 0 else val


def _check_bracket(w: float, params: ModelParams) -> None:
    lo, hi = params.wage_bracket
    if not (lo * (1.0 - _BRACKET_SLACK) <= w <= hi * (1.0 + _BRACKET_SLACK)):
        raise ValueError(
            f"wage {w} outside the admissible bracket [{lo:.6g}, {hi:.6g}]"
        )


def _dw_dh_raw(w, params: ModelParams):
    """dw/dh = D**2 / (X G) at wages w, without domain or singularity checks."""
    X = w ** params.sigma
    D = X * X - (w + 1.0) * params.phi * X + w
    return D * D / (X * G_poly(X, params))


def dw_dh(w: float, params: ModelParams) -> float:
    """Slope of the implicit wage in the population share, at wage w.

    Strictly positive on the bracket: attracting consumers to a region
    raises its relative wage.
    """
    _check_bracket(w, params)
    if not G_poly(w ** params.sigma, params) > 0.0:
        raise SingularityError(f"wage-derivative denominator vanished at w={w}")
    return _dw_dh_raw(w, params)


def _solve_wage_near(h, h0, w0, params: ModelParams):
    """Wages at shares h, continued from nearby market-clearing pairs (h0, w0).

    A continuation step, not a general solver: the tangent predictor
    w0 + (h - h0) dw/dh(w0) is corrected by Newton steps on
    ``_share_raw(w) - h``, clipped to the wage bracket, until every step is
    within _NEWTON_ULPS spacings of its wage or _NEWTON_MAX_ITER steps are
    taken.  Accepts scalars or matching arrays.

    Raises:
        SolverError: if a share misses :func:`solve_wage`'s residual
            tolerance WAGE_RESIDUAL_TOL.
    """
    lo, hi = params.wage_bracket
    h = np.asarray(h, dtype=float)
    w = np.minimum(np.maximum(w0 + (h - h0) * _dw_dh_raw(w0, params), lo), hi)
    for _ in range(_NEWTON_MAX_ITER):
        w_next = w - (_share_raw(w, params) - h) * _dw_dh_raw(w, params)
        w_next = np.minimum(np.maximum(w_next, lo), hi)
        settled = (np.abs(w_next - w) <= _NEWTON_ULPS * np.spacing(w)).all()
        w = w_next
        if settled:
            break
    residual = np.abs(_share_raw(w, params) - h)
    missed = ~(residual <= WAGE_RESIDUAL_TOL)  # a NaN residual misses too
    if missed.any():
        i = int(np.argmax(missed))
        raise SolverError(
            f"wage continuation residual {residual.flat[i]:.3e} exceeds "
            f"{WAGE_RESIDUAL_TOL:.0e} at h={h.flat[i]}"
        )
    return w


def dw_dphi(w: float, params: ModelParams) -> float:
    """Response of the market-clearing wage to the freeness of trade.

    Negative for w > 1, positive for w < 1, zero at w = 1: freer trade
    compresses wage differentials.
    """
    _check_bracket(w, params)
    X = w ** params.sigma
    G = G_poly(X, params)
    if not G > 0.0:
        raise SingularityError(f"wage-derivative denominator vanished at w={w}")
    return -w * (X * X - 1.0) / G


def short_run_state(h: float, params: ModelParams) -> ShortRunState:
    """Full market-clearing snapshot at population share h."""
    w = solve_wage(h, params)
    P_L, P_R = price_indices(h, w, params)
    n_L, n_R = firm_counts(h, params)
    return ShortRunState(h=float(h), w=w, P_L=P_L, P_R=P_R,
                         C_L=w / P_L, C_R=1.0 / P_R, n_L=n_L, n_R=n_R)
