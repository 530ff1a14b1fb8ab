"""Independent routes to the quantities geoeq computes, for output checks.

Pure-Python floats, no geoeq imports.  The wage comes from bisecting the
market-clearing share down to adjacent doubles, utility is built from the
consumption aggregates rather than the closed-form differential, and slopes
come from five-point finite differences.  None of it shares code with the
program, so agreement is evidence, not an echo.
"""

from __future__ import annotations

import math

# theta this close to 1 is evaluated through log utility, as in the paper.
_LOG_BAND = 1e-8


def share(w: float, sigma: float, phi: float) -> float:
    """Population share of region L that supports relative wage w."""
    x = w ** sigma
    num = x * (x - phi)
    den = num + w * (1.0 - phi * x)
    return min(max(num / den, 0.0), 1.0)


def bracket(sigma: float, phi: float) -> tuple[float, float]:
    lo = phi ** (1.0 / sigma)
    return lo, 1.0 / lo


def wage(h: float, sigma: float, phi: float) -> float:
    """Market-clearing relative wage at share h, by plain bisection."""
    lo, hi = bracket(sigma, phi)
    if h <= 0.0:
        return lo
    if h >= 1.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if share(mid, sigma, phi) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _utility(c: float, theta: float) -> float:
    if abs(theta - 1.0) < _LOG_BAND:
        return math.log(c)
    return math.expm1((1.0 - theta) * math.log(c)) / (1.0 - theta)


def delta_u(h: float, sigma: float, phi: float, theta: float, eta: float = 1.0) -> float:
    """Utility advantage of region L, from consumption C_L = w/P_L, C_R = 1/P_R."""
    w = wage(h, sigma, phi)
    local = h * w ** (1.0 - sigma)
    p_l = (local + (1.0 - h) * phi) ** (1.0 / (1.0 - sigma))
    p_r = (phi * local + (1.0 - h)) ** (1.0 / (1.0 - sigma))
    return eta * (_utility(w / p_l, theta) - _utility(1.0 / p_r, theta))


def delta_t(h: float, kind: str, mu: float) -> float:
    """Penalty differential t(h) - t(1 - h) from the penalty itself."""
    if kind == "linear":
        return mu * h - mu * (1.0 - h)
    if mu == 0.0:
        return 0.0
    t = lambda x: math.inf if x == 1.0 else -mu * math.log1p(-x)
    return t(h) - t(1.0 - h)


def delta_v(h: float, sigma: float, phi: float, theta: float, kind: str, mu: float) -> float:
    return delta_u(h, sigma, phi, theta) - delta_t(h, kind, mu)


def slope(f, x: float, step: float) -> float:
    """Five-point central difference of f at x."""
    return (f(x - 2.0 * step) - 8.0 * f(x - step) + 8.0 * f(x + step)
            - f(x + 2.0 * step)) / (12.0 * step)


def threshold(sigma: float, phi: float, theta: float) -> float:
    """Logit weight at which h = 1/2 changes stability: d(delta_u)/dh at 1/2 over 4."""
    return slope(lambda h: delta_u(h, sigma, phi, theta), 0.5, 1e-4) / 4.0


def mu_d(sigma: float, phi: float) -> float:
    """Closed-form log-utility threshold, used to place sweep ranges."""
    return (2.0 * sigma - 1.0) * (1.0 - phi) / ((sigma - 1.0) * (2.0 * sigma + phi - 1.0))


def threshold_closed(sigma: float, phi: float, theta: float) -> float:
    """Curvature-adjusted closed form of :func:`threshold`, used to place sweep ranges."""
    return mu_d(sigma, phi) * ((1.0 + phi) / 2.0) ** ((1.0 - theta) / (sigma - 1.0))


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))
