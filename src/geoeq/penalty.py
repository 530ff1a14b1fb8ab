"""Congestion penalties that pull the population apart.

A penalty ``t(x)`` is the utility cost of living in a region housing a
share x of the population.  What matters for migration is the
differential ``delta_t(h) = t(h) - t(1 - h)`` and its slope; both are kept
antisymmetric/symmetric by construction.

Two named families ship with the package:

* ``logit``: t(x) = -mu * ln(1 - x).  Diverges as a region fills up, so
  full agglomeration is never attractive; the induced migration dynamics
  coincide with a logit discrete-choice model of attachment with noise
  scale mu.
* ``linear``: t(x) = mu * x.  Bounded, so the endpoints stay in play.

A custom family supplies callables for t and its derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import _checked, _in_unit_interval, _interior_share

__all__ = ["PenaltySpec", "penalty", "delta_t", "delta_t_prime"]

LOGIT = "logit"
LINEAR = "linear"
CUSTOM = "custom"


@dataclass(frozen=True)
class PenaltySpec:
    """Choice of congestion-penalty family.

    ``kind`` is one of "logit", "linear", "custom".  The named families
    are data-only (picklable, usable across worker processes) with weight
    ``mu`` (0.2 unless given); a custom family has no ``mu`` (None), carries
    its own callables and must keep t antisymmetrizable, i.e. finite on
    [0, 1) with t(0) = 0.
    """

    kind: str = LOGIT
    mu: float | None = None
    t: Callable[[float], float] | None = None
    t_prime: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if self.kind in (LOGIT, LINEAR):
            object.__setattr__(self, "mu", 0.2 if self.mu is None else self.mu)
            _finite_nonnegative(float(self.mu))  # float(): one weight, not an array
            if self.t is not None or self.t_prime is not None:
                raise ValueError(f"{self.kind} penalty does not accept custom callables")
        elif self.kind == CUSTOM:
            if self.t is None or self.t_prime is None:
                raise ValueError("custom penalty requires both t and t_prime callables")
            if self.mu is not None:
                raise ValueError("custom penalty takes no weight mu; its callables carry it")
        else:
            raise ValueError(f"unknown penalty kind {self.kind!r}")

    @property
    def bounded(self) -> bool:
        """Whether the penalty stays finite as a region absorbs everyone.

        Bounded penalties leave full agglomeration admissible as a rest
        point; unbounded ones rule it out.
        """
        if self.kind == LINEAR:
            return True
        if self.kind == LOGIT:
            return self.mu == 0.0
        return math.isfinite(self.t(1.0))


def _finite_nonnegative(mu):
    """mu as a float array, checked to be penalty weights (NaN is not)."""
    return _checked(mu, lambda x: (x >= 0.0) & (x < math.inf),
                    "penalty weight mu must be finite and >= 0")


def penalty(x, spec: PenaltySpec):
    """Penalty t(x) of living in a region with population share x."""
    scalar = np.ndim(x) == 0
    x_arr = _in_unit_interval(x)
    if spec.kind == LOGIT:
        if spec.mu == 0.0:
            val = np.zeros_like(x_arr)
        else:
            with np.errstate(divide="ignore"):
                val = -spec.mu * np.log1p(-x_arr)
    elif spec.kind == LINEAR:
        val = spec.mu * x_arr
    else:
        val = np.array([spec.t(float(v)) for v in x_arr.ravel()])
        val = val.reshape(x_arr.shape)
    return float(val) if scalar else val


def _weights(spec: PenaltySpec, mu) -> np.ndarray:
    """Per-element penalty weights, which only the named families take."""
    if spec.kind not in (LOGIT, LINEAR):
        raise ValueError("per-element weights require a named penalty family")
    return _finite_nonnegative(mu)


def delta_t(h, spec: PenaltySpec, *, mu=None):
    """Penalty differential t(h) - t(1 - h); antisymmetric about 1/2.

    For the logit family this is mu * (ln h - ln(1 - h)), which runs to
    -inf at h = 0 and +inf at h = 1; those signed infinities are returned
    rather than raised, so the migration balance stays well defined at the
    endpoints.  A zero logit weight gives exactly zero everywhere.  ``mu``,
    if given, is a per-element weight broadcast against h in place of
    ``spec.mu`` (named families only).
    """
    scalar = np.ndim(h) == 0 and (mu is None or np.ndim(mu) == 0)
    h_arr = _in_unit_interval(h)
    weight = spec.mu if mu is None else _weights(spec, mu)
    if spec.kind == LOGIT:
        with np.errstate(divide="ignore", invalid="ignore"):
            val = weight * (np.log(h_arr) - np.log1p(-h_arr))
        if mu is not None or spec.mu == 0.0:
            # a zero weight gives exactly zero, also where a log is infinite
            val = np.where(weight == 0.0, 0.0, val)
    elif spec.kind == LINEAR:
        val = weight * (2.0 * h_arr - 1.0)
    else:
        val = penalty(h_arr, spec) - penalty(1.0 - h_arr, spec)
    return float(val) if scalar else val


def delta_t_prime(h, spec: PenaltySpec, *, mu=None):
    """Slope of the penalty differential: t'(h) + t'(1 - h).

    Symmetric about 1/2 and, for convex t, minimized there; for the logit
    family the closed form is mu / (h (1 - h)) with minimum 4*mu.  ``mu``
    is a per-element weight as in :func:`delta_t`.
    """
    scalar = np.ndim(h) == 0 and (mu is None or np.ndim(mu) == 0)
    h_arr = _in_unit_interval(h)
    if spec.kind == LOGIT:
        _interior_share(h_arr)
    weight = spec.mu if mu is None else _weights(spec, mu)
    if spec.kind == LOGIT:
        val = weight / (h_arr * (1.0 - h_arr))
    elif spec.kind == LINEAR:
        val = 2.0 * weight * np.ones_like(h_arr)
    else:
        flat = h_arr.ravel()
        val = np.array([spec.t_prime(float(v)) + spec.t_prime(1.0 - float(v)) for v in flat])
        val = val.reshape(h_arr.shape)
    return float(val) if scalar else val
