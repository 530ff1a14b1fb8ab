"""Long-run equilibria of the migration dynamics and their bifurcations.

A spatial distribution h is at rest when the utility advantage of the
crowded region exactly offsets the congestion penalty of moving there:
``delta_V(h) = delta_u(h) - delta_t(h) = 0``, plus whatever boundary rest
points a bounded penalty leaves admissible.  Stability is read off the
slope of delta_V (negative means restoring), and the symmetric rest point
h = 1/2 loses stability through pitchfork bifurcations as trade gets
freer or the penalty weaker.

The scan works on the upper half [1/2, 1): delta_V is antisymmetric, so
every asymmetric rest point arrives with its mirror image for free, and
the symmetric point is always a root.  It brackets and polishes in the
relative wage rather than the share: the upper half is the wage interval
[1, w_hi), on which both shares are closed forms of w
(:func:`geoeq.model._share_terms`), so the polish evaluates delta_V
without any wage solve.  One array wage solve lays the scan, at the
wages of evenly spaced shares, and solves the boundary probes with it.
The part of the scan that does not depend on the penalty (nodes, shares,
and the utility gap at the nodes and at the probes) is kept for the most
recent economy, so the steps of a penalty-weight sweep scan and probe
their economy once.

Solving is split in two phases.  The locate phase runs per economy: scan,
brackets, polish, the first-cell search, near-boundary chase, pinned and
boundary checks.  It is handed delta_V's closed-form slope at 1/2, which
decides whether a rest point hides inside the first scan cell.  The
finish phase takes the located rest points of any number of economies
that differ only in freeness and penalty weight, and computes |delta_V|
and its central-FD slope for the symmetric point, every root and every
mirror in one delta_V call, each share at its own economy's freeness and
weight.  :func:`find_equilibria` is the one-economy case; :func:`sweep`
finishes all its steps at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .model import (ModelParams, SolverError, _elasticity, _share_terms, _wage_pieces, brentq,
                    solve_wage)
from .penalty import LINEAR, LOGIT, PenaltySpec, _finite_nonnegative, delta_t, delta_t_prime
from .welfare import _delta_u_at, delta_u, dispersion_slope

__all__ = [
    "Equilibrium",
    "BifurcationPoint",
    "Branch",
    "delta_V",
    "find_equilibria",
    "classify_stability",
    "mu_d",
    "mu_p",
    "phi_b",
    "dispersion_threshold",
    "threshold_phi_crossings",
    "pitchfork_criticality",
    "sweep",
    "KIND_DISPERSION",
    "KIND_PARTIAL",
    "KIND_BOUNDARY",
    "STABLE",
    "UNSTABLE",
    "MARGINAL",
    "SUPERCRITICAL",
    "SUBCRITICAL",
    "INDETERMINATE",
]

KIND_DISPERSION = "symmetric_dispersion"
KIND_PARTIAL = "partial_agglomeration"
KIND_BOUNDARY = "boundary_agglomeration"

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

SUPERCRITICAL = "supercritical"
SUBCRITICAL = "subcritical"
INDETERMINATE = "indeterminate"

# Scan grid for root bracketing over [0, 1]; the upper half uses half of it.
GRID_POINTS = 2048

# Interior rest points must satisfy |delta_V| below this after refinement.
RESIDUAL_TOL = 1e-10

# |slope| below this is reported as marginal rather than given a sign.
MARGINAL_BAND = 1e-8

# Shares closer than this to 1/2 are the symmetric rest point itself.
DISPERSION_TOL = 1e-9

# The scan stops this short of the boundary, where unbounded penalties blow up.
GRID_EDGE = 1e-9

# Central finite-difference step of the rest-point slopes: cube root of
# machine epsilon balances truncation against cancellation for O(1) slopes.
FD_STEP = float(np.cbrt(np.finfo(float).eps))

# |third derivative| below this cannot be signed reliably by the stencil.
CRITICALITY_FLOOR = 1e-5

# Base step for the third-derivative stencil (Richardson-extrapolated).
CRITICALITY_STEP = 1e-2


@dataclass(frozen=True)
class Equilibrium:
    """A rest point of the migration dynamics.

    ``slope`` is d(delta_V)/dh at the rest point (one-sided at the
    boundary); ``residual`` is |delta_V| there, small for interior kinds
    but meaningfully nonzero for boundary ones, where rest does not
    require indifference.
    """

    h_star: float
    w: float
    kind: str
    stability: str
    slope: float
    residual: float


@dataclass(frozen=True)
class BifurcationPoint:
    parameter: str
    value: float
    kind: str
    criticality: str
    third_derivative: float


@dataclass
class Branch:
    """Equilibrium set traced along one parameter.

    ``samples`` pairs each parameter value with the equilibria found
    there, in parameter order; ``diagnostics`` records steps where the
    solver failed (their equilibrium lists stay empty).
    """

    parameter: str
    samples: list[tuple[float, list[Equilibrium]]]
    bifurcations: list[BifurcationPoint]
    diagnostics: list[str]


def delta_V(h, params: ModelParams, spec: PenaltySpec, *, phi=None, mu=None):
    """Net migration incentive toward region L at share h.

    Positive values push population into L.  Antisymmetric about 1/2;
    carries the signed infinities of an unbounded penalty differential at
    the endpoints rather than raising.  ``phi`` and ``mu``, if given, are
    a per-element freeness and penalty weight broadcast against h in place
    of ``params.phi`` and ``spec.mu``, so one call serves shares of
    economies that differ only in them, each share getting its own
    economy's value.  As with :func:`geoeq.welfare.delta_u`, a scalar
    share and the same share inside an array can differ in the last bit.
    """
    return delta_u(h, params, phi=phi) - delta_t(h, spec, mu=mu)


def _stability_from_slope(slope: float) -> str:
    if abs(slope) < MARGINAL_BAND:
        return MARGINAL
    return STABLE if slope < 0.0 else UNSTABLE


def _wage_terms(a, b):
    """Shares h = a/(a+b), g = b/(a+b), log-odds ln a - ln b and a + b from
    the share terms a, b (:func:`geoeq.model._share_terms`) of wages in
    [1, w_hi): nothing forms 1 - h by subtraction."""
    ab = a + b
    return a / ab, b / ab, np.log(a) - np.log(b), ab


def _penalty_gap(h, g, log_odds, spec: PenaltySpec):
    """delta_t at shares h, g = 1 - h whose log-odds ln(h/g) is given."""
    if spec.kind == LOGIT:
        return spec.mu * log_odds
    if spec.kind == LINEAR:
        return spec.mu * (h - g)
    return delta_t(h, spec)


def _delta_V_wage(w, params: ModelParams, spec: PenaltySpec):
    """delta_V at the shares that wages w in [1, w_hi) support, with no wage solve."""
    h, g, log_odds, ab = _wage_terms(*_share_terms(w, params))
    return _delta_u_at(np.log(w), w, ab, params) - _penalty_gap(h, g, log_odds, spec)


# Boundary probe shares: one FD step inside the boundary, the last double
# below 1, and the boundary itself.
_PROBES = np.array([1.0 - FD_STEP, np.nextafter(1.0, 0.0), 1.0])


@functools.lru_cache(maxsize=1)
def _upper_scan(params: ModelParams):
    """The penalty-free part of the rest-point scan, kept for the last economy.

    One wage solve lays the scan: the wages of GRID_POINTS // 2 + 1 shares
    spread evenly over [1/2, 1 - GRID_EDGE] are the nodes, and the same
    call solves the boundary probes (_PROBES).  Returns the nodes and, at
    every node, the two shares, the log-odds and delta_u, then delta_u at
    the probes, all read-only.  A penalty-weight sweep moves none of them,
    so its steps after the first reuse them.

    Near phi = 1 neighbouring solved wages can tie or swap by a spacing of
    doubles, and w**sigma can round past 1/phi, which clips a node's b to 0
    (share 1, log-odds inf) at nodes that need not be contiguous.  So the
    nodes are made non-decreasing, and each node whose b is 0 is replaced
    by the last node before it whose b is not: the first node, the
    symmetric point w = 1, has b = 1 - phi.  A tied cell brackets nothing,
    and the scan keeps its GRID_POINTS // 2 + 1 nodes.
    """
    n = GRID_POINTS // 2 + 1
    wages = solve_wage(np.append(np.linspace(0.5, 1.0 - GRID_EDGE, n), _PROBES), params)
    wages[:n] = np.maximum.accumulate(wages[:n])
    a, b = _share_terms(wages, params)
    keep = np.append(np.maximum.accumulate(np.where(b[:n] > 0.0, np.arange(n), 0)),
                     np.arange(n, wages.size))  # the probes keep their wages
    w, a, b = wages[keep], a[keep], b[keep]
    h, g, log_odds, _ = _wage_terms(a[:n], b[:n])
    du = _delta_u_at(np.log(w), w, a + b, params)
    scan = (w[:n], h, g, log_odds, du[:n], du[n:])
    for arr in scan:
        arr.setflags(write=False)
    return scan


def _grid_roots(f, x: np.ndarray, fx: np.ndarray, xtol: float) -> list[float]:
    """Roots of f along an ordered grid x with values fx = f(x), in grid order.

    A node where fx is exactly zero is a root as it stands; a cell whose end
    values have opposite signs gets one bracketed root find to ``xtol``.
    """
    zero = fx == 0.0
    sign = np.sign(fx)  # a product of the values could underflow to 0 or overflow
    change = np.append(sign[:-1] * sign[1:] < 0.0, False)
    return [float(x[i]) if zero[i]
            else float(brentq(f, float(x[i]), float(x[i + 1]), xtol=xtol, maxiter=200))
            for i in np.flatnonzero(zero | change)]


def _incentive_and_slope(h, params: ModelParams, spec: PenaltySpec, phi=None, mu=None):
    """|delta_V| and its central-FD slope at interior shares h, in one delta_V call.

    Every share h is evaluated together with h +- step, step =
    min(FD_STEP, h/2, (1-h)/2).  ``phi`` and ``mu``, if given, are each
    share's freeness and penalty weight (see :func:`delta_V`).
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    step = np.minimum(np.minimum(FD_STEP, 0.5 * h), 0.5 * (1.0 - h))
    v = delta_V(np.stack([h, h + step, h - step]), params, spec, phi=phi, mu=mu)
    return np.abs(v[0]), (v[1] - v[2]) / (2.0 * step)


def _interior_equilibria(pairs: list[tuple[float, float]], residual: np.ndarray,
                         slope: np.ndarray) -> list[Equilibrium]:
    """Interior rest points at market-clearing pairs (h*, w), given |delta_V|
    and its slope at each."""
    # Backward-error acceptance: near the boundary an unbounded penalty's
    # slope diverges like 1/(1-h), so |delta_V| at a root known to machine
    # precision in h grows with it.  Scaling by the local slope keeps the
    # criterion "h is right", not "delta_V is flat".
    bad = np.flatnonzero(residual > RESIDUAL_TOL * np.maximum(1.0, np.abs(slope)))
    if bad.size:
        i = bad[0]
        raise SolverError(
            f"rest-point residual {residual[i]:.3e} exceeds {RESIDUAL_TOL:.0e} at h={pairs[i][0]}"
        )
    return [Equilibrium(h_star=h_star, w=w_star,
                        kind=KIND_DISPERSION if abs(h_star - 0.5) <= DISPERSION_TOL
                        else KIND_PARTIAL,
                        stability=_stability_from_slope(sl), slope=sl, residual=res)
            for (h_star, w_star), sl, res in zip(pairs, slope.tolist(), residual.tolist())]


def _per_share(values: list[float], counts: list[int]):
    """Each value repeated for its economy's shares, or None if all are equal."""
    if all(v == values[0] for v in values):
        return None
    return np.repeat(values, counts)


def _boundary_pair(params: ModelParams, stability: str, slope: float,
                   residual: float) -> list[Equilibrium]:
    """The boundary rest points h = 0 and h = 1, at the wage-bracket ends:
    mirror images, so they share their stability, slope and residual."""
    lo, hi = params.wage_bracket
    return [Equilibrium(h_star=h_star, w=w, kind=KIND_BOUNDARY, stability=stability,
                        slope=slope, residual=residual) for h_star, w in ((0.0, lo), (1.0, hi))]


def _boundary_equilibria(params: ModelParams, spec: PenaltySpec) -> list[Equilibrium]:
    """Endpoint rest points, admissible only under a bounded penalty.

    h = 1 is at rest when no one wants to leave the crowded region, i.e.
    delta_V(1) >= 0; within MARGINAL_BAND of zero it is marginal.  The
    mirror point h = 0 follows by antisymmetry.
    """
    if not spec.bounded:
        return []
    *_, probe_du = _upper_scan(params)
    v_step, v_full = (probe_du[::2] - delta_t(_PROBES[::2], spec)).tolist()  # at 1 - FD_STEP, 1
    if v_full < -MARGINAL_BAND:
        return []
    stability = MARGINAL if abs(v_full) <= MARGINAL_BAND else STABLE
    return _boundary_pair(params, stability, (v_full - v_step) / FD_STEP, abs(v_full))


@dataclass
class _Located:
    """One economy's rest points as the locate phase leaves them.

    ``roots`` are the upper-half rest points (h*, w), not yet finished;
    ``edge`` the pinned or boundary rest points, final as they stand.
    """

    params: ModelParams
    spec: PenaltySpec
    roots: list[tuple[float, float]]
    edge: list[Equilibrium]


def _add_root(roots: list[tuple[float, float]], r: float, w: float) -> None:
    """Record an upper-half rest point unless it is the symmetric one or already known."""
    if r - 0.5 > DISPERSION_TOL and all(abs(r - seen) > DISPERSION_TOL for seen, _ in roots):
        roots.append((r, w))


def _mirrored(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """The pairs followed by their mirror images across 1/2."""
    # w(1 - h) = 1/w(h): the wage map is reciprocal about the midpoint.
    return [*pairs, *((1.0 - r, 1.0 / w) for r, w in pairs)]


def _symmetric_slope(params: ModelParams, spec: PenaltySpec) -> float:
    """delta_V's slope at h = 1/2 in closed form.

    The utility slope there is exactly twice the display form
    :func:`geoeq.welfare.dispersion_slope`.
    """
    return 2.0 * dispersion_slope(params) - delta_t_prime(0.5, spec)


def _first_cell_root(f, hi: float, value: float) -> float | None:
    """The wage of a rest point inside the first scan cell [1, hi], or None.

    delta_V(1/2) = 0 by antisymmetry, so the sign-change test is blind in
    the first cell; the caller asks here when the symmetric slope's sign
    differs from ``value`` = f(hi), delta_V at the first node, i.e. the
    curve re-crosses inside the cell.  Halve toward w = 1 until f takes
    the slope's sign to bracket the root; a fixed probe right next to 1/2
    would read rounding noise.
    """
    while (lo := 0.5 * (1.0 + hi)) > 1.0:
        if np.sign(f(lo)) * value <= 0.0:  # not f(lo) * value: it can underflow to 0
            return brentq(f, lo, hi, xtol=1e-15, maxiter=200)
        hi = lo
    return None


def _locate(params: ModelParams, spec: PenaltySpec, slope: float) -> _Located:
    """The locate phase of :func:`find_equilibria`: everything but the finish.

    ``slope`` is delta_V's slope at 1/2 (:func:`_symmetric_slope`); it
    decides whether the first scan cell is searched.
    """
    nodes, h, g, log_odds, du, probe_du = _upper_scan(params)
    values = du - _penalty_gap(h, g, log_odds, spec)

    roots: list[tuple[float, float]] = []
    f = lambda x: float(_delta_V_wage(x, params, spec))
    # The node at w = 1 is the symmetric point, zero by antisymmetry.
    wages = _grid_roots(f, nodes[1:], values[1:], 1e-15)
    if abs(slope) >= MARGINAL_BAND and slope * np.sign(values[1]) < 0.0:
        w = _first_cell_root(f, float(nodes[1]), float(values[1]))
        if w is not None:
            wages.append(w)
    for w in wages:
        a, b = _share_terms(w, params)
        _add_root(roots, a / (a + b), w)

    pinned: list[Equilibrium] = []
    if not spec.bounded and values[-1] > 0.0:
        # The net incentive still presses outward at the window edge, so the
        # outermost rest point lies between 1 - GRID_EDGE and 1.  Chase it
        # through the last representable shares; if even the closest double
        # to 1 still flows outward, the rest point is below the resolution
        # of the floating-point grid and is reported pinned at the boundary.
        f_h = lambda x: float(delta_V(x, params, spec))
        h_last = float(_PROBES[1])
        v_last = float(probe_du[1] - delta_t(h_last, spec))
        if v_last <= 0.0:
            r = h_last if v_last == 0.0 else brentq(f_h, 1.0 - GRID_EDGE, h_last,
                                                     xtol=1e-16, maxiter=200)
            _add_root(roots, r, solve_wage(r, params))
        else:
            pinned = _boundary_pair(params, STABLE, float("-inf"), v_last)
    return _Located(params, spec, roots, [*pinned, *_boundary_equilibria(params, spec)])


def _finish(located: list[_Located]) -> list:
    """The finish phase of :func:`find_equilibria` for any number of economies.

    The economies are alike but for freeness and penalty weight.  The
    symmetric point, every located root and every mirror of every economy
    get |delta_V| and the central-FD slope from one delta_V call; each
    economy's edge points are then added.  Returns, per economy, its rest
    points sorted by location or the exception that stopped it.  If the
    call as a whole raises, every economy is finished on its own, so a
    failure stays with its economy and carries the text that a
    one-economy call gives.
    """
    if not located:
        return []
    pairs = [[(0.5, 1.0), *_mirrored(loc.roots)] for loc in located]
    counts = [len(p) for p in pairs]
    try:
        residual, slope = _incentive_and_slope(
            np.array([h_star for p in pairs for h_star, _ in p]),
            located[0].params, located[0].spec,
            phi=_per_share([loc.params.phi for loc in located], counts),
            mu=_per_share([loc.spec.mu for loc in located], counts))
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        if len(located) == 1:
            return [exc]
        return [result for loc in located for result in _finish([loc])]
    results = []
    for loc, p, end in zip(located, pairs, np.cumsum(counts).tolist()):
        part = slice(end - len(p), end)
        try:
            found = _interior_equilibria(p, residual[part], slope[part])
        except SolverError as exc:
            results.append(exc)
            continue
        results.append(sorted(found + loc.edge, key=lambda e: e.h_star))
    return results


def find_equilibria(params: ModelParams, spec: PenaltySpec) -> list[Equilibrium]:
    """All rest points of the migration dynamics, sorted by location.

    Brackets sign changes of delta_V on a scan of the upper half
    [1/2, 1 - GRID_EDGE] and polishes each with a bracketed root find.
    Both run in the relative wage w on [1, solve_wage(1 - GRID_EDGE)],
    where delta_V is a closed form in w; the scan nodes are the wages of
    GRID_POINTS // 2 + 1 evenly spaced shares, from one wage solve, and
    each root is reported at the share h* = h(w*) of its polished wage.
    The asymmetric roots are mirrored across 1/2 and admissible boundary
    points appended.  Roots closer together than the scan resolution
    (about 1/GRID_POINTS) can be missed.

    The locate and finish phases are the module docstring's; this is the
    one-economy case of :func:`sweep`.  The sign-change test is blind in
    the first scan cell, next to the symmetric root, so a halving search
    looks there when delta_V's closed-form slope at 1/2 is not marginal
    and has the opposite sign to delta_V at the first node.  A SolverError
    names the economy if delta_u or that slope leaves the double range.

    Under an unbounded penalty the outermost rest point approaches the
    boundary exponentially fast as the penalty weight shrinks (the gap is
    about exp(-delta_u(1)/mu) for the logit family).  When it falls inside
    the last floating-point spacing below 1, no double can represent it
    and it is reported pinned at the boundary: kind boundary_agglomeration,
    stable, slope -inf, with ``residual`` carrying the outward incentive at
    the closest representable interior share.
    """
    found, = _finish([_locate(params, spec, _symmetric_slope(params, spec))])
    if isinstance(found, Exception):
        raise found
    return found


def classify_stability(eq: Equilibrium, params: ModelParams, spec: PenaltySpec) -> str:
    """Recompute the stability label of a rest point from scratch.

    Interior points are labeled by the sign of the delta_V slope; boundary
    points by whether the migration incentive still presses outward.
    """
    if eq.kind == KIND_BOUNDARY:
        probe = 1.0 if spec.bounded else float(np.nextafter(1.0, 0.0))
        v = float(delta_V(probe, params, spec))
        if v < -MARGINAL_BAND:
            return UNSTABLE
        return MARGINAL if abs(v) <= MARGINAL_BAND else STABLE
    _, slope = _incentive_and_slope(eq.h_star, params, spec)
    return _stability_from_slope(float(slope[0]))


# ---------------------------------------------------------------------------
# Closed-form thresholds


def mu_d(sigma: float, phi: float) -> float:
    """Logit penalty weight at which the symmetric point changes stability.

    Closed form (2 sigma - 1)(1 - phi) / ((sigma - 1)(2 sigma + phi - 1)),
    derived in the display convention where both the utility slope and the
    penalty slope at 1/2 are halved; the ratio, and hence the threshold,
    is unaffected.  Exact for logarithmic utility curvature (theta = 1),
    where it is :func:`dispersion_threshold` and is computed as such; that
    function gives the curvature-adjusted version for other theta.
    """
    return dispersion_threshold(ModelParams(sigma=sigma, phi=phi))


def mu_p(w: float, sigma: float, phi: float) -> float:
    """Logit weight pinning an asymmetric rest point at relative wage w.

    Equals mu_d at w = 1 and falls strictly to 0 as w approaches the upper
    end of the wage bracket, so every weight below mu_d supports some
    asymmetric rest point.
    """
    _, X, _, G = _wage_pieces(w, ModelParams(sigma=sigma, phi=phi))
    return float((2.0 * sigma - 1.0) * (X - phi) * (1.0 - X * phi) / ((sigma - 1.0) * G))


def phi_b(sigma: float, mu: float) -> float | None:
    """Freeness at which the symmetric point changes stability, given mu.

    Inverts the mu_d relation; returns None when the crossing falls
    outside (0, 1), meaning the symmetric point keeps one stability label
    over the whole trade-freeness range.  Exact at theta = 1.
    """
    _elasticity(sigma)
    _finite_nonnegative(mu)
    val = (2.0 * sigma - 1.0) * (mu * (sigma - 1.0) - 1.0) / (-(mu + 2.0) * sigma + mu + 1.0)
    return val if 0.0 < val < 1.0 else None


def dispersion_threshold(params: ModelParams, *, phi=None):
    """Curvature-adjusted logit weight where the symmetric point turns.

    Half the display-convention symmetric slope, i.e.

        mu_d(sigma, phi) * ((1 + phi)/2)**((1 - theta)/(sigma - 1)).

    Coincides with mu_d at theta = 1; for other curvatures the
    adjustment factor is what the migration dynamics actually balance
    against the penalty slope 4 mu at h = 1/2.  ``phi``, if given, is a
    freeness (scalar or array) in place of ``params.phi``, as in
    :func:`geoeq.welfare.dispersion_slope`.
    """
    return 0.5 * dispersion_slope(params, phi=phi)


def threshold_phi_crossings(params: ModelParams, mu: float) -> list[float]:
    """Freeness values where the symmetric point changes stability.

    Numeric companion to :func:`phi_b`: evaluates dispersion_threshold(phi)
    - mu on 1024 freeness values spanning [1e-6, 1 - 1e-6] and returns, in
    increasing order, every node where it is exactly zero and one polished
    root per sign change.  Usually zero or one crossing; strong curvature
    can in principle produce more, hence the list.
    """
    _finite_nonnegative(mu)
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1024)
    g = lambda p: dispersion_threshold(params, phi=p) - mu
    return _grid_roots(g, grid, g(grid), 1e-14)


# ---------------------------------------------------------------------------
# Bifurcations


def _with_parameter(parameter: str, value: float, params: ModelParams,
                    spec: PenaltySpec) -> tuple[ModelParams, PenaltySpec]:
    if parameter == "phi":
        return params.with_phi(value), spec
    if parameter == "mu":
        if spec.kind not in (LOGIT, LINEAR):
            raise ValueError("mu sweeps require a named penalty family")
        return params, replace(spec, mu=value)
    raise ValueError(f"unknown sweep parameter {parameter!r}; use 'phi' or 'mu'")


def pitchfork_criticality(parameter: str, value: float, params: ModelParams,
                          spec: PenaltySpec) -> BifurcationPoint:
    """Classify the pitchfork at the symmetric point for a parameter value.

    The first and (by symmetry) second derivatives of delta_V vanish at
    the bifurcation, so the cubic term decides the geometry: negative
    means the new asymmetric branch is stable and emerges on the far side
    (supercritical); positive means it is unstable and bends backward
    (subcritical).  The third derivative comes from a Richardson-
    extrapolated five-point stencil; magnitudes below CRITICALITY_FLOOR
    are reported indeterminate.
    """
    p2, s2 = _with_parameter(parameter, value, params, spec)
    steps = (CRITICALITY_STEP, 0.5 * CRITICALITY_STEP)
    # five-point central stencil for the third derivative at 1/2, both
    # steps' shares in one batch
    shares = np.array([0.5 + k * step for step in steps for k in (-2.0, -1.0, 1.0, 2.0)])
    v = delta_V(shares, p2, s2).tolist()
    coarse, fine = ((-v[i] + 2.0 * v[i + 1] - 2.0 * v[i + 2] + v[i + 3]) / (2.0 * step ** 3)
                    for i, step in zip((0, 4), steps))
    third = (4.0 * fine - coarse) / 3.0
    if abs(third) < CRITICALITY_FLOOR:
        crit = INDETERMINATE
    elif third < 0.0:
        crit = SUPERCRITICAL
    else:
        crit = SUBCRITICAL
    return BifurcationPoint(parameter=parameter, value=float(value), kind="pitchfork",
                            criticality=crit, third_derivative=third)


def _sweep_chunk(job):
    """Locate a run of sweep steps one by one, then finish them all at once.

    Returns (value, rest points, diagnostic or None) per step; module level
    so process pools can pickle it.
    """
    parameter, values, slopes, params, spec = job
    steps = []
    for value, slope in zip(values, slopes):
        try:
            steps.append(_locate(*_with_parameter(parameter, value, params, spec), slope))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            steps.append(exc)
    finished = iter(_finish([s for s in steps if not isinstance(s, Exception)]))
    results = [s if isinstance(s, Exception) else next(finished) for s in steps]
    return [(value, [], f"{type(r).__name__}: {r}") if isinstance(r, Exception)
            else (value, r, None) for value, r in zip(values, results)]


def sweep(parameter: str, lo: float, hi: float, steps: int, params: ModelParams,
          spec: PenaltySpec, *, workers: int = 1) -> Branch:
    """Trace the equilibrium set along one parameter.

    Each step's sample is exactly what :func:`find_equilibria` returns
    there: every step is located on its own (mu-steps share one economy's
    scan), and the finish phase takes all steps in one delta_V call.  A
    step whose locate or finish raises is recorded in ``diagnostics`` with
    the text find_equilibria would raise; the other steps keep their rest
    points.  With workers > 1 each worker process locates and finishes one
    contiguous run of steps; the results do not depend on the split.

    Pitchforks of the symmetric point sit where that slope changes sign.
    It is evaluated once per step, on a mu-sweep in one array expression,
    on a phi-sweep as one scalar per step with the penalty slope taken
    once; each sign change between neighbouring steps is polished by a
    bracketed root find on the same expression, and each pitchfork is
    classified via :func:`pitchfork_criticality`.  The slope needs no
    rest-point scan, so a step whose scan fails hides no pitchfork next to
    it; where the slope leaves the double range, the sweep raises SolverError.

    Parallel runs (workers > 1) require a picklable penalty spec; the
    named families always are, custom callables must live at module level.
    """
    for end in (lo, hi):  # the parameter's name, family and range
        _with_parameter(parameter, end, params, spec)
    if steps < 2:
        raise ValueError(f"a sweep needs at least 2 steps, got {steps}")
    if not lo < hi:
        raise ValueError(f"sweep range must satisfy min < max, got [{lo}, {hi}]")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    # the symmetric slope at parameter value(s) v, the float _symmetric_slope
    # gives there, without building the economy or the penalty at v
    if parameter == "phi":
        penalty_slope = delta_t_prime(0.5, spec)
        symmetric_slope = lambda v: 2.0 * dispersion_slope(params, phi=v) - penalty_slope
    else:
        utility_slope = 2.0 * dispersion_slope(params)
        symmetric_slope = lambda v: utility_slope - delta_t_prime(0.5, spec, mu=v)
    values = np.linspace(lo, hi, steps)
    # a float freeness is evaluated with Python's **, so phi-steps go one by one
    slopes = (np.array([symmetric_slope(v) for v in values.tolist()]) if parameter == "phi"
              else symmetric_slope(values))
    runs = min(workers, steps)
    jobs = [(parameter, v.tolist(), sl.tolist(), params, spec)
            for v, sl in zip(np.array_split(values, runs), np.array_split(slopes, runs))]
    if workers == 1:
        results = _sweep_chunk(jobs[0])
    else:
        # imported here, so that serial sweeps and CLI runs never load the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [r for run in pool.map(_sweep_chunk, jobs) for r in run]
    samples = [(value, eqs) for value, eqs, _ in results]
    diagnostics = [f"{parameter}={value!r}: {error}"
                   for value, _, error in results if error is not None]
    bifurcations = [pitchfork_criticality(parameter, p, params, spec)
                    for p in _grid_roots(symmetric_slope, values, slopes, 1e-12)]
    return Branch(parameter=parameter, samples=samples,
                  bifurcations=bifurcations, diagnostics=diagnostics)
