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
the symmetric point is always a root.  It walks the relative wage rather
than the share: the upper half is the wage interval [1, w_hi), on which
both shares are closed forms of w (:func:`geoeq.model._share_terms`), so
scanning and polishing in w evaluate delta_V without any wage solve.
The part of the scan that does not depend on the penalty (nodes, shares
and utility gap) is kept for the most recent economy, and the utility gap
at the boundary probes for the last few, so the steps of a
penalty-weight sweep scan and probe their economy once.

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
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (ModelParams, SolverError, _share_raw, _share_terms, _wage_pieces, brentq,
                    solve_wage)
from .penalty import LINEAR, LOGIT, PenaltySpec, delta_t, delta_t_prime
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


def _wage_terms(w, a, b, params: ModelParams):
    """Shares h, g = 1 - h, log-odds ln(h/g) and delta_u at wages w in [1, w_hi).

    a and b are the share terms of w (:func:`geoeq.model._share_terms`):
    both shares come from the closed form h = a/(a+b), 1 - h = b/(a+b),
    and the log-odds is ln a - ln b, so nothing forms 1 - h by subtraction.
    """
    h, g = a / (a + b), b / (a + b)
    return h, g, np.log(a) - np.log(b), _delta_u_at(h, g, w, params)


def _penalty_gap(h, g, log_odds, spec: PenaltySpec):
    """delta_t at shares h, g = 1 - h whose log-odds ln(h/g) is given."""
    if spec.kind == LOGIT:
        return spec.mu * log_odds
    if spec.kind == LINEAR:
        return spec.mu * (h - g)
    return delta_t(h, spec)


def _delta_V_wage(w, params: ModelParams, spec: PenaltySpec):
    """delta_V at the shares that wages w in [1, w_hi) support, with no wage solve."""
    h, g, log_odds, du = _wage_terms(w, *_share_terms(w, params), params)
    return du - _penalty_gap(h, g, log_odds, spec)


def _wage_nodes(w_edge: float, n_upper: int, params: ModelParams):
    """Scan wages on [1, w_edge], no coarser in the share than a uniform scan.

    Neighbouring nodes support shares no further apart than a uniform
    scan of n_upper shares over [1/2, 1 - GRID_EDGE].  The share is far
    from linear in the wage (a uniform wage grid leaves share gaps up to
    ~20x too wide at low freeness), so each cell whose share gap is too
    wide is split evenly in w into ceil(gap/target) pieces, repeated until
    every gap fits.  The node count stays below about 2*n_upper.  A cell
    splits into no more pieces than the float steps across it, so the nodes
    stay strictly increasing (if w_edge > 1) and, near phi = 1 where
    [1, w_edge] holds few doubles, a gap can exceed the target.  Returns
    the nodes and their share terms a, b (:func:`geoeq.model._share_terms`),
    which the last gap test evaluated.
    """
    target = (0.5 - GRID_EDGE) / (n_upper - 1)
    steps = int((w_edge - 1.0) / math.ulp(1.0))  # doubles in (1, w_edge], exact below 2
    w = np.linspace(1.0, w_edge, min(n_upper, max(steps, 1) + 1))
    while True:
        a, b = _share_terms(w, params)
        bits = w.view(np.int64)  # bit patterns of positive doubles count float steps
        pieces = np.minimum(np.ceil(np.diff(a / (a + b)) / target), bits[1:] - bits[:-1])
        if pieces.max() <= 1.0:
            return w, a, b
        k = np.maximum(pieces, 1.0).astype(int)
        first = np.repeat(np.cumsum(k) - k, k)
        frac = (np.arange(k.sum()) - first) / np.repeat(k, k)
        w = np.append(np.repeat(w[:-1], k) + frac * np.repeat(np.diff(w), k), w[-1])


@functools.lru_cache(maxsize=1)
def _upper_scan(params: ModelParams):
    """The penalty-free part of the rest-point scan, kept for the last economy.

    Returns the scan nodes on [1, solve_wage(1 - GRID_EDGE)] and, at every
    node, the two shares, the log-odds and delta_u, all read-only.  A
    penalty-weight sweep moves none of them, so its steps after the first
    reuse them.
    """
    nodes, a, b = _wage_nodes(solve_wage(1.0 - GRID_EDGE, params), GRID_POINTS // 2 + 1,
                              params)
    if b[-1] == 0.0:
        # Within about 1e-10 of phi = 1, w**sigma can round past 1/phi at the
        # last nodes, clipping their b to 0 (share 1, log-odds inf); b falls
        # in w, so the scan is laid again up to the last node before them.
        nodes, a, b = _wage_nodes(nodes[np.count_nonzero(b) - 1], GRID_POINTS // 2 + 1, params)
    terms = _wage_terms(nodes, a, b, params)
    for arr in (nodes, *terms):
        arr.setflags(write=False)
    return (nodes, *terms)


@functools.lru_cache(maxsize=4)
def _edge_delta_u(h: float, params: ModelParams) -> float:
    """delta_u at a fixed probe share next to the boundary, kept for the
    last few: every step of a penalty-weight sweep probes the same shares."""
    return delta_u(h, params)


def _edge_incentive(h: float, params: ModelParams, spec: PenaltySpec) -> float:
    """delta_V at a boundary probe share, its utility gap from the cache."""
    return _edge_delta_u(h, params) - delta_t(h, spec)


def _grid_roots(f, x: np.ndarray, fx: np.ndarray, xtol: float) -> list[float]:
    """Roots of f along an ordered grid x with values fx = f(x), in grid order.

    A node where fx is exactly zero is a root as it stands; a cell whose end
    values have opposite signs gets one bracketed root find to ``xtol``.
    """
    zero = fx == 0.0
    change = np.append(fx[:-1] * fx[1:] < 0.0, False)
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


def _boundary_equilibria(params: ModelParams, spec: PenaltySpec) -> list[Equilibrium]:
    """Endpoint rest points, admissible only under a bounded penalty.

    h = 1 is at rest when no one wants to leave the crowded region, i.e.
    delta_V(1) >= 0; within MARGINAL_BAND of zero it is marginal.  The
    mirror point h = 0 follows by antisymmetry.
    """
    if not spec.bounded:
        return []
    v_full = _edge_incentive(1.0, params, spec)
    if v_full < -MARGINAL_BAND:
        return []
    stability = MARGINAL if abs(v_full) <= MARGINAL_BAND else STABLE
    step = FD_STEP
    slope_full = (v_full - _edge_incentive(1.0 - step, params, spec)) / step
    lo, hi = params.wage_bracket
    return [
        Equilibrium(h_star=0.0, w=lo, kind=KIND_BOUNDARY, stability=stability,
                    slope=slope_full, residual=abs(v_full)),
        Equilibrium(h_star=1.0, w=hi, kind=KIND_BOUNDARY, stability=stability,
                    slope=slope_full, residual=abs(v_full)),
    ]


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
        if f(lo) * value <= 0.0:
            return brentq(f, lo, hi, xtol=1e-15, maxiter=200)
        hi = lo
    return None


def _locate(params: ModelParams, spec: PenaltySpec, slope: float) -> _Located:
    """The locate phase of :func:`find_equilibria`: everything but the finish.

    ``slope`` is delta_V's slope at 1/2 (:func:`_symmetric_slope`); it
    decides whether the first scan cell is searched.
    """
    nodes, h, g, log_odds, du = _upper_scan(params)
    values = du - _penalty_gap(h, g, log_odds, spec)

    roots: list[tuple[float, float]] = []
    f = lambda x: float(_delta_V_wage(x, params, spec))
    # The node at w = 1 is the symmetric point, zero by antisymmetry.
    wages = _grid_roots(f, nodes[1:], values[1:], 1e-15)
    if abs(slope) >= MARGINAL_BAND and slope * values[1] < 0.0:
        w = _first_cell_root(f, float(nodes[1]), float(values[1]))
        if w is not None:
            wages.append(w)
    for w in wages:
        _add_root(roots, float(_share_raw(w, params)), w)

    pinned: list[Equilibrium] = []
    if not spec.bounded and values[-1] > 0.0:
        # The net incentive still presses outward at the window edge, so the
        # outermost rest point lies between 1 - GRID_EDGE and 1.  Chase it
        # through the last representable shares; if even the closest double
        # to 1 still flows outward, the rest point is below the resolution
        # of the floating-point grid and is reported pinned at the boundary.
        f_h = lambda x: float(delta_V(x, params, spec))
        h_last = float(np.nextafter(1.0, 0.0))
        v_last = _edge_incentive(h_last, params, spec)
        if v_last <= 0.0:
            r = h_last if v_last == 0.0 else brentq(f_h, 1.0 - GRID_EDGE, h_last,
                                                     xtol=1e-16, maxiter=200)
            _add_root(roots, r, solve_wage(r, params))
        else:
            lo_w, hi_w = params.wage_bracket
            pinned = [
                Equilibrium(h_star=0.0, w=lo_w, kind=KIND_BOUNDARY, stability=STABLE,
                            slope=float("-inf"), residual=v_last),
                Equilibrium(h_star=1.0, w=hi_w, kind=KIND_BOUNDARY, stability=STABLE,
                            slope=float("-inf"), residual=v_last),
            ]
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
    where delta_V is a closed form in w; the scan nodes are placed so that
    no two neighbouring shares lie further apart than on a uniform grid of
    GRID_POINTS // 2 + 1 shares, and each root is reported at the share
    h* = h(w*) of its polished wage.  The asymmetric roots are mirrored
    across 1/2 and admissible boundary points appended.  Roots closer
    together than the scan resolution (about 1/GRID_POINTS) can be missed.

    The work splits into a locate phase (scan, brackets, polish, and the
    first-cell, near-boundary, pinned and boundary checks) and a finish
    phase: the symmetric point, every root and every mirror get |delta_V|
    and its central-FD slope at h* +- min(FD_STEP, ...) from a single
    delta_V call on all those shares.  The sign-change test is blind in
    the first scan cell, next to the symmetric root; a halving search
    looks there when delta_V's closed-form slope at 1/2,
    2 * dispersion_slope - delta_t_prime(1/2), is not marginal and has the
    opposite sign to delta_V at the first node.  This is the one-economy
    case of :func:`sweep`, which finishes all its steps in one such call.  The scan's nodes,
    shares and utility gap depend on the economy alone and are kept for
    the most recent one, so calls that change only the penalty, such as
    the steps of a mu-sweep, scan once.

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
    if not (sigma > 1.0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be a finite number > 1, got {sigma}")
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
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
    if not (mu >= 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
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
    there.  Every step runs the locate phase on its own, on the same scan
    of GRID_POINTS resolution, handed the same closed-form symmetric slope
    find_equilibria computes; mu-steps share one economy, whose scan and
    boundary probes are kept and reused.  Then the finish phase takes all
    the steps together: the symmetric point, roots and mirrors of every
    step get |delta_V| and its slope from one delta_V call, each share at
    its own step's freeness or penalty weight.  A step whose locate or
    finish raises is recorded in ``diagnostics`` with the text
    find_equilibria would raise, and the other steps keep their rest
    points.  With workers > 1 the steps are
    split into one contiguous run per worker process, and each worker
    finishes its run at once; the results do not depend on the split.

    Pitchforks of the symmetric point sit where that slope changes sign.
    It is evaluated once per step, on a mu-sweep in one array expression,
    on a phi-sweep as one scalar per step with the penalty slope taken
    once; each sign change between neighbouring steps is polished by a
    bracketed root find on the scalar form, and each pitchfork is
    classified via :func:`pitchfork_criticality`.  The slope needs no
    rest-point scan, so a step whose scan fails hides no pitchfork next to
    it.

    Parallel runs (workers > 1) require a picklable penalty spec; the
    named families always are, custom callables must live at module level.
    """
    if parameter not in ("phi", "mu"):
        raise ValueError(f"unknown sweep parameter {parameter!r}; use 'phi' or 'mu'")
    if steps < 2:
        raise ValueError(f"a sweep needs at least 2 steps, got {steps}")
    if not lo < hi:
        raise ValueError(f"sweep range must satisfy min < max, got [{lo}, {hi}]")
    if parameter == "phi" and not (0.0 < lo and hi < 1.0):
        raise ValueError(f"phi sweep range must stay inside (0, 1), got [{lo}, {hi}]")
    if parameter == "mu" and lo < 0.0:
        raise ValueError(f"mu sweep range must be non-negative, got [{lo}, {hi}]")
    if parameter == "mu" and spec.kind not in (LOGIT, LINEAR):
        raise ValueError("mu sweeps require a named penalty family")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    values = np.linspace(lo, hi, steps)
    # each step's symmetric slope, the float _symmetric_slope gives there
    if parameter == "phi":
        penalty_slope = delta_t_prime(0.5, spec)
        slopes = np.array([2.0 * dispersion_slope(params, phi=v) - penalty_slope
                           for v in values.tolist()])
    else:
        slopes = 2.0 * dispersion_slope(params) - delta_t_prime(0.5, spec, mu=values)
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
    symmetric_slope = lambda p: _symmetric_slope(*_with_parameter(parameter, p, params, spec))
    bifurcations = [pitchfork_criticality(parameter, p, params, spec)
                    for p in _grid_roots(symmetric_slope, values, slopes, 1e-12)]
    return Branch(parameter=parameter, samples=samples,
                  bifurcations=bifurcations, diagnostics=diagnostics)
