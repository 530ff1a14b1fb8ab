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
without any wage solve.  A scan row is one economy's: one array wage
solve lays its nodes, the wages of evenly spaced shares, and its boundary
probes.  Its penalty-free part (nodes, shares, and the utility gap at the
nodes and probes) is laid once, so a penalty-weight sweep hands its
economy's dense row to every step.  A freeness sweep lays many steps'
sparse rows in two wage solves, each share at its step's freeness: every
32nd node (the coarse nodes), then the nodes of the coarse cells a read
rule (:func:`_read_cells`) reads; a step whose coarse row cannot vouch
for its nodes lays its own dense row.  A dense row brackets every sign
change it holds, a sparse row those of the cells it reads.  So a
penalty-weight step's sample is exactly find_equilibria's, and a freeness
step's is too wherever the rule reads every cell that holds a root
(:func:`find_equilibria` says when that can fail; no case is known).

Solving is split in two phases.  The locate phase runs per scan row,
over every step that shares it: a penalty-weight sweep locates all its
steps in one pass over its economy's row, and find_equilibria and each
freeness step pass one.  The steps' delta_V values (a row each), root
cells, first-cell flags and boundary checks are array expressions; the
polish, the first-cell search and the near-boundary chase run per step,
and every polish starts from the values the scan holds at its bracket
ends.  It is handed delta_V's closed-form slope at 1/2
(:func:`_symmetric_slope`, one expression for one economy or all the
steps of a sweep), which decides whether a rest point hides inside the
first scan cell.  The finish phase takes the located rest points of any
number of economies that differ only in freeness and penalty weight, and
computes |delta_V| and its central-FD slope for the symmetric point,
every root and every mirror in one delta_V call, each share at its own
economy's freeness and weight; a sweep's pitchforks add their
third-derivative stencils to the same call.  :func:`find_equilibria` is
the one-economy case; :func:`sweep` finishes all its steps at once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .model import (G_poly, ModelParams, SolverError, _elasticity, _share_terms, _solve_state,
                    _wage_state, brentq, solve_wage)
from .penalty import LINEAR, LOGIT, PenaltySpec, _finite_nonnegative, delta_t, delta_t_prime
from .welfare import _delta_u_at, _slopes, delta_u, dispersion_slope

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
    economy's value.
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


def _penalty_gap(h, g, log_odds, spec: PenaltySpec, mu=None):
    """delta_t at shares h, g = 1 - h whose log-odds ln(h/g) is given; ``mu``,
    if given, is the weight in place of ``spec.mu`` (named families only)."""
    weight = spec.mu if mu is None else mu
    if spec.kind == LOGIT:
        return weight * log_odds
    if spec.kind == LINEAR:
        return weight * (h - g)
    return delta_t(h, spec)


def _delta_V_wage(w, params: ModelParams, spec: PenaltySpec, mu=None, phi=None):
    """delta_V at the shares that wages w in [1, w_hi) support, with no wage
    solve; ``mu`` is as in :func:`_penalty_gap`, ``phi`` as in :func:`delta_V`."""
    _, a, b = _share_terms(w, params, phi)
    h, g, log_odds, ab = _wage_terms(a, b)
    return _delta_u_at(np.log(w), w, ab, params, phi) - _penalty_gap(h, g, log_odds, spec, mu)


# Boundary probe shares: one FD step inside the boundary, the last double
# below 1, and the boundary itself.
_PROBES = np.array([1.0 - FD_STEP, np.nextafter(1.0, 0.0), 1.0])

# The dense scan row: the wages of _NODES shares spread evenly over
# [1/2, 1 - GRID_EDGE], then the probes.
_NODES = GRID_POINTS // 2 + 1
_SHARES = np.append(np.linspace(0.5, 1.0 - GRID_EDGE, _NODES), _PROBES)

# A freeness sweep lays every _STRIDE-th dense node, the coarse row, and the
# dense nodes of only the coarse cells that the read rule reads
# (:func:`_read_cells`).  _COARSE indexes _SHARES: the coarse nodes, then
# the probes; _WIDTH is the coarse cells' share widths.
_STRIDE = 32
_COARSE = np.append(np.arange(0, _NODES, _STRIDE), np.arange(_NODES, _SHARES.size))
_WIDTH = np.diff(_SHARES[:_NODES:_STRIDE])

# A coarse cell whose wage rises by at most this many spacings of doubles
# can hold nodes that tie or swap (freeness near 1), which only the dense
# row's forward fill resolves: its step lays its dense row.  Past it, every
# dense node rose at least 64 spacings above its neighbour on 2,000 random
# economies, far beyond the wage solve's error of a spacing or two.
_RISE_ULPS = 64.0 * _STRIDE

# Freeness-sweep steps per lay, which bounds a lay's memory on long sweeps.
# A 181-step sweep took the same time laid 32 steps at a time as in one lay.
_LAY_STEPS = 32


def _upper_scan(params: ModelParams):
    """The penalty-free part of one economy's dense rest-point scan row.

    One wage solve lays the row: the wages of the _NODES shares spread
    evenly over [1/2, 1 - GRID_EDGE] are the nodes, and the same call
    solves the boundary probes (_PROBES).  Returns the nodes and, at every
    node, the two shares, the log-odds and delta_u, then delta_u at the
    probes, all read-only 1-D arrays.  A penalty weight moves none of them.

    Near phi = 1 neighbouring solved wages can tie or swap by a spacing of
    doubles, and w**sigma can round past 1/phi, which clips a node's b to 0
    (share 1, log-odds inf) at nodes that need not be contiguous.  So each
    node takes the wage and share terms of the last node up to it that
    holds the running maximum wage and has b > 0: the nodes are
    non-decreasing, and the first node, the symmetric point w = 1, has
    b = 1 - phi.  A tied cell brackets nothing, and the row keeps its
    _NODES nodes.
    """
    n = _NODES
    w, _, a, b = _solve_state(_SHARES, params)
    held = (w[:n] == np.maximum.accumulate(w[:n])) & (b[:n] > 0.0)
    if not held.all():  # the probes keep their wages
        keep = np.maximum.accumulate(np.where(held, np.arange(n), 0))
        for x in (w, a, b):
            x[:n] = x[keep]
    h, g, log_odds, _ = _wage_terms(a[:n], b[:n])
    du = _delta_u_at(np.log(w), w, a + b, params)
    scan = (w[:n], h, g, log_odds, du[:n], du[n:])
    for arr in scan:
        arr.setflags(write=False)
    return scan


def _read_cells(values, slopes, width):
    """The read rule: whether each cell between neighbouring coarse nodes is read.

    ``values`` and ``slopes`` hold delta_V and its slope in h at the nodes
    along the last axis; ``width`` is the cells' share widths.  A cell is
    read where delta_V changes sign or vanishes between its ends, or where
    delta_V may have an extremum inside it: the slope changes sign or
    vanishes between the ends, or the cubic Hermite interpolant through the
    ends' values and slopes changes sign inside.  A non-finite input reads
    the cell.  Elementwise, so a cell gets the same answer in any array.
    """
    v0, v1 = values[..., :-1], values[..., 1:]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m0, m1 = slopes[..., :-1] * width, slopes[..., 1:] * width
        # the interpolant v0 + m0 t + c2 t**2 + c3 t**3 on t in [0, 1]
        c2 = 3.0 * (v1 - v0) - 2.0 * m0 - m1
        c3 = 2.0 * (v0 - v1) + m0 + m1
        read = ~((np.sign(v0) * np.sign(v1) > 0.0) & (np.sign(m0) * np.sign(m1) > 0.0)
                 & np.isfinite(c2) & np.isfinite(c3))
        # its extrema, the roots of m0 + 2 c2 t + 3 c3 t**2, as the stable
        # pair q/(3 c3) and m0/q; no real root is a NaN, which reads nothing
        q = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * c3 * m0), c2))
        for t in (q / (3.0 * c3), m0 / q):
            p = v0 + t * (m0 + t * (c2 + t * c3))
            read |= (t > 0.0) & (t < 1.0) & ~(np.sign(p) == np.sign(v0))
    return read


def _sparse_rows(params: ModelParams, spec: PenaltySpec, phi) -> list:
    """Sparse scan rows of freeness-sweep steps, laid in two wage solves.

    The first solves every step's coarse row, the dense nodes 0, _STRIDE,
    2 _STRIDE, ... and the probes, at its freeness ``phi``; the read rule
    (:func:`_read_cells`) picks the coarse cells to read, and the second
    solves those cells' dense nodes, the first cell's always.  A step's row
    is its coarse nodes plus its read cells: each node carries the bits of
    the step's dense row (:func:`_upper_scan`), whose every share stops its
    own wage solve.  Returns per step its row, a tuple of read-only arrays
    as :func:`_upper_scan`'s, or None where the coarse row cannot show that
    the dense row's forward fill leaves the laid nodes alone (a node with
    b = 0, or a cell whose wage rises by at most _RISE_ULPS spacings of
    doubles): that step lays its dense row.
    """
    k = _NODES // _STRIDE + 1  # coarse nodes
    col = np.reshape(phi, (-1, 1))
    w, X, a, b = _solve_state(np.broadcast_to(_SHARES[_COARSE], (col.size, _COARSE.size)),
                              params, col)
    du = _delta_u_at(np.log(w), w, a + b, params, col)
    wk = w[:, :k]
    sparse = (np.all(b[:, :k] > 0.0, axis=1)
              & np.all(np.diff(wk, axis=1) > _RISE_ULPS * np.spacing(wk[:, 1:]), axis=1))
    steps = np.flatnonzero(sparse)
    w, X, a, b, du, col = (x[steps] for x in (w, X, a, b, du, col))
    probe_du = du[:, k:]
    w, X, a, b, du = (x[:, :k] for x in (w, X, a, b, du))
    h, g, log_odds, _ = _wage_terms(a, b)
    # delta_V and its closed-form slope in h (welfare._slopes' d(delta_u)/dh less the penalty's)
    read = _read_cells(du - _penalty_gap(h, g, log_odds, spec),
                       _slopes(w, X, a, b, params, col)[1] - delta_t_prime(h, spec), _WIDTH)
    read[:, 0] = True  # the first-cell search reads nodes[1]
    step, cell = np.nonzero(read)
    index = cell[:, None] * _STRIDE + np.arange(1, _STRIDE)
    w_in, _, a_in, b_in = _solve_state(_SHARES[index], params, col[step])
    du_in = _delta_u_at(np.log(w_in), w_in, a_in + b_in, params, col[step])
    # merge each step's coarse nodes and read cells in dense-node order
    order = np.argsort(np.append(np.arange(steps.size)[:, None] * _NODES + _COARSE[:k],
                                 step[:, None] * _NODES + index), kind="stable")
    w, a, b, du = (np.append(x, x_in)[order] for x, x_in in ((w, w_in), (a, a_in), (b, b_in),
                                                               (du, du_in)))
    h, g, log_odds, _ = _wage_terms(a, b)
    for arr in (w, h, g, log_odds, du, probe_du):
        arr.setflags(write=False)
    ends = [0, *np.cumsum(k + (_STRIDE - 1) * np.count_nonzero(read, axis=1)).tolist()]
    laid = zip(*([x[i:j] for i, j in zip(ends, ends[1:])] for x in (w, h, g, log_odds, du)),
               probe_du)
    return [next(laid) if s else None for s in sparse.tolist()]


def _root_cells(fx: np.ndarray, row: int = 0) -> np.ndarray:
    """Indices i into ordered grid values fx where fx[i] is exactly zero or
    fx changes sign between nodes i and i + 1.  ``row``, if given, is the
    length of each of the grids that fx holds one after another: their
    first nodes are passed over, so no cell spans two grids."""
    # signs, not a product of the values: it could underflow to 0 or overflow
    neg, pos, root = fx < 0.0, fx > 0.0, fx == 0.0
    if row:
        for x in (neg, pos, root):
            x[::row] = False
    root[:-1] |= (neg[:-1] & pos[1:]) | (pos[:-1] & neg[1:])
    return np.flatnonzero(root)


def _grid_roots(f, x: np.ndarray, fx: np.ndarray, xtol: float, cells=None) -> list[float]:
    """Roots of f along an ordered grid x with values fx = f(x), in grid order.

    A node where fx is exactly zero is a root as it stands; a cell whose end
    values have opposite signs gets one bracketed root find to ``xtol``,
    which starts from the end values fx holds: f at a node must give the
    node's value bit for bit.  ``cells``, if given, are the indices to take
    in place of every such node and cell (:func:`_root_cells`).
    """
    return [float(x[i]) if fx[i] == 0.0
            else float(brentq(f, float(x[i]), float(x[i + 1]), xtol=xtol, maxiter=200,
                              fa=fx[i], fb=fx[i + 1]))
            for i in (_root_cells(fx) if cells is None else cells)]


def _fd_shares(h):
    """Interior shares h followed by h + step and h - step, step = min(FD_STEP,
    h/2, (1-h)/2), for :func:`_incentive_and_slope`; and the steps."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    step = np.minimum(np.minimum(FD_STEP, 0.5 * h), 0.5 * (1.0 - h))
    return np.concatenate([h, h + step, h - step]), step


def _incentive_and_slope(v, step):
    """|delta_V| and its central-FD slope at the shares of :func:`_fd_shares`,
    from delta_V at its shares (``v``, which may run on) and its steps."""
    n = step.size
    return np.abs(v[:n]), (v[n:2 * n] - v[2 * n:3 * n]) / (2.0 * step)


def _per_share(values: list, counts: list[int], default: float | None):
    """Each value repeated for its economy's shares, or None if all equal ``default``."""
    if all(v == default for v in values):
        return None
    return np.repeat(values, counts)


def _bracket_ends(params: ModelParams, phi=None) -> tuple[float, float]:
    """The wage-bracket ends, at the freeness ``phi`` in place of ``params.phi``."""
    # as in ModelParams.wage_bracket
    lo = float(np.power(params.phi if phi is None else phi, 1.0 / params.sigma))
    return lo, 1.0 / lo


def _boundary_pair(ends: tuple[float, float], stability: str, slope: float,
                   residual: float) -> list[Equilibrium]:
    """The boundary rest points h = 0 and h = 1, at the wage-bracket ends:
    mirror images, so they share their stability, slope and residual."""
    return [Equilibrium(h_star=h_star, w=w, kind=KIND_BOUNDARY, stability=stability,
                        slope=slope, residual=residual)
            for h_star, w in zip((0.0, 1.0), ends)]


def _bounded(spec: PenaltySpec, mu=None) -> bool:
    """Whether the penalty stays finite at h = 1, at weight ``mu`` if given
    (named families only) in place of ``spec.mu``."""
    return spec.bounded if mu is None else spec.kind == LINEAR or mu == 0.0


def _boundary_equilibria(ends: tuple[float, float], v_step: float,
                         v_full: float) -> list[Equilibrium]:
    """Endpoint rest points of a bounded penalty, given the wage-bracket
    ends (:func:`_bracket_ends`) and delta_V at the probes 1 - FD_STEP
    (``v_step``) and 1 (``v_full``).

    h = 1 is at rest when no one wants to leave the crowded region, i.e.
    delta_V(1) >= 0; within MARGINAL_BAND of zero it is marginal.  The
    mirror point h = 0 follows by antisymmetry.
    """
    if v_full < -MARGINAL_BAND:
        return []
    stability = MARGINAL if abs(v_full) <= MARGINAL_BAND else STABLE
    return _boundary_pair(ends, stability, (v_full - v_step) / FD_STEP, abs(v_full))


@dataclass
class _Located:
    """One economy's rest points as the locate phase leaves them.

    ``phi`` and ``mu`` are the economy's freeness and penalty weight, in
    place of ``params.phi`` and ``spec.mu`` (see :func:`_locate`); ``roots``
    are the upper-half rest points (h*, w), not yet finished; ``edge`` the
    pinned or boundary rest points, final as they stand.
    """

    phi: float
    mu: float | None
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


def _symmetric_slope(params: ModelParams, spec: PenaltySpec, *, phi=None, mu=None):
    """delta_V's slope at h = 1/2 in closed form, at a freeness ``phi`` or a
    penalty weight ``mu`` (scalar or array) in place of the economy's.

    The utility slope there is exactly twice the display form
    :func:`geoeq.welfare.dispersion_slope`.
    """
    return 2.0 * dispersion_slope(params, phi=phi) - delta_t_prime(0.5, spec, mu=mu)


def _first_cell_root(f, hi: float, value: float) -> float | None:
    """The wage of a rest point inside the first scan cell [1, hi], or None.

    delta_V(1/2) = 0 by antisymmetry, so the sign-change test is blind in
    the first cell; the caller asks here when the symmetric slope's sign
    differs from ``value`` = f(hi), delta_V at the first node, i.e. the
    curve re-crosses inside the cell.  Halve toward w = 1 until f takes
    the slope's sign to bracket the root; a fixed probe right next to 1/2
    would read rounding noise.  The polish starts from the end values
    already in hand.
    """
    f_hi = value
    while (lo := 0.5 * (1.0 + hi)) > 1.0:
        f_lo = f(lo)
        if np.sign(f_lo) * value <= 0.0:  # not f(lo) * value: it can underflow to 0
            return brentq(f, lo, hi, xtol=1e-15, maxiter=200, fa=f_lo, fb=f_hi)
        hi, f_hi = lo, f_lo
    return None


def _locate(params: ModelParams, spec: PenaltySpec, slopes, scan, mu=None, phi=None) -> list:
    """The locate phase of :func:`find_equilibria` for steps that share one scan row.

    ``scan`` is the row (:func:`_upper_scan` or :func:`_sparse_rows`);
    ``slopes`` holds each step's delta_V slope at 1/2
    (:func:`_symmetric_slope`), which decides whether its first scan cell
    is searched.  ``mu``, if given, is each step's penalty weight in place
    of ``spec.mu`` (named families only); ``phi``, if given, the row's
    freeness in place of ``params.phi``.  So the steps of a sweep build no
    economy or penalty of their own, except for the chase past the scan
    edge.

    Every step's delta_V values (a row per step), root cells, first-cell
    flags and bounded-penalty boundary checks are each one array expression;
    every sign change of a row is bracketed.  Per step, the polish, the
    first-cell search, the chase and the edge points run.  Returns per step
    its :class:`_Located` or the exception that stopped it; an exception of
    the array part stops every step.
    """
    nodes, h, g, log_odds, du, probe_du = scan
    weights = [None] if mu is None else mu
    col = None if mu is None else np.reshape(mu, (-1, 1))
    try:
        values = np.reshape(du - _penalty_gap(h, g, log_odds, spec, col), (len(weights), -1))
        # The node at w = 1 is the symmetric point, zero by antisymmetry.
        n = values.shape[1]
        cells = [[] for _ in weights]
        for i in _root_cells(values.ravel(), n).tolist():
            cells[i // n].append(i % n)
        # the slope at 1/2 and delta_V at the first node differ in sign (not
        # their product, which can underflow to 0)
        first = [abs(s) >= MARGINAL_BAND and (s < 0.0 < v or v < 0.0 < s)
                 for s, v in zip(slopes, values[:, 1].tolist())]
        bounded = [k for k, m in enumerate(weights) if _bounded(spec, m)]
        edge = {}
        if bounded:  # delta_V at 1 - FD_STEP and 1
            v = probe_du[::2] - delta_t(_PROBES[::2], spec, mu=None if mu is None else col[bounded])
            ends = _bracket_ends(params, phi)
            edge = {k: _boundary_equilibria(ends, *vk)
                    for k, vk in zip(bounded, np.reshape(v, (-1, 2)).tolist())}
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return [exc] * len(weights)
    located = []
    for k, m in enumerate(weights):
        try:
            roots, pinned = _locate_step(params, spec, scan, values[k], cells[k], first[k], m, phi)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            located.append(exc)
            continue
        located.append(_Located(params.phi if phi is None else phi, spec.mu if m is None else m,
                                roots, [*pinned, *edge.get(k, ())]))
    return located


def _locate_step(params: ModelParams, spec: PenaltySpec, scan, values, cells: list[int],
                 first: bool, mu, phi):
    """One step of :func:`_locate`: its upper-half rest points (h*, w) and
    its pinned rest points, from its delta_V row ``values``, root cells and
    first-cell flag."""
    nodes, probe_du = scan[0], scan[5]
    f = lambda x: float(_delta_V_wage(x, params, spec, mu, phi))
    wages = _grid_roots(f, nodes, values, 1e-15, cells)
    if first:
        w = _first_cell_root(f, float(nodes[1]), float(values[1]))
        if w is not None:
            wages.append(w)
    roots: list[tuple[float, float]] = []
    for w in wages:
        _, a, b = _share_terms(w, params, phi)
        _add_root(roots, float(a / (a + b)), w)

    pinned: list[Equilibrium] = []
    if not _bounded(spec, mu) and values[-1] > 0.0:
        # The net incentive still presses outward at the window edge, so the
        # outermost rest point lies between 1 - GRID_EDGE and 1.  Chase it
        # through the last representable shares; if even the closest double
        # to 1 still flows outward, the rest point is below the resolution
        # of the floating-point grid and is reported pinned at the boundary.
        # The chase's many scalar calls take one economy at the freeness and
        # one penalty at the weight, not per-element values that each call
        # would check again.
        penalty = spec if mu is None else replace(spec, mu=mu)
        economy = params if phi is None else params.with_phi(phi)
        f_h = lambda x: float(delta_V(x, economy, penalty))
        h_last = float(_PROBES[1])
        v_last = float(probe_du[1] - delta_t(h_last, penalty))
        if v_last <= 0.0:
            r = h_last
            if v_last < 0.0:
                # the wage solve admits a few spacings of w, each moving h by
                # about eps/(1 - phi): the rest point can lie below 1 - GRID_EDGE
                lo = 1.0 - GRID_EDGE
                v_lo = f_h(lo)
                if v_lo < 0.0:
                    raise SolverError(
                        f"no bracket for the rest point past the scan edge: delta_V={v_lo:.3e} "
                        f"at h={lo!r}, at sigma={economy.sigma!r}, phi={economy.phi!r}, "
                        f"theta={economy.theta!r}, mu={penalty.mu!r}")
                r = brentq(f_h, lo, h_last, xtol=1e-16, maxiter=200, fa=v_lo)
            _add_root(roots, r, solve_wage(r, economy))
        else:
            pinned = _boundary_pair(_bracket_ends(economy), STABLE, float("-inf"), v_last)
    return roots, pinned


def _finish(params: ModelParams, spec: PenaltySpec, located: list[_Located],
            parameter: str | None = None, forks=()) -> tuple[list, list[BifurcationPoint]]:
    """The finish phase of :func:`find_equilibria` for any number of economies,
    and the classification of a sweep's pitchforks.

    The economies are alike but for freeness and penalty weight.  The
    symmetric point, every located root and every mirror of every economy
    get |delta_V| and the central-FD slope from one delta_V call, which
    also takes the third-derivative stencil of each pitchfork at the
    ``parameter`` values ``forks`` (:func:`pitchfork_criticality`), each
    share at its own economy's freeness and weight.  The residual check
    runs once over the batch; each economy's edge points are then added.
    Returns, per economy, its rest points sorted by location or the
    exception that stopped it, and the pitchforks.  If the call as a whole
    raises, every economy is finished on its own and every pitchfork
    classified by :func:`pitchfork_criticality`, so a failure carries the
    text that a one-economy call gives.
    """
    if not located and not forks:
        return [], []
    pairs = [[(0.5, 1.0), *_mirrored(loc.roots)] for loc in located]
    on_phi = parameter == "phi"
    try:
        shares, step = _fd_shares([h_star for p in pairs for h_star, _ in p])
        shares = np.concatenate([shares, np.tile(_STENCIL, len(forks))])
        phis = [loc.phi for loc in located] * 3 + [v if on_phi else params.phi for v in forks]
        mus = [loc.mu for loc in located] * 3 + [spec.mu if on_phi else v for v in forks]
        each = [len(p) for p in pairs] * 3 + [_STENCIL.size] * len(forks)
        v = delta_V(shares, params, spec, phi=_per_share(phis, each, params.phi),
                    mu=_per_share(mus, each, spec.mu))
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        if len(located) == 1 and not forks:
            return [exc], []
        return ([r for loc in located for r in _finish(params, spec, [loc])[0]],
                [pitchfork_criticality(parameter, value, params, spec) for value in forks])
    residual, slope = _incentive_and_slope(v, step)
    # Backward-error acceptance: near the boundary an unbounded penalty's
    # slope diverges like 1/(1-h), so |delta_V| at a root known to machine
    # precision in h grows with it.  Scaling by the local slope keeps the
    # criterion "h is right", not "delta_V is flat".
    bad = np.flatnonzero(residual > RESIDUAL_TOL * np.maximum(1.0, np.abs(slope))).tolist()
    residual, slope = residual.tolist(), slope.tolist()
    results = []
    end = 0
    for loc, p in zip(located, pairs):
        start, end = end, end + len(p)
        if bad and bad[0] < end:
            i = bad[0]
            results.append(SolverError(f"rest-point residual {residual[i]:.3e} exceeds "
                                       f"{RESIDUAL_TOL:.0e} at h={p[i - start][0]}"))
            bad = [j for j in bad if j >= end]
            continue
        found = [Equilibrium(h_star=h_star, w=w_star,
                             kind=KIND_DISPERSION if abs(h_star - 0.5) <= DISPERSION_TOL
                             else KIND_PARTIAL,
                             stability=_stability_from_slope(sl), slope=sl, residual=res)
                 for (h_star, w_star), sl, res in zip(p, slope[start:end], residual[start:end])]
        results.append(sorted(found + loc.edge, key=lambda e: e.h_star))
    stencils = v[3 * step.size:].tolist()
    return results, [_pitchfork(parameter, value, stencils[_STENCIL.size * j:])
                     for j, value in enumerate(forks)]


def find_equilibria(params: ModelParams, spec: PenaltySpec) -> list[Equilibrium]:
    """All rest points of the migration dynamics, sorted by location.

    Brackets sign changes of delta_V on a scan of the upper half
    [1/2, 1 - GRID_EDGE] and polishes each with a bracketed root find.
    Both run in the relative wage w on [1, solve_wage(1 - GRID_EDGE)],
    where delta_V is a closed form in w; the scan nodes are the wages of
    GRID_POINTS // 2 + 1 evenly spaced shares, from one wage solve, and
    each root is reported at the share h* = h(w*) of its polished wage.
    The asymmetric roots are mirrored across 1/2 and admissible boundary
    points appended.

    Every sign change of the dense row is bracketed, at the full
    resolution (about 1/GRID_POINTS), so a sweep's mu-step gets exactly
    this function's sample.  A phi-step brackets only inside the coarse
    cells (every 32nd node) that the read rule (:func:`_read_cells`) reads:
    where delta_V changes sign or vanishes between a cell's ends, or may
    have an extremum inside, by the closed-form slope changing sign between
    the ends or the cubic Hermite interpolant through the ends' values and
    slopes changing sign inside; the first cell is always read.  An unread
    cell's ends share a sign, so by Rolle's theorem it holds a pair of
    roots only if both tests miss an extremum there; no such cell is
    known, and elsewhere a phi-step's sample is this function's.

    Each polish starts from the scan's values at its bracket ends, which
    the closed form in w gives at the nodes bit for bit.  The locate and
    finish phases are the module docstring's; this is the one-economy
    case of :func:`sweep`.  The sign-change test is blind in
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
    the closest representable interior share.  Where 1 - GRID_EDGE does
    not bracket that rest point (freeness within about 1e-8 of 1), a
    SolverError names the economy.
    """
    located, = _locate(params, spec, [_symmetric_slope(params, spec)], _upper_scan(params))
    if isinstance(located, Exception):
        raise located
    (found,), _ = _finish(params, spec, [located])
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
    shares, step = _fd_shares(eq.h_star)
    _, slope = _incentive_and_slope(delta_V(shares, params, spec), step)
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
    params = ModelParams(sigma=sigma, phi=phi)
    X = _wage_state(w, params)[1]
    return float((2.0 * sigma - 1.0) * (X - phi) * (1.0 - X * phi)
                 / ((sigma - 1.0) * G_poly(X, params)))


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
    if parameter == "mu":  # a custom spec takes no weight: replace raises
        return params, replace(spec, mu=value)
    raise ValueError(f"unknown sweep parameter {parameter!r}; use 'phi' or 'mu'")


# The third-derivative stencil at 1/2: four shares at each of two steps,
# whose five-point central stencils are Richardson-extrapolated.
_STENCIL_STEPS = (CRITICALITY_STEP, 0.5 * CRITICALITY_STEP)
_STENCIL = np.array([0.5 + k * step for step in _STENCIL_STEPS for k in (-2.0, -1.0, 1.0, 2.0)])


def _pitchfork(parameter: str, value: float, v: list[float]) -> BifurcationPoint:
    """The pitchfork at a parameter value, classified from delta_V at the
    shares of _STENCIL, the first _STENCIL.size entries of ``v``."""
    coarse, fine = ((-v[i] + 2.0 * v[i + 1] - 2.0 * v[i + 2] + v[i + 3]) / (2.0 * step ** 3)
                    for i, step in zip((0, 4), _STENCIL_STEPS))
    third = (4.0 * fine - coarse) / 3.0
    if abs(third) < CRITICALITY_FLOOR:
        crit = INDETERMINATE
    elif third < 0.0:
        crit = SUPERCRITICAL
    else:
        crit = SUBCRITICAL
    return BifurcationPoint(parameter=parameter, value=float(value), kind="pitchfork",
                            criticality=crit, third_derivative=third)


def pitchfork_criticality(parameter: str, value: float, params: ModelParams,
                          spec: PenaltySpec) -> BifurcationPoint:
    """Classify the pitchfork at the symmetric point for a parameter value.

    The first and (by symmetry) second derivatives of delta_V vanish at
    the bifurcation, so the cubic term decides the geometry: negative
    means the new asymmetric branch is stable and emerges on the far side
    (supercritical); positive means it is unstable and bends backward
    (subcritical).  The third derivative comes from a Richardson-
    extrapolated five-point stencil, both steps' shares in one delta_V
    call; magnitudes below CRITICALITY_FLOOR are reported indeterminate.
    """
    p2, s2 = _with_parameter(parameter, value, params, spec)
    return _pitchfork(parameter, value, delta_V(_STENCIL, p2, s2).tolist())


def _locate_steps(parameter: str, values: list[float], slopes, params: ModelParams,
                  spec: PenaltySpec) -> list:
    """:func:`_locate` over a run of sweep steps: one :class:`_Located` or
    exception per step.

    A penalty-weight sweep locates all its steps on its economy's dense row
    in one call, and an exception from that row is every step's.  A
    freeness sweep lays _LAY_STEPS steps' sparse rows at a time
    (:func:`_sparse_rows`); a step without one, as every step of a lay that
    raises, lays its own dense row, so a failure keeps its step's text.
    """
    if parameter == "mu":
        try:
            scan = _upper_scan(params)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            return [exc] * len(values)
        return _locate(params, spec, slopes, scan, mu=values)
    located = []
    for start in range(0, len(values), _LAY_STEPS):
        block = values[start:start + _LAY_STEPS]
        try:
            rows = _sparse_rows(params, spec, block)
        except (ValueError, ArithmeticError, RuntimeError):
            rows = [None] * len(block)
        for value, slope, row in zip(block, slopes[start:start + _LAY_STEPS], rows):
            try:
                scan = row or _upper_scan(params.with_phi(value))
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                located.append(exc)
                continue
            located += _locate(params, spec, [slope], scan, phi=value)
    return located


def _sweep_chunk(job):
    """Locate a run of sweep steps, then finish them and classify the
    pitchforks ``forks`` in one call (:func:`_finish`).

    Returns (value, rest points, diagnostic or None) per step, and the
    pitchforks; module level so process pools can pickle it.
    """
    parameter, values, slopes, params, spec, forks = job
    steps = _locate_steps(parameter, values, slopes, params, spec)
    finished, bifurcations = _finish(params, spec, [s for s in steps
                                                    if not isinstance(s, Exception)],
                                     parameter, forks)
    finished = iter(finished)
    results = [s if isinstance(s, Exception) else next(finished) for s in steps]
    return [(value, [], f"{type(r).__name__}: {r}") if isinstance(r, Exception)
            else (value, r, None) for value, r in zip(values, results)], bifurcations


def sweep(parameter: str, lo: float, hi: float, steps: int, params: ModelParams,
          spec: PenaltySpec, *, workers: int = 1) -> Branch:
    """Trace the equilibrium set along one parameter.

    Every step is located from its own row of delta_V values, and the
    finish phase takes all steps in one delta_V call.  mu-steps share one
    economy's dense row and are located in one pass over it, a row of
    values per step; phi-steps lay sparse rows, many steps per wage solve
    (:func:`_sparse_rows`), and are located one by one, and a phi-step
    without a sparse row lays its own dense row.  A mu-step's sample is
    exactly what :func:`find_equilibria` returns there, and a phi-step's
    too wherever the read rule reads every cell that holds a root (see
    find_equilibria; no exception is known).  A step whose scan, locate or
    finish raises is recorded in ``diagnostics`` with the text
    find_equilibria would raise; the other steps keep their rest points.
    A serial sweep (workers = 1) runs on all its steps at once; with
    workers > 1 each worker process locates and finishes one contiguous
    run of steps; the results do not depend on the split.

    Pitchforks of the symmetric point sit where that slope changes sign.
    :func:`_symmetric_slope` gives it at all steps as one array, and each
    sign change between neighbouring steps is polished by a bracketed root
    find on the same expression at a float parameter, which gets the bits
    it would get inside the array, before any step is located.  The
    finish's delta_V call takes each pitchfork's stencil shares, at its own
    freeness or weight, and classifies it as :func:`pitchfork_criticality`
    does at its value; if that call raises, each pitchfork goes through
    pitchfork_criticality.  The slope needs no rest-point scan, so a step
    whose scan fails hides no pitchfork next to it; where the slope leaves
    the double range, the sweep raises SolverError.

    Parallel runs (workers > 1) require a picklable penalty spec; the
    named families always are, custom callables must live at module level.
    """
    for end in (lo, hi):  # the parameter's name, family and range
        _with_parameter(parameter, end, params, spec)
    try:
        steps, workers = operator.index(steps), operator.index(workers)
    except TypeError:
        raise ValueError(f"steps and workers must be integers, got {steps!r} and {workers!r}")
    if steps < 2:
        raise ValueError(f"a sweep needs at least 2 steps, got {steps}")
    if not lo < hi:
        raise ValueError(f"sweep range must satisfy min < max, got [{lo}, {hi}]")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    # the symmetric slope at parameter values v, without building the
    # economy or the penalty at v
    symmetric_slope = lambda v: _symmetric_slope(params, spec, **{parameter: v})
    values = np.linspace(lo, hi, steps)
    slopes = symmetric_slope(values)
    forks = _grid_roots(symmetric_slope, values, slopes, 1e-12)
    if workers == 1:
        results, bifurcations = _sweep_chunk((parameter, values.tolist(), slopes.tolist(), params,
                                              spec, forks))
    else:
        runs = min(workers, steps)
        # the first run classifies every pitchfork
        jobs = [(parameter, v.tolist(), sl.tolist(), params, spec, forks if i == 0 else [])
                for i, (v, sl) in enumerate(zip(np.array_split(values, runs),
                                                np.array_split(slopes, runs)))]
        # imported here, so that serial sweeps and CLI runs never load the pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_chunk, jobs))
        results = [r for run, _ in chunks for r in run]
        bifurcations = [b for _, run in chunks for b in run]
    samples = [(value, eqs) for value, eqs, _ in results]
    diagnostics = [f"{parameter}={value!r}: {error}"
                   for value, _, error in results if error is not None]
    return Branch(parameter=parameter, samples=samples,
                  bifurcations=bifurcations, diagnostics=diagnostics)
