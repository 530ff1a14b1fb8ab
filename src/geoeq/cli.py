"""Command-line entry points.

Five subcommands: ``shortrun`` (market-clearing tables at fixed h),
``equilibria`` (rest points of the migration dynamics), ``thresholds``
(closed-form and detected stability thresholds), ``sweep`` (equilibrium
branches along phi or mu), and ``figure`` (canonical figure artifacts).

Options resolve as flags > config file (``--config``, JSON, each value
parsed as its flag) > built-in defaults.  Results land in ``--out`` as
CSV (12 significant digits), JSON (config echo, results, shadow-check
report), and SVG, selected via ``--format``.  Exit codes: 0 success,
2 configuration error, 3 solver failure, 4 i/o failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .equilibria import (
    GRID_EDGE,
    Branch,
    delta_V,
    dispersion_threshold,
    find_equilibria,
    mu_d,
    mu_p,
    phi_b,
    sweep,
    threshold_phi_crossings,
)
from .model import (
    ModelParams,
    SingularityError,
    SolverError,
    firm_counts,
    price_indices,
    solve_wage,
    wage_share,
)
from .output import PALETTE, Series, branch_chart, line_chart, write_csv, write_json
from .penalty import LOGIT, PenaltySpec, delta_t, delta_t_prime
from .welfare import ddelta_u_dh, delta_u, dispersion_slope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser],
                            set[str]]:
    """The ``geoeq`` parser, the parser of each subcommand, by name, and the
    names of the positional arguments, which only the command line sets.

    Every option declares its type, choices and default here, once, in the
    order the JSON config echo lists it: model, penalty, command, output.
    """
    parser = argparse.ArgumentParser(
        prog="geoeq",
        description="Equilibrium toolkit for a two-region economy with "
                    "mobile, location-attached consumers.",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with option defaults; flags win")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    commands = {}

    def add_model(sp):
        sp.add_argument("--sigma", type=float, help="elasticity of substitution (> 1)")
        sp.add_argument("--phi", type=float, help="freeness of trade in (0, 1)")
        sp.add_argument("--tau", type=float, help="iceberg trade cost (> 1); alternative to --phi")
        sp.add_argument("--theta", type=float, default=1.0,
                        help="utility curvature (default %(default)s)")

    def add_penalty(sp):
        sp.add_argument("--penalty", choices=("logit", "linear"), default="logit",
                        help="congestion-penalty family (default %(default)s)")
        sp.add_argument("--mu", type=float, default=0.2,
                        help="penalty weight (default %(default)s)")

    def add_output(sp, formats="csv,json"):
        sp.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default %(default)s)")
        sp.add_argument("--format", metavar="LIST", default=formats,
                        help="comma-separated subset of csv,json,svg (default %(default)s)")

    sp = commands["shortrun"] = sub.add_parser(
        "shortrun", help="market-clearing wages, prices and consumption over a grid of shares")
    add_model(sp)
    sp.add_argument("--grid", type=int, default=512, help="grid points (default %(default)s)")
    add_output(sp)

    sp = commands["equilibria"] = sub.add_parser(
        "equilibria", help="rest points of the migration dynamics")
    add_model(sp)
    add_penalty(sp)
    add_output(sp)

    sp = commands["thresholds"] = sub.add_parser(
        "thresholds", help="stability thresholds of the symmetric point")
    add_model(sp)
    sp.add_argument("--mu", type=float, help="penalty weight to invert for the "
                                             "freeness threshold")
    add_output(sp)

    sp = commands["sweep"] = sub.add_parser("sweep", help="trace equilibria along phi or mu")
    add_model(sp)
    add_penalty(sp)
    sp.add_argument("--param", choices=("phi", "mu"), help="parameter to sweep")
    sp.add_argument("--min", type=float, help="lower end of the sweep range")
    sp.add_argument("--max", type=float, help="upper end of the sweep range")
    sp.add_argument("--steps", type=int, default=101, help="sweep samples (default %(default)s)")
    add_output(sp)

    sp = commands["figure"] = sub.add_parser(
        "figure", help="emit a canonical figure as data + rendering")
    positionals = {sp.add_argument("name", choices=FIGURES, help="which figure to produce").dest}
    sp.add_argument("--grid", type=int, help="override the share-grid density")
    sp.add_argument("--steps", type=int, help="override the sweep step count")
    add_output(sp, formats="csv,json,svg")

    return parser, commands, positionals


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def parse_options(argv=None) -> dict:
    """The options of one run, resolved as flags > config file > defaults.

    Config values become string defaults of the chosen subcommand for a second
    parse, so argparse converts or rejects each as it would its flag.  A JSON
    null leaves its option unset.  A positional argument is not a config key.
    """
    parser, commands, positionals = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        config = _load_config(args.config)
        unknown = sorted(set(config) - (set(vars(args)) - {"command", "config"} - positionals))
        if unknown:
            raise ValueError(
                f"unknown config keys for {args.command}: {', '.join(unknown)}")
        commands[args.command].set_defaults(
            **{key: str(value) for key, value in config.items() if value is not None})
        args = parser.parse_args(argv)
    opts = vars(args)
    del opts["config"]
    return opts


def _params_from(opts: dict) -> ModelParams:
    if opts["sigma"] is None:
        raise ValueError("--sigma is required (or set sigma in the config file)")
    return ModelParams(sigma=opts["sigma"], phi=opts["phi"], tau=opts["tau"],
                       theta=opts["theta"])


def _formats_from(opts: dict) -> list[str]:
    raw = [f.strip() for f in str(opts["format"]).split(",") if f.strip()]
    bad = sorted(set(raw) - {"csv", "json", "svg"})
    if bad:
        raise ValueError(f"unknown output formats: {', '.join(bad)}")
    if not raw:
        raise ValueError("--format must name at least one of csv, json, svg")
    return [f for f in ("csv", "json", "svg") if f in raw]


def _echo(opts: dict, params: ModelParams | None = None,
          spec: PenaltySpec | None = None) -> dict:
    echo = {k: v for k, v in opts.items() if k != "command"}
    if params is not None:
        echo["effective_model"] = {f.name: getattr(params, f.name)
                                   for f in dataclasses.fields(params)}
    if spec is not None:
        echo["effective_penalty"] = {"kind": spec.kind, "mu": spec.mu}
    return echo


def _emit(opts: dict, name: str, *, header=None, columns=None, document=None,
          svg=None) -> list[Path]:
    formats = _formats_from(opts)
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats and columns is not None:
        path = out / f"{name}.csv"
        write_csv(path, header, columns)
        written.append(path)
    if "json" in formats and document is not None:
        path = out / f"{name}.json"
        write_json(path, document)
        written.append(path)
    if "svg" in formats and svg is not None:
        path = out / f"{name}.svg"
        path.write_text(svg, encoding="utf-8", newline="\n")
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return written


def _sign_change_count(values: np.ndarray) -> int:
    signs = np.sign(values)
    signs = signs[signs != 0.0]
    return int(np.sum(signs[1:] * signs[:-1] < 0.0))


# ---------------------------------------------------------------------------
# Commands


def run_shortrun(opts: dict) -> int:
    params = _params_from(opts)
    grid = opts["grid"]
    if grid < 2:
        raise ValueError(f"--grid must be at least 2, got {grid}")
    h = np.linspace(0.0, 1.0, grid)
    w = solve_wage(h, params)
    P_L, P_R = price_indices(h, w, params)
    C_L, C_R = w / P_L, 1.0 / P_R
    n_L, n_R = firm_counts(h, params)

    lo, hi = params.wage_bracket
    shadow = {
        "roundtrip_max_err": float(np.max(np.abs(wage_share(w, params) - h))),
        "reciprocal_max_err": float(np.max(np.abs(w * w[::-1] - 1.0))),
        "wage_monotone": bool(np.all(np.diff(w) > 0.0)),
        "endpoint_err": {
            "empty": abs(solve_wage(0.0, params) - lo),
            "half": abs(solve_wage(0.5, params) - 1.0),
            "full": abs(solve_wage(1.0, params) - hi),
        },
    }
    doc = {
        "command": "shortrun",
        "config": _echo(opts, params),
        "results": {"wage_bracket": [lo, hi], "grid_points": grid},
        "shadow_checks": shadow,
    }
    svg = line_chart(
        "Market clearing at a fixed spatial distribution",
        "resident share of region L", "level",
        [Series("relative wage", h, w, PALETTE[0]),
         Series("price index L", h, P_L, PALETTE[1]),
         Series("price index R", h, P_R, PALETTE[2])],
    )
    _emit(opts, "shortrun", header=["h", "w", "P_L", "P_R", "C_L", "C_R", "n_L", "n_R"],
          columns=[h, w, P_L, P_R, C_L, C_R, n_L, n_R], document=doc, svg=svg)
    print(f"wage bracket [{lo:.12g}, {hi:.12g}] over {grid} grid points")
    return EXIT_OK


def run_equilibria(opts: dict) -> int:
    params = _params_from(opts)
    spec = PenaltySpec(kind=opts["penalty"], mu=opts["mu"])
    eqs = find_equilibria(params, spec)

    checks = []
    for eq in eqs:
        if eq.kind == "boundary_agglomeration" or not 0.0 < eq.h_star < 1.0:
            continue
        closed = ddelta_u_dh(eq.h_star, params) - delta_t_prime(eq.h_star, spec)
        checks.append({"h_star": eq.h_star, "fd_slope": eq.slope,
                       "closed_form_slope": closed,
                       "abs_gap": abs(closed - eq.slope)})
    slope_half, display = ddelta_u_dh(0.5, params), dispersion_slope(params)
    convention = {
        "utility_slope_at_half": slope_half,
        "symmetric_display_form": display,
        # the display form underflows to 0 when ((1+phi)/2)**kappa does
        "ratio": slope_half / display if display != 0.0 else math.nan,
    }
    doc = {
        "command": "equilibria",
        "config": _echo(opts, params, spec),
        "results": {"equilibria": eqs, "count": len(eqs)},
        "shadow_checks": {"slope_cross_checks": checks,
                          "symmetric_slope_convention": convention},
    }

    h_grid = np.linspace(GRID_EDGE, 1.0 - GRID_EDGE, 513)
    with np.errstate(divide="ignore"):
        v_grid = np.asarray(delta_V(h_grid, params, spec), dtype=float)
    svg = line_chart(
        "Net migration incentive and its rest points",
        "resident share of region L", "net incentive toward L",
        [Series("incentive", h_grid, v_grid, PALETTE[0])],
        annotations=[(eq.h_star, 0.0, eq.stability) for eq in eqs],
    )
    header = ["h_star", "w", "kind", "stability", "slope", "residual"]
    _emit(opts, "equilibria", header=header,
          columns=[[getattr(eq, field) for eq in eqs] for field in header],
          document=doc, svg=svg)

    print(f"{'h_star':>12}  {'w':>12}  {'kind':<24}{'stability':<10}"
          f"{'slope':>14}  {'residual':>10}")
    for eq in eqs:
        print(f"{eq.h_star:12.9f}  {eq.w:12.9f}  {eq.kind:<24}{eq.stability:<10}"
              f"{eq.slope:14.6g}  {eq.residual:10.3e}")
    return EXIT_OK


def run_thresholds(opts: dict) -> int:
    params = _params_from(opts)
    sigma, phi = params.sigma, params.phi
    closed_mu_d = mu_d(sigma, phi)
    adjusted = dispersion_threshold(params)
    slope_display = dispersion_slope(params)
    slope_true = ddelta_u_dh(0.5, params)
    detected_mu = 0.25 * slope_true
    unit_wage_mu_p = mu_p(1.0, sigma, phi)

    results = {
        "mu_d": closed_mu_d,
        "dispersion_threshold": adjusted,
        "dispersion_slope_display": slope_display,
        "utility_slope_at_half": slope_true,
        "mu_pitchfork_detected": detected_mu,
        "mu_p_at_unit_wage": unit_wage_mu_p,
    }
    mu = opts["mu"]
    closed_phi_b, crossings = None, []
    if mu is not None:
        closed_phi_b = phi_b(sigma, mu)
        crossings = threshold_phi_crossings(params, mu)
        results |= {"mu": mu, "phi_b": closed_phi_b, "phi_crossings_detected": crossings}
    shadow = {
        "mu_p_matches_mu_d_at_unit_wage": abs(unit_wage_mu_p - closed_mu_d),
        "detected_vs_adjusted": abs(detected_mu - adjusted),
        "detected_vs_mu_d": abs(detected_mu - closed_mu_d),
    }
    doc = {
        "command": "thresholds",
        "config": _echo(opts, params),
        "results": results,
        "shadow_checks": shadow,
    }

    phis = np.linspace(0.01, 0.99, 197)
    curve = dispersion_threshold(params, phi=phis)
    series = [Series("stability threshold", phis, curve, PALETTE[0])]
    if mu is not None:
        series.append(Series(f"mu = {mu:g}", [0.01, 0.99], [mu, mu], PALETTE[1],
                             dash="6,4"))
    svg = line_chart("Where the symmetric point changes stability",
                     "freeness of trade", "penalty weight", series,
                     annotations=[(c, mu, "crossing") for c in crossings]
                     if mu is not None else None)

    header = ["sigma", "phi", "theta", "mu", "mu_d", "dispersion_threshold",
              "dispersion_slope_display", "mu_pitchfork_detected", "phi_b",
              "phi_crossing_detected"]
    row = [sigma, phi, params.theta, "" if mu is None else mu, closed_mu_d,
           adjusted, slope_display, detected_mu,
           "" if closed_phi_b is None else closed_phi_b,
           "" if not crossings else crossings[0]]
    _emit(opts, "thresholds", header=header, columns=[[c] for c in row], document=doc, svg=svg)

    print(f"mu_d = {closed_mu_d:.12g}")
    print(f"curvature-adjusted threshold = {adjusted:.12g} "
          f"(detected {detected_mu:.12g})")
    if mu is not None:
        print(f"phi_b = {closed_phi_b!r}, detected crossings = "
              f"{[f'{c:.12g}' for c in crossings]}")
    return EXIT_OK


def _threshold_report(branch: Branch, params: ModelParams,
                      spec: PenaltySpec) -> dict:
    """Which closed-form threshold convention the detected pitchforks match."""
    candidates: dict[str, float | None] = {}
    if branch.parameter == "mu":
        if spec.kind == LOGIT:
            candidates["curvature_adjusted"] = dispersion_threshold(params)
            candidates["closed_form"] = mu_d(params.sigma, params.phi)
            candidates["closed_form_halved"] = 0.5 * mu_d(params.sigma, params.phi)
        else:
            candidates["curvature_adjusted"] = 2.0 * dispersion_threshold(params)
    else:
        # the linear penalty's slope at 1/2 is 2 mu, half the logit's 4 mu
        crossings = threshold_phi_crossings(params, spec.mu if spec.kind == LOGIT
                                            else 0.5 * spec.mu)
        candidates["curvature_adjusted"] = crossings[0] if crossings else None
        if spec.kind == LOGIT:
            candidates["closed_form"] = phi_b(params.sigma, spec.mu)
    matches = []
    for b in branch.bifurcations:
        best_name, best_gap = "none", float("inf")
        for name, value in candidates.items():
            if value is None:
                continue
            gap = abs(b.value - value)
            if gap < best_gap:
                best_name, best_gap = name, gap
        matches.append({
            "detected": b.value,
            "criticality": b.criticality,
            "matched": best_name if best_gap <= 1e-6 else "none",
            "gap": best_gap if math.isfinite(best_gap) else None,
        })
    return {"candidates": candidates, "matches": matches}


def _run_branch(opts: dict, name: str, parameter: str, lo: float, hi: float,
                steps: int, params: ModelParams, spec: PenaltySpec,
                title: str, x_label: str) -> Branch:
    branch = sweep(parameter, lo, hi, steps, params, spec)
    rows = [(value, eq.h_star, eq.stability, eq.kind)
            for value, eqs in branch.samples for eq in eqs]
    doc = {
        "command": opts["command"],
        "config": _echo(opts, params, spec),
        "results": {
            "parameter": parameter,
            "range": [lo, hi],
            "steps": steps,
            "bifurcations": branch.bifurcations,
            "equilibrium_rows": len(rows),
            "diagnostics": branch.diagnostics,
        },
        "shadow_checks": {"threshold_match": _threshold_report(branch, params, spec)},
    }
    svg = branch_chart(branch, title, x_label)
    _emit(opts, name, header=["parameter", "h_star", "stability", "kind"],
          columns=list(zip(*rows)), document=doc, svg=svg)
    for b in branch.bifurcations:
        print(f"pitchfork at {parameter} = {b.value:.12g} ({b.criticality}, "
              f"third derivative {b.third_derivative:.6g})")
    if not branch.bifurcations:
        print(f"no pitchfork of the symmetric point inside [{lo:g}, {hi:g}]")
    for line in branch.diagnostics:
        print(f"diagnostic: {line}", file=sys.stderr)
    return branch


def run_sweep(opts: dict) -> int:
    parameter = opts["param"]
    if parameter is None:
        raise ValueError("--param is required (phi or mu)")
    if opts["min"] is None or opts["max"] is None:
        raise ValueError("--min and --max are required")
    if parameter == "phi" and opts["phi"] is None and opts["tau"] is None:
        # the swept parameter replaces the base value at every step anyway
        opts = dict(opts, phi=0.5)
    params = _params_from(opts)
    spec = PenaltySpec(kind=opts["penalty"], mu=opts["mu"])
    label = "freeness of trade" if parameter == "phi" else "penalty weight"
    _run_branch(opts, "sweep", parameter, opts["min"], opts["max"], opts["steps"],
                params, spec, "Equilibrium branches", label)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Figures


def _share_figure(opts: dict, name: str, h: np.ndarray, columns: dict, series: list,
                  shadow: dict, config: dict, results: dict, title: str,
                  y_label: str) -> None:
    """Emit a figure drawn over the resident share h.

    The CSV holds h and ``columns`` (header -> values at h); the JSON
    echoes the options with ``config`` and the grid size, and adds
    ``results`` after the column list; the SVG draws ``series``.
    """
    header = ["h", *columns]
    doc = {
        "command": "figure",
        "config": _echo(opts) | config | {"grid": h.size},
        "results": {"columns": header, "grid_points": h.size} | results,
        "shadow_checks": shadow,
    }
    svg = line_chart(title, "resident share of region L", y_label, series)
    _emit(opts, name, header=header, columns=[h, *columns.values()], document=doc, svg=svg)


def _figure_fig1(opts: dict) -> None:
    sigma = 2.0
    phis = (0.1, 0.5, 0.7)
    h = np.linspace(0.0, 1.0, opts["grid"] or 513)
    columns, series, shadow = {}, [], {}
    for i, phi in enumerate(phis):
        w = np.asarray(solve_wage(h, ModelParams(sigma=sigma, phi=phi)))
        columns[f"w_phi_{phi:g}"] = w
        series.append(Series(f"freeness {phi:g}", h, w, PALETTE[i]))
        shadow[f"reciprocal_max_err_phi_{phi:g}"] = float(
            np.max(np.abs(w * w[::-1] - 1.0)))
        shadow[f"monotone_phi_{phi:g}"] = bool(np.all(np.diff(w) > 0.0))
    _share_figure(opts, "fig1", h, columns, series, shadow,
                  {"sigma": sigma, "phi_values": list(phis)}, {},
                  "Market-clearing relative wage", "relative wage")


def _figure_fig2(opts: dict) -> None:
    sigma, phi = 2.0, 0.5
    thetas = (0.0, 1.0, 2.0)
    h = np.linspace(0.0, 1.0, opts["grid"] or 513)
    columns, series, shadow = {}, [], {}
    for i, theta in enumerate(thetas):
        du = np.asarray(delta_u(h, ModelParams(sigma=sigma, phi=phi, theta=theta)))
        columns[f"delta_u_theta_{theta:g}"] = du
        series.append(Series(f"curvature {theta:g}", h, du, PALETTE[i]))
        shadow[f"antisymmetry_max_err_theta_{theta:g}"] = float(
            np.max(np.abs(du + du[::-1])))
    at = int(0.8 * (h.size - 1))
    low, mid, high = (du[at] for du in columns.values())
    shadow["curvature_amplifies_at_0.8"] = bool(low < mid < high)
    _share_figure(opts, "fig2", h, columns, series, shadow,
                  {"sigma": sigma, "phi": phi, "theta_values": list(thetas)}, {},
                  "Utility advantage of the crowded region", "utility differential")


def _figure_fig5(opts: dict) -> None:
    sigma, theta, mu = 2.5, 0.0, 0.2
    phis = (0.3, 0.5, 0.9)
    spec = PenaltySpec(kind=LOGIT, mu=mu)
    h = np.linspace(0.01, 0.99, opts["grid"] or 513)
    dt = np.asarray(delta_t(h, spec))
    columns, series, shadow, eq_report = {}, [], {}, {}
    for i, phi in enumerate(phis):
        params = ModelParams(sigma=sigma, phi=phi, theta=theta)
        du = np.asarray(delta_u(h, params))
        columns[f"delta_u_phi_{phi:g}"] = du
        series.append(Series(f"freeness {phi:g}", h, du, PALETTE[i], dash="6,4"))
        shadow[f"net_sign_changes_phi_{phi:g}"] = _sign_change_count(du - dt)
        eq_report[f"phi_{phi:g}"] = find_equilibria(params, spec)
    columns["delta_t"] = dt
    series.append(Series(f"penalty differential (mu = {mu:g})", h, dt, "#111111", width=2.8))
    _share_figure(opts, "fig5", h, columns, series, shadow,
                  {"sigma": sigma, "theta": theta, "mu": mu, "phi_values": list(phis)},
                  {"equilibria": eq_report},
                  "Attraction against congestion", "utility differential")


def _figure_fig6(opts: dict, name: str, parameter: str, lo: float, hi: float, phi: float,
                 title: str, x_label: str) -> None:
    steps = opts["steps"] or 181
    params = ModelParams(sigma=2.0, phi=phi, theta=0.0)
    _run_branch(opts, name, parameter, lo, hi, steps, params, PenaltySpec(kind=LOGIT, mu=0.2),
                title, x_label)


# Figure name -> builder; the two fig6 panels are presets of one builder.
FIGURES = {
    "fig1": _figure_fig1,
    "fig2": _figure_fig2,
    "fig5": _figure_fig5,
    "fig6-left": functools.partial(
        _figure_fig6, name="fig6-left", parameter="mu", lo=0.0, hi=1.0, phi=0.4,
        title="Equilibria against the penalty weight", x_label="penalty weight"),
    "fig6-right": functools.partial(
        _figure_fig6, name="fig6-right", parameter="phi", lo=0.02, hi=0.98, phi=0.5,
        title="Equilibria against the freeness of trade", x_label="freeness of trade"),
}


def run_figure(opts: dict) -> int:
    FIGURES[opts["name"]](opts)
    return EXIT_OK


_COMMANDS = {
    "shortrun": run_shortrun,
    "equilibria": run_equilibria,
    "thresholds": run_thresholds,
    "sweep": run_sweep,
    "figure": run_figure,
}


def main(argv=None) -> int:
    try:
        opts = parse_options(argv)
        return _COMMANDS[opts["command"]](opts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SingularityError, ArithmeticError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
