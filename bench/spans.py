"""Spans around the calls into each geoeq module, from outside the program.

``Tracer.install`` replaces each wrapped function at every place geoeq
binds it (the defining module, the package namespace and every module that
imported it by name), plus ``scipy.optimize.brentq`` as bound in ``model``
and ``equilibria``; ``uninstall`` puts the originals back.  A span is
``[name, start_ns, end_ns, parent, op_id, attrs]`` and is recorded only
while an op is open, so checks run between ops stay out of the trace.

``layer_metrics`` derives every per-layer metric from the span list alone.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

# Which functions get a span, per module.  Private helpers and tiny inner
# functions (format_value, G_poly) stay inside their caller's self time.
WRAPPED = {
    "model": ("wage_share", "solve_wage", "price_indices", "consumption", "firm_counts",
              "short_run_state", "dw_dh", "dw_dphi"),
    "welfare": ("delta_u", "ddelta_u_dh", "ddelta_u_dh_closed", "stability_coefficients",
                "dispersion_slope", "ddelta_u_dphi"),
    "penalty": ("penalty", "delta_t", "delta_t_prime"),
    "equilibria": ("delta_V", "find_equilibria", "classify_stability", "mu_d", "mu_p",
                   "phi_b", "dispersion_threshold", "threshold_phi_crossings",
                   "pitchfork_criticality", "sweep"),
    "output": ("write_csv", "write_json", "line_chart", "branch_chart", "branch_segments"),
    "cli": ("main",),
}
BRENTQ_BINDINGS = ("model", "equilibria")
MODULES = ("model", "welfare", "penalty", "equilibria", "output", "cli")

# Functions whose array form gets its own span name and a point count.
_GRID_AWARE = {"model.solve_wage", "welfare.delta_u", "equilibria.delta_V"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0, 0, self.stack[-1] if self.stack else None, self.op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def wrap(self, name: str, fn):
        tracer = self
        grid_aware = name in _GRID_AWARE

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            label, attrs = name, None
            if grid_aware:
                n = np.size(args[0])
                label = f"{name}.grid" if np.ndim(args[0]) > 0 else f"{name}.scalar"
                attrs = {"points": n}
            rec = tracer._open(label)
            rec[5] = attrs
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                tracer.stack.pop()
            if name == "equilibria.find_equilibria":
                rec[5] = {"roots": sum(1 for e in result if e.kind == "partial_agglomeration"
                                       and e.h_star > 0.5)}
            elif name == "equilibria.sweep":
                rec[5] = {"steps": len(result.samples)}
            elif name in ("output.write_csv", "output.write_json"):
                rec[5] = {"bytes": os.path.getsize(args[0])}
            return result

        return traced

    def wrap_brentq(self, name: str, fn):
        tracer = self

        def traced(f, a, b, *args, **kwargs):
            if tracer.op_id is None:
                return fn(f, a, b, *args, **kwargs)
            count = [0]

            def counted(x, *fargs):
                count[0] += 1
                return f(x, *fargs)

            rec = tracer._open(name)
            rec[1] = time.perf_counter_ns()
            try:
                return fn(counted, a, b, *args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                tracer.stack.pop()
                rec[5] = {"fevals": count[0]}

        return traced

    # -- installation ----------------------------------------------------

    def install(self, geoeq) -> None:
        """Wrap; ``geoeq`` holds the package and each module under its short name."""
        namespaces = [geoeq.package] + [getattr(geoeq, m) for m in MODULES]
        for mod_name, names in WRAPPED.items():
            module = getattr(geoeq, mod_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        for mod_name in BRENTQ_BINDINGS:
            module = getattr(geoeq, mod_name)
            self._saved.append((module, "brentq", module.brentq))
            module.brentq = self.wrap_brentq(f"{mod_name}.brentq", module.brentq)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id, "attrs": attrs}) + "\n")


# ---------------------------------------------------------------------------
# Arithmetic on the span list


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, *_), kids in zip(spans, children):
        covered, reach = 0, start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def _ancestor_flags(spans: list[list], names: set[str]) -> list[bool]:
    """Whether each span has an ancestor named in ``names`` (parents precede children)."""
    flags = []
    for _, _, _, parent, _, _ in spans:
        flags.append(parent is not None and (flags[parent] or spans[parent][0] in names))
    return flags


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics and, for ratios with nothing to divide by, why they are absent."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    wall_ns: dict[str, int] = {}
    attr: dict[str, int] = {}
    for (name, start, end, parent, _, attrs), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + s
        wall_ns[name] = wall_ns.get(name, 0) + (end - start)
        for k, v in (attrs or {}).items():
            attr[f"{name}.{k}"] = attr.get(f"{name}.{k}", 0) + v

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def selfs(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e9

    def a(key):
        return attr.get(key, 0)

    thresholds = {f"equilibria.{n}" for n in ("mu_d", "mu_p", "phi_b", "dispersion_threshold",
                                              "threshold_phi_crossings")}
    in_threshold = _ancestor_flags(spans, thresholds)
    threshold_wall = sum(end - start for (name, start, end, *_), inside
                         in zip(spans, in_threshold) if name in thresholds and not inside)
    polish = [rec for rec in spans
              if rec[0] == "equilibria.brentq" and rec[3] is not None
              and spans[rec[3]][0] == "equilibria.find_equilibria"]
    in_sweep = _ancestor_flags(spans, {"equilibria.sweep"})
    sweep_wage_solves = sum(1 for rec, inside in zip(spans, in_sweep)
                            if inside and rec[0].startswith("model.solve_wage."))

    m = {
        "model.solve_wage.grid_calls": c("model.solve_wage.grid"),
        "model.solve_wage.grid_points": a("model.solve_wage.grid.points"),
        "model.solve_wage.grid_self_s": selfs("model.solve_wage.grid"),
        "model.solve_wage.scalar_calls": c("model.solve_wage.scalar"),
        "model.solve_wage.scalar_self_s": selfs("model.solve_wage.scalar"),
        "model.brentq.calls": c("model.brentq"),
        "model.brentq.fevals": a("model.brentq.fevals"),
        "model.derivs.self_s": selfs("model.dw_dh", "model.dw_dphi", "model.price_indices",
                                     "model.wage_share"),
        "welfare.delta_u.scalar_calls": c("welfare.delta_u.scalar"),
        "welfare.delta_u.grid_points": a("welfare.delta_u.grid.points"),
        "welfare.delta_u.self_s": selfs("welfare.delta_u.scalar", "welfare.delta_u.grid"),
        "welfare.ddelta_u_dh.calls": c("welfare.ddelta_u_dh"),
        "welfare.ddelta_u_dh.self_s": selfs("welfare.ddelta_u_dh"),
        "welfare.closed_forms.self_s": selfs("welfare.ddelta_u_dh_closed",
                                             "welfare.stability_coefficients",
                                             "welfare.ddelta_u_dphi", "welfare.dispersion_slope"),
        "penalty.calls": c("penalty.penalty", "penalty.delta_t", "penalty.delta_t_prime"),
        "penalty.self_s": selfs("penalty.penalty", "penalty.delta_t", "penalty.delta_t_prime"),
        "equilibria.find_equilibria.calls": c("equilibria.find_equilibria"),
        "equilibria.find_equilibria.self_s": selfs("equilibria.find_equilibria"),
        "equilibria.find_equilibria.wall_s": wall_ns.get("equilibria.find_equilibria", 0) / 1e9,
        "equilibria.delta_V.scalar_calls": c("equilibria.delta_V.scalar"),
        "equilibria.delta_V.grid_points": a("equilibria.delta_V.grid.points"),
        "equilibria.brentq.calls": c("equilibria.brentq"),
        "equilibria.brentq.fevals": a("equilibria.brentq.fevals"),
        "equilibria.pitchfork_criticality.wall_s":
            wall_ns.get("equilibria.pitchfork_criticality", 0) / 1e9,
        "equilibria.sweep.self_s": selfs("equilibria.sweep"),
        "equilibria.thresholds.wall_s": threshold_wall / 1e9,
        "output.csv.bytes": a("output.write_csv.bytes"),
        "output.csv.self_s": selfs("output.write_csv"),
        "output.json.bytes": a("output.write_json.bytes"),
        "output.json.self_s": selfs("output.write_json"),
        "output.svg.self_s": selfs("output.line_chart", "output.branch_chart",
                                   "output.branch_segments"),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": selfs("cli.main"),
    }
    absent: dict[str, str] = {}
    roots = a("equilibria.find_equilibria.roots")
    if roots:
        m["equilibria.fevals_per_root"] = sum(r[5]["fevals"] for r in polish) / roots
    else:
        m["equilibria.fevals_per_root"] = 0.0
        absent["equilibria.fevals_per_root"] = "no asymmetric interior root was reported"
    steps = a("equilibria.sweep.steps")
    if steps:
        m["equilibria.wage_solves_per_step"] = sweep_wage_solves / steps
    else:
        m["equilibria.wage_solves_per_step"] = 0.0
        absent["equilibria.wage_solves_per_step"] = "no sweep ran"
    return m, absent
