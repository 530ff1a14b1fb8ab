"""Output checks that do not rely on bytes.

Each op is checked by a route independent of the one that produced it:
root residuals and slopes from :mod:`oracle`, round trips through the
inverse map, pitchforks against the threshold functions, and, for the
reference ops, values at a tolerance against a reference generated once.
Byte identity against the reference is measured, not required.

Every check returns a list of failure messages; empty means the op passed.
"""

from __future__ import annotations

import hashlib
import json
import math

import oracle
import workloads
from oracle import close

# Every interior rest point must have delta_V change sign within ROOT_WIDTH
# of it (a backward error in h, which stays meaningful where the penalty's
# slope diverges and for shares read back from 12-digit CSV), or delta_V
# must vanish to ROOT_ABS there.
ROOT_WIDTH = 2e-11
ROOT_ABS = 1e-13
# Finite-difference and located-threshold agreement.
FD_RTOL = 1e-6
# Reference comparison tolerances (relative, absolute).
REF_TOL = {"sweeps": (1e-6, 1e-9), "point_eval": (1e-9, 1e-12), "artifacts": (1e-6, 1e-9)}
# Rows of a large CSV checked against the oracle.
MAX_CHECKED_ROWS = 128


def _root_errors(eqs: list[dict], sigma, phi, theta, kind, mu, where: str) -> list[str]:
    errs = []
    hs = [e["h"] for e in eqs]
    if hs != sorted(hs):
        errs.append(f"{where}: rest points not sorted")
    if not any(e["kind"] == "symmetric_dispersion" and e["h"] == 0.5 for e in eqs):
        errs.append(f"{where}: symmetric rest point missing")
    partial = [e for e in eqs if e["kind"] == "partial_agglomeration"]
    for e in eqs:
        if e["kind"] == "boundary_agglomeration":
            continue
        h = e["h"]
        v = [oracle.delta_v(x, sigma, phi, theta, kind, mu)
             for x in (max(h - ROOT_WIDTH, 0.0), h, min(h + ROOT_WIDTH, 1.0))]
        if not (v[0] * v[2] <= 0.0 or min(map(abs, v)) <= ROOT_ABS):
            errs.append(f"{where}: delta_V keeps its sign around h = {h!r}: {v}")
        if e["kind"] == "partial_agglomeration" and not any(
                abs(f["h"] - (1.0 - e["h"])) <= 1e-11 and f["stability"] == e["stability"]
                for f in partial):
            errs.append(f"{where}: no mirror for h = {e['h']!r}")
    boundary = sorted(e["h"] for e in eqs if e["kind"] == "boundary_agglomeration")
    if boundary and boundary != [0.0, 1.0]:
        errs.append(f"{where}: boundary rest points {boundary}")
    return errs


def check_sweep(spec: dict, out: dict, geoeq) -> list[str]:
    errs = [f"diagnostic: {d}" for d in out["diagnostics"][:3]]
    param, kind = spec["parameter"], spec["penalty"]
    for value, eqs in out["samples"]:
        phi = value if param == "phi" else spec["phi"]
        mu = value if param == "mu" else spec["mu"]
        if eqs:
            errs += _root_errors(eqs, spec["sigma"], phi, spec["theta"], kind, mu,
                                 f"{param}={value!r}")
    params = geoeq.model.ModelParams(sigma=spec["sigma"], phi=spec["phi"], theta=spec["theta"])
    scale = 1.0 if kind == "logit" else 2.0
    if param == "mu":
        targets = [scale * geoeq.equilibria.dispersion_threshold(params)]
    else:
        targets = geoeq.equilibria.threshold_phi_crossings(params, spec["mu"] / scale)
    for value, _, _ in out["bifurcations"]:
        if not any(close(value, t, FD_RTOL, 1e-9) for t in targets):
            errs.append(f"pitchfork at {param}={value!r} matches none of {targets}")
    return errs


def check_point(spec: dict, value, geoeq) -> list[str]:
    fn = spec["fn"]
    s, p, th = spec["sigma"], spec["phi"], spec["theta"]
    x = spec.get("x")
    lo, hi = oracle.bracket(s, p)
    if fn == "solve_wage":
        params = geoeq.model.ModelParams(sigma=s, phi=p, theta=th)
        back = geoeq.model.wage_share(value, params)
        ok = abs(back - x) <= 4e-12
        expect = f"wage_share(w) = {back!r} for h = {x!r}"
    elif fn == "wage_share":
        want = oracle.share(x, s, p)
        ok, expect = close(value, want, 0.0, 1e-12), f"share {want!r}"
    elif fn == "delta_u":
        want = oracle.delta_u(x, s, p, th)
        ok, expect = close(value, want, 1e-9, 1e-12), f"oracle {want!r}"
    elif fn == "ddelta_u_dh":
        want = oracle.slope(lambda h: oracle.delta_u(h, s, p, th), x, 1e-4)
        ok, expect = close(value, want, FD_RTOL, 1e-9), f"central FD {want!r}"
    elif fn == "ddelta_u_dphi":
        want = oracle.slope(lambda q: oracle.delta_u(x, s, q, th), p, 1e-4 * min(p, 1.0 - p))
        ok, expect = close(value, want, FD_RTOL, 1e-9), f"central FD {want!r}"
    elif fn == "stability_coefficients":
        # The bundle must assemble into both utility slopes; compare each with a FD.
        w = oracle.wage(x, s, p)
        big_x = w ** s
        core = (1.0 - p * p) * w / (big_x * big_x - (w + 1.0) * p * big_x + w)
        kappa, e = (1.0 - th) / (s - 1.0), (th + s - 2.0) / (s - 1.0)
        dh = value["zeta"] * (value["varphi"] * w ** (s * kappa) + value["psi"] / w) * core ** kappa
        dphi = -(w / value["a3"]) * (value["a1"] * (core * big_x) ** (-e)
                                     + value["a2"] * core ** (-e))
        want_dh = oracle.slope(lambda h: oracle.delta_u(h, s, p, th), x, 1e-4)
        want_dphi = oracle.slope(lambda q: oracle.delta_u(x, s, q, th), p, 1e-4 * min(p, 1.0 - p))
        ok = close(dh, want_dh, FD_RTOL, 1e-9) and close(dphi, want_dphi, FD_RTOL, 1e-9)
        expect = f"slopes {want_dh!r} in h and {want_dphi!r} in phi, got {dh!r} and {dphi!r}"
    elif fn in ("dw_dh", "dw_dphi"):
        dh_dw = oracle.slope(lambda w: oracle.share(w, s, p), x, 1e-4 * (hi - lo))
        if fn == "dw_dh":
            want = 1.0 / dh_dw
        else:
            want = -oracle.slope(lambda q: oracle.share(x, s, q), p, 1e-4 * min(p, 1.0 - p)) / dh_dw
        ok, expect = close(value, want, FD_RTOL, 1e-9), f"implicit FD {want!r}"
    elif fn == "delta_t":
        want = oracle.delta_t(x, spec["penalty"], spec["mu"])
        ok, expect = close(value, want, 1e-12, 1e-14), f"t(h) - t(1-h) = {want!r}"
    elif fn == "delta_t_prime":
        want = oracle.slope(lambda h: oracle.delta_t(h, spec["penalty"], spec["mu"]), x, 1e-4 * min(x, 1 - x))
        ok, expect = close(value, want, FD_RTOL, 1e-9), f"central FD {want!r}"
    elif fn == "mu_p":
        cap = oracle.mu_d(s, p)
        ok, expect = 0.0 <= value <= cap * (1.0 + 1e-12), f"within [0, mu_d = {cap!r}]"
    elif fn == "dispersion_threshold":
        want = oracle.threshold(s, p, th)
        ok, expect = close(value, want, FD_RTOL, 1e-12), f"FD slope at 1/2 over 4 = {want!r}"
    elif fn == "phi_b":
        mu = spec["mu"]
        if value is None:
            ok, expect = mu >= (1.0 - 1e-9) / (s - 1.0), "a crossing inside (0, 1)"
        else:
            got = oracle.threshold(s, value, 1.0)
            ok, expect = close(got, mu, FD_RTOL, 1e-12), f"log-utility threshold {got!r} = mu"
    else:
        return [f"unknown function {fn}"]
    return [] if ok else [f"{fn}({x!r}) = {value!r}, expected {expect}"]


# ---------------------------------------------------------------------------
# Artifacts


def _stride(rows: list) -> list:
    step = max(1, len(rows) // MAX_CHECKED_ROWS)
    return rows[::step] + rows[-1:]


def _column(csv: dict, name: str) -> list:
    i = csv["header"].index(name)
    return [r[i] for r in csv["rows"]]


def _check_shortrun(csv: dict, doc: dict) -> list[str]:
    m = doc["config"]["effective_model"]
    s, p = m["sigma"], m["phi"]
    errs = []
    if len(csv["rows"]) != doc["results"]["grid_points"]:
        errs.append("row count differs from grid_points")
    for h, w, p_l, p_r, c_l, c_r, n_l, n_r in _stride(csv["rows"]):
        if abs(oracle.share(w, s, p) - h) > 1e-9:
            errs.append(f"share(w={w!r}) != h={h!r}")
        local = h * w ** (1.0 - s)
        want_l = (local + (1.0 - h) * p) ** (1.0 / (1.0 - s))
        want_r = (p * local + (1.0 - h)) ** (1.0 / (1.0 - s))
        if not (close(p_l, want_l, 1e-9, 1e-12) and close(p_r, want_r, 1e-9, 1e-12)
                and close(c_l, w / p_l, 1e-10, 1e-12) and close(c_r, 1.0 / p_r, 1e-10, 1e-12)
                and close(n_l, h, 1e-10, 1e-12) and close(n_r, 1.0 - h, 1e-10, 1e-12)):
            errs.append(f"market-clearing row at h={h!r} inconsistent")
    return errs


def _eq_rows(rows: list, header: list) -> list[dict]:
    ix = {k: header.index(k) for k in ("h_star", "kind", "stability")}
    return [{"h": r[ix["h_star"]], "kind": r[ix["kind"]], "stability": r[ix["stability"]]}
            for r in rows]


def _check_equilibria(csv: dict, doc: dict) -> list[str]:
    m, pen = doc["config"]["effective_model"], doc["config"]["effective_penalty"]
    errs = _root_errors(_eq_rows(csv["rows"], csv["header"]), m["sigma"], m["phi"],
                        m["theta"], pen["kind"], pen["mu"], "equilibria")
    if doc["results"]["count"] != len(csv["rows"]):
        errs.append("JSON count differs from CSV rows")
    return errs


def _check_thresholds(csv: dict, doc: dict) -> list[str]:
    row = dict(zip(csv["header"], csv["rows"][0]))
    s, p, th, mu = row["sigma"], row["phi"], row["theta"], row["mu"]
    errs = []
    want = oracle.threshold(s, p, th)
    if not close(row["dispersion_threshold"], want, FD_RTOL, 1e-12):
        errs.append(f"dispersion_threshold {row['dispersion_threshold']!r} != FD {want!r}")
    want = oracle.threshold(s, p, 1.0)
    if not close(row["mu_d"], want, FD_RTOL, 1e-12):
        errs.append(f"mu_d {row['mu_d']!r} != log-utility FD {want!r}")
    for key, theta in (("phi_b", 1.0), ("phi_crossing_detected", th)):
        if row[key] != "":
            got = oracle.threshold(s, row[key], theta)
            if not close(got, mu, FD_RTOL, 1e-12):
                errs.append(f"{key} {row[key]!r}: threshold there is {got!r}, not mu {mu!r}")
    return errs


def _check_fig1(csv: dict, doc: dict) -> list[str]:
    errs = []
    for phi in doc["config"]["phi_values"]:
        col = _column(csv, f"w_phi_{phi:g}")
        for h, w in _stride(list(zip(_column(csv, "h"), col))):
            if abs(oracle.share(w, doc["config"]["sigma"], phi) - h) > 1e-9:
                errs.append(f"phi={phi}: share(w={w!r}) != h={h!r}")
    return errs


def _check_delta_u_columns(csv: dict, name, sigma, phi, theta) -> list[str]:
    hs = _column(csv, "h")
    col = _column(csv, name)
    for h, du in _stride(list(zip(hs, col))):
        want = oracle.delta_u(h, sigma, phi, theta)
        if not close(du, want, 1e-9, 1e-11):
            return [f"{name} at h={h!r}: {du!r} != oracle {want!r}"]
    return []


def _check_fig2(csv: dict, doc: dict) -> list[str]:
    cfg = doc["config"]
    errs = []
    for th in cfg["theta_values"]:
        name = f"delta_u_theta_{th:g}"
        errs += _check_delta_u_columns(csv, name, cfg["sigma"], cfg["phi"], th)
        col = _column(csv, name)
        if max(abs(a + b) for a, b in zip(col, reversed(col))) > 1e-10:
            errs.append(f"{name} not antisymmetric")
    return errs


def _check_fig5(csv: dict, doc: dict) -> list[str]:
    cfg = doc["config"]
    errs = []
    for phi in cfg["phi_values"]:
        errs += _check_delta_u_columns(csv, f"delta_u_phi_{phi:g}", cfg["sigma"], phi,
                                       cfg["theta"])
        eqs = [{"h": e["h_star"], "kind": e["kind"], "stability": e["stability"]}
               for e in doc["results"]["equilibria"][f"phi_{phi:g}"]]
        errs += _root_errors(eqs, cfg["sigma"], phi, cfg["theta"], "logit", cfg["mu"],
                             f"phi={phi:g}")
    for h, dt in _stride(list(zip(_column(csv, "h"), _column(csv, "delta_t")))):
        if not close(dt, oracle.delta_t(h, "logit", cfg["mu"]), 1e-10, 1e-12):
            errs.append(f"delta_t at h={h!r}")
    return errs


def _check_fig6(csv: dict, doc: dict) -> list[str]:
    res = doc["results"]
    m, pen = doc["config"]["effective_model"], doc["config"]["effective_penalty"]
    s, th = m["sigma"], m["theta"]
    errs = [f"diagnostic: {d}" for d in res["diagnostics"][:3]]
    if not res["bifurcations"]:
        errs.append("no pitchfork located")
    for b in res["bifurcations"]:
        if res["parameter"] == "mu":
            ok = close(b["value"], oracle.threshold(s, m["phi"], th), FD_RTOL, 1e-9)
        else:
            ok = close(oracle.threshold(s, b["value"], th), pen["mu"], FD_RTOL, 1e-9)
        if not ok:
            errs.append(f"pitchfork at {b['value']!r} is not at the threshold")
    by_value: dict[float, list[dict]] = {}
    for value, h, stability, kind in csv["rows"]:
        by_value.setdefault(value, []).append(
            {"h": h, "kind": kind, "stability": stability})
    for value, eqs in by_value.items():
        phi = value if res["parameter"] == "phi" else m["phi"]
        mu = value if res["parameter"] == "mu" else pen["mu"]
        errs += _root_errors(eqs, s, phi, th, pen["kind"], mu, f"{res['parameter']}={value!r}")
    return errs


_ARTIFACT_CHECKS = {
    "shortrun": _check_shortrun, "equilibria": _check_equilibria,
    "thresholds": _check_thresholds, "fig1": _check_fig1, "fig2": _check_fig2,
    "fig5": _check_fig5, "fig6-left": _check_fig6, "fig6-right": _check_fig6,
}


def check_artifact(spec: dict, out: dict, geoeq=None) -> list[str]:
    if out["exit"] != 0:
        return [f"exit code {out['exit']}: {out['stderr'].strip()[:200]}"]
    files = out["files"]
    missing = [ext for ext in ("csv", "json", "svg") if ext not in files]
    if missing:
        return [f"missing {', '.join(missing)} output"]
    if not files["svg"]["ok"]:
        return ["SVG is not a complete document"]
    name = workloads.artifact_name(spec["argv"])
    return _ARTIFACT_CHECKS[name](files["csv"], files["json"]["doc"])


CHECKS = {"sweeps": check_sweep, "point_eval": check_point, "artifacts": check_artifact}


# ---------------------------------------------------------------------------
# Reference


def compact(workload: str, out):
    """The part of an op's output the reference keeps and compares."""
    if workload != "artifacts":
        return out
    files = out["files"]
    kept = {"exit": out["exit"]}
    if "csv" in files:
        rows = files["csv"]["rows"]
        kept["csv"] = {"header": files["csv"]["header"], "nrows": len(rows),
                       "sample": _stride(rows)}
    if "json" in files:
        kept["json"] = files["json"]["doc"]["results"]
    return kept


def digests(workload: str, out) -> list[str]:
    """Byte fingerprints: the CSV and JSON files, or the canonical JSON of the value."""
    if workload == "artifacts":
        return [out["files"][ext]["sha256"] for ext in ("csv", "json") if ext in out["files"]]
    text = json.dumps(out, sort_keys=True)
    return [hashlib.sha256(text.encode()).hexdigest()]


def compare(ref, got, rtol: float, atol: float, path: str = "") -> list[str]:
    """Structural equality with floats compared at a tolerance."""
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return [] if close(float(got), ref, rtol, atol) else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [e for k in ref for e in compare(ref[k], got[k], rtol, atol, f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, (list, tuple)):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [e for i, (a, b) in enumerate(zip(ref, got))
                for e in compare(a, b, rtol, atol, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


def same(a, b) -> bool:
    """Exact equality that treats NaN as equal to itself."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b
