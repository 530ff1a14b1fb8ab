"""Seeded inputs and executors for the three benchmark workloads.

An op is a JSON-able dict (its spec).  ``generate`` turns a seed into an
endless stream of specs; ``prepare`` turns one spec into a zero-argument
call into geoeq plus a normaliser that maps the call's result to plain
data, which the checks, the reference and the traced/untraced comparison
all read.  geoeq functions are looked up on their modules at call time, so
the tracing wrappers see every call.

Ops come in shuffled blocks with a fixed composition, and the seed draws
the economies inside them.  That keeps the op-cost mix, and with it
throughput and the percentiles, the same from seed to seed while the inputs
differ.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import oracle

WORKLOADS = ("sweeps", "point_eval", "artifacts")

THETAS = (0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0)
PENALTIES = ("logit", "linear")

# Per parameter: one 8-step, two 12-step and one 16-step sweep.  The median
# then falls in the middle of the 12-step ops and p90 among the 16-step ones,
# away from the cost jumps between step counts.
SWEEP_BLOCK = [(p, s) for p in ("phi", "mu") for s in (8, 12, 12, 16)]

# Composition sets the percentiles.  Ten ops of at most ~40 us fill 10/24 of
# a block and the five interior wage solves the next 5/24, so the median
# falls inside the wage solves; the four FD-verified slopes are the costliest
# 4/24, so p90 falls inside them.
POINT_BLOCK = (
    ["phi_b", "dispersion_threshold", "mu_p", "dw_dh", "dw_dphi", "delta_t",
     "delta_t_prime", "wage_share"] + ["solve_wage_edge"] * 2 + ["solve_wage"] * 5
    + ["delta_u"] * 3 + ["ddelta_u_dphi", "stability_coefficients"] + ["ddelta_u_dh"] * 4
)

# Output directory of CLI ops, relative to the run's scratch directory.
OUT_DIR = "out"

# Four ops of 10-20 ms, then two fig5 (the median falls between them, on a
# fixed input), then the fig6 sweeps and two 4096-point shortruns (p90 falls
# between those).
ARTIFACT_BLOCK = ["equilibria", "thresholds", "fig1", "fig2", "fig5", "fig5",
                  "fig6-left", "fig6-right", "shortrun", "shortrun"]
FIG6_STEPS = "11"
SHORTRUN_GRID = "4096"

# The first untimed op of each workload, also what a fresh interpreter runs
# when set-up time is measured.
WARM_OPS = {
    "sweeps": {"parameter": "phi", "lo": 0.5, "hi": 0.9, "steps": 12, "sigma": 2.0,
               "phi": 0.5, "theta": 0.0, "penalty": "logit", "mu": 0.2},
    "point_eval": {"fn": "ddelta_u_dh", "sigma": 2.5, "phi": 0.3, "theta": 0.0, "x": 0.7},
    "artifacts": {"argv": ["figure", "fig1"]},
}


def _star(sigma: float, phi: float, theta: float, kind: str) -> float:
    """Penalty weight where h = 1/2 turns; the linear family's slope is 2 mu, not 4 mu."""
    mu = oracle.threshold_closed(sigma, phi, theta)
    return mu if kind == "logit" else 2.0 * mu


def _economy(rng: random.Random) -> dict:
    return {"sigma": rng.uniform(1.05, 4.0), "theta": rng.choice(THETAS)}


def _sweep_spec(rng: random.Random, parameter: str, steps: int) -> dict:
    spec = _economy(rng)
    spec.update(parameter=parameter, steps=steps, penalty=rng.choice(PENALTIES))
    if parameter == "mu":
        spec["phi"] = rng.uniform(0.1, 0.9)
        star = _star(spec["sigma"], spec["phi"], spec["theta"], spec["penalty"])
        r = rng.random()
        lo = 0.0 if r < 0.25 else 1e-3 * star if r < 0.5 else rng.uniform(0.2, 0.7) * star
        spec.update(mu=star, lo=lo, hi=rng.uniform(1.3, 2.0) * star)
    else:
        phi_star = rng.uniform(0.15, 0.85)
        spec.update(phi=phi_star,
                    mu=_star(spec["sigma"], phi_star, spec["theta"], spec["penalty"]),
                    lo=max(0.01, phi_star - rng.uniform(0.1, 0.3)),
                    hi=min(0.99, phi_star + rng.uniform(0.1, 0.3)))
    return spec


def _interior_wage(rng: random.Random, sigma: float, phi: float) -> float:
    lo, hi = oracle.bracket(sigma, phi)
    return lo + (hi - lo) * rng.uniform(0.05, 0.95)


def _point_spec(rng: random.Random, kind: str) -> dict:
    spec = _economy(rng)
    spec["phi"] = rng.uniform(0.05, 0.95)
    if kind == "solve_wage_edge":
        k = rng.randint(1, 4)
        spec.update(fn="solve_wage", x=rng.choice(
            (0.0, 0.5, 1.0, k * 5e-324, 1.0 - k * 2.0 ** -53)))
        return spec
    spec["fn"] = kind
    if kind in ("solve_wage", "delta_u", "ddelta_u_dh"):
        spec["x"] = rng.uniform(0.05, 0.95)
    elif kind in ("ddelta_u_dphi", "stability_coefficients"):
        spec["x"] = rng.uniform(0.55, 0.95)
    elif kind in ("wage_share", "dw_dh", "dw_dphi", "mu_p"):
        spec["x"] = _interior_wage(rng, spec["sigma"], spec["phi"])
    elif kind in ("delta_t", "delta_t_prime"):
        spec.update(x=rng.uniform(0.02, 0.98), penalty=rng.choice(PENALTIES),
                    mu=rng.uniform(0.01, 1.0))
    elif kind == "phi_b":
        spec["mu"] = rng.uniform(0.02, 1.5 / (spec["sigma"] - 1.0))
    return spec


def _artifact_spec(rng: random.Random, kind: str) -> dict:
    if kind in ("fig1", "fig2", "fig5"):
        return {"argv": ["figure", kind]}
    if kind.startswith("fig6"):
        return {"argv": ["figure", kind, "--steps", FIG6_STEPS]}
    e = _economy(rng)
    phi = rng.uniform(0.05, 0.95)
    model = ["--sigma", repr(e["sigma"]), "--phi", repr(phi), "--theta", repr(e["theta"])]
    if kind == "shortrun":
        return {"argv": ["shortrun", *model, "--grid", SHORTRUN_GRID]}
    if kind == "equilibria":
        penalty = rng.choice(PENALTIES)
        mu = rng.uniform(0.3, 1.5) * _star(e["sigma"], phi, e["theta"], penalty)
        return {"argv": ["equilibria", *model, "--penalty", penalty, "--mu", repr(mu)]}
    mu = rng.uniform(0.02, 1.5 / (e["sigma"] - 1.0))
    return {"argv": ["thresholds", *model, "--mu", repr(mu)]}


_BLOCKS = {
    "sweeps": (SWEEP_BLOCK, lambda rng, item: _sweep_spec(rng, *item)),
    "point_eval": (POINT_BLOCK, _point_spec),
    "artifacts": (ARTIFACT_BLOCK, _artifact_spec),
}


def generate(workload: str, seed: int):
    """Endless, seed-determined stream of op specs for one workload."""
    block, draw = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        order = list(block)
        rng.shuffle(order)
        for item in order:
            yield draw(rng, item)


def first_ops(workload: str, seed: int, n: int) -> list[dict]:
    stream = generate(workload, seed)
    return [next(stream) for _ in range(n)]


# ---------------------------------------------------------------------------
# Executors


def _params(geoeq, spec: dict):
    return geoeq.model.ModelParams(sigma=spec["sigma"], phi=spec["phi"], theta=spec["theta"])


def _norm_eq(eq) -> dict:
    return {"h": eq.h_star, "w": eq.w, "kind": eq.kind, "stability": eq.stability,
            "slope": eq.slope}


def _norm_branch(branch) -> dict:
    return {
        "samples": [[value, [_norm_eq(e) for e in eqs]] for value, eqs in branch.samples],
        "bifurcations": [[b.value, b.criticality, b.third_derivative]
                         for b in branch.bifurcations],
        "diagnostics": list(branch.diagnostics),
    }


def _prepare_sweep(geoeq, spec: dict):
    params = _params(geoeq, spec)
    penalty = geoeq.penalty.PenaltySpec(kind=spec["penalty"], mu=spec["mu"])
    call = lambda: geoeq.equilibria.sweep(spec["parameter"], spec["lo"], spec["hi"],
                                          spec["steps"], params, penalty, workers=1)
    return call, _norm_branch


_POINT_MODULE = {
    "solve_wage": "model", "wage_share": "model", "dw_dh": "model", "dw_dphi": "model",
    "delta_u": "welfare", "ddelta_u_dh": "welfare", "ddelta_u_dphi": "welfare",
    "stability_coefficients": "welfare", "delta_t": "penalty", "delta_t_prime": "penalty",
    "mu_p": "equilibria", "dispersion_threshold": "equilibria", "phi_b": "equilibria",
}


def _norm_point(value):
    if hasattr(value, "__dataclass_fields__"):
        return {k: getattr(value, k) for k in value.__dataclass_fields__}
    return None if value is None else float(value)


def _prepare_point(geoeq, spec: dict):
    fn_name = spec["fn"]
    module = getattr(geoeq, _POINT_MODULE[fn_name])
    if fn_name in ("delta_t", "delta_t_prime"):
        args = (spec["x"], geoeq.penalty.PenaltySpec(kind=spec["penalty"], mu=spec["mu"]))
    elif fn_name == "mu_p":
        args = (spec["x"], spec["sigma"], spec["phi"])
    elif fn_name == "phi_b":
        args = (spec["sigma"], spec["mu"])
    elif fn_name == "dispersion_threshold":
        args = (_params(geoeq, spec),)
    else:
        args = (spec["x"], _params(geoeq, spec))
    return (lambda: getattr(module, fn_name)(*args)), _norm_point


def artifact_name(argv: list[str]) -> str:
    return argv[1] if argv[0] == "figure" else argv[0]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_artifacts(out: Path, name: str) -> dict:
    """Parse the CSV, JSON and SVG a CLI op wrote; a missing file has no key."""
    parsed = {}
    for ext in ("csv", "json", "svg"):
        path = out / f"{name}.{ext}"
        if not path.exists():
            continue
        data = path.read_bytes()
        text = data.decode("utf-8")
        entry = {"sha256": hashlib.sha256(data).hexdigest()}
        if ext == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            entry.update(header=rows[0], rows=[[_cell(c) for c in r] for r in rows[1:]])
        elif ext == "json":
            entry["doc"] = json.loads(text)
        else:
            entry["ok"] = text.startswith("<svg ") and text.endswith("</svg>\n")
        parsed[ext] = entry
    return parsed


class ArtifactRunner:
    """Runs CLI ops into one scratch directory that it empties between ops.

    The CLI gets ``--out`` relative to the working directory, which must be
    ``work``: the JSON echoes the path, and a checkout-specific absolute
    path would make its bytes differ from the reference's.
    """

    def __init__(self, work: Path):
        self.work = work
        self.log = io.StringIO()

    def prepare(self, geoeq, spec: dict):
        out = self.work / OUT_DIR
        shutil.rmtree(out, ignore_errors=True)
        argv = [*spec["argv"], "--out", OUT_DIR, "--format", "csv,json,svg"]

        def call():
            self.log.seek(0)
            self.log.truncate()
            with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
                return geoeq.cli.main(argv)

        def normalise(code):
            return {"exit": code, "stderr": self.log.getvalue() if code else "",
                    "files": read_artifacts(out, artifact_name(spec["argv"]))}

        return call, normalise


def preparer(workload: str, work: Path):
    """The ``prepare(geoeq, spec) -> (call, normalise)`` function of a workload."""
    if workload == "sweeps":
        return _prepare_sweep
    if workload == "point_eval":
        return _prepare_point
    return ArtifactRunner(work).prepare


def sweep_part(spec: dict) -> tuple[str, int] | None:
    """Swept parameter and step count of an op that traces a branch, else None."""
    if "parameter" in spec:
        return spec["parameter"], spec["steps"]
    argv = spec.get("argv", [])
    if argv[:2] == ["figure", "fig6-left"]:
        return "mu", int(argv[3])
    if argv[:2] == ["figure", "fig6-right"]:
        return "phi", int(argv[3])
    return None
