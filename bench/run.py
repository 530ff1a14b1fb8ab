"""Benchmark for geoeq: three closed-loop workloads, checked outputs, per-layer spans.

    python3 bench/run.py --workload sweeps|point_eval|artifacts --seed N \\
        --seconds S --trace 0|1

With ``--trace 0`` the run measures set-up time in fresh interpreters, then
runs seeded ops one after another for S seconds (one client, no arrival
rate) with tracing off, and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed, seed-determined op list twice, untraced and
traced, and reports the per-layer metrics derived from the spans.  Either
way every op's output is checked, the reference ops are replayed and
compared, and the last line of standard output is one JSON object.

``--write-reference`` regenerates ``reference.json`` from the current tree;
it is meant to run once, at the commit that defines the reference.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import spans
import startup
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1
MIN_OPS = 100
# Latency percentiles are taken per window of at least WINDOW_SECONDS and
# MIN_OPS ops, then averaged.  On a host that alternates between fast and
# slow phases lasting seconds, a percentile pooled over the run jumps between
# the two when the share of fast time crosses its rank; the window average
# moves in proportion to that share.  Under steady conditions they agree.
WINDOW_SECONDS = 1.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# Ops per traced run; each list takes a few seconds untraced.
TRACE_OPS = {"sweeps": 48, "point_eval": 4800, "artifacts": 50}
# Ops of the default seed kept in the reference (one block each, more for point_eval).
REFERENCE_OPS = {"sweeps": 8, "point_eval": 72, "artifacts": 10}
# The parallel-sweep probe: fig6-right's sweep, serial against two workers.
PROBE = {"parameter": "phi", "lo": 0.02, "hi": 0.98, "steps": 181, "sigma": 2.0,
         "phi": 0.5, "theta": 0.0, "penalty": "logit", "mu": 0.2}
PROBE_REPEATS = 3
MAX_REPORTED_FAILURES = 20


def import_geoeq() -> SimpleNamespace:
    """Import geoeq from this checkout's src/ and nowhere else.

    Returns the package and its modules by name; ``geoeq.penalty`` on the
    package is the penalty function, not the module, so modules come from
    ``sys.modules``.
    """
    if not (SRC / "geoeq" / "__init__.py").is_file():
        raise SystemExit(f"error: no geoeq source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import geoeq
    import geoeq.cli  # noqa: F401  (imports output and cli too)
    if not Path(geoeq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported geoeq from {geoeq.__file__}, not {SRC}")
    return SimpleNamespace(package=geoeq,
                           **{m: sys.modules[f"geoeq.{m}"] for m in spans.MODULES})


class Ledger:
    """Counts attempted and failed ops and keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(f"{label}: {'; '.join(errors[:3])}")


def run_op(geoeq, prepare, spec: dict):
    """Run one op; returns (latency_ns, normalised output or None, error or None)."""
    call, normalise = prepare(geoeq, spec)
    t0 = time.perf_counter_ns()
    try:
        result = call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter_ns() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - t0
    return elapsed, normalise(result), None


def run_checked(geoeq, workload, prepare, spec, ledger: Ledger, label: str):
    elapsed, out, error = run_op(geoeq, prepare, spec)
    errors = [error] if error else checks.CHECKS[workload](spec, out, geoeq)
    ledger.record(label, errors)
    return elapsed, out


def replay_reference(geoeq, workload, prepare, ledger: Ledger) -> float:
    """Re-run the reference ops; returns the share of their CSV/JSON bytes reproduced."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload]
    rtol, atol = checks.REF_TOL[workload]
    same = total = 0
    for i, entry in enumerate(ref):
        _, out, error = run_op(geoeq, prepare, entry["spec"])
        if error:
            ledger.record(f"reference op {i}", [error])
            continue
        errors = checks.CHECKS[workload](entry["spec"], out, geoeq)
        errors += checks.compare(entry["out"], checks.compact(workload, out), rtol, atol,
                                 "reference")
        ledger.record(f"reference op {i}", errors)
        got = checks.digests(workload, out)
        total += len(entry["digests"])
        same += sum(a == b for a, b in zip(entry["digests"], got))
    return same / total if total else 0.0


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(geoeq, workload, seed, seconds, prepare, work, ledger) -> dict:
    setup = startup.setup_seconds(workload, workloads.WARM_OPS[workload], SRC, work,
                                  SETUP_REPEATS)
    stream = workloads.generate(workload, seed)
    lat: list[int] = []
    steps_ns = {"phi": [0, 0], "mu": [0, 0]}

    def count_steps(spec, elapsed):
        part = workloads.sweep_part(spec)
        if part:
            steps_ns[part[0]][0] += part[1]
            steps_ns[part[0]][1] += elapsed

    windows: list[list[int]] = [[]]
    window_end = time.perf_counter() + WINDOW_SECONDS
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(lat) < MIN_OPS:
        spec = next(stream)
        elapsed, _ = run_checked(geoeq, workload, prepare, spec, ledger, f"op {len(lat)}")
        lat.append(elapsed)
        windows[-1].append(elapsed)
        count_steps(spec, elapsed)
        if len(windows[-1]) >= MIN_OPS and time.perf_counter() >= window_end:
            windows.append([])
            window_end = time.perf_counter() + WINDOW_SECONDS
    if len(windows[-1]) < MIN_OPS and len(windows) > 1:
        windows[-2].extend(windows.pop())
    windows = [sorted(w) for w in windows]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "op_p50_ms": (statistics.mean(statistics.median(w) for w in windows) / 1e6, "ms"),
        "op_p90_ms": (statistics.mean(percentile(w, 0.9) for w in windows) / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for param, (n, ns) in steps_ns.items():
        if ns:
            metrics[f"{param}_steps_per_s"] = (n / (ns / 1e9), "1/s")
    return {"metrics": metrics, "setup_samples_s": setup, "ops": len(lat),
            "windows": len(windows)}


def _probe_speedup(geoeq) -> float:
    """Median over PROBE_REPEATS of serial wall time over two-worker wall time.

    A short two-worker sweep runs first, untimed, so that the lazy imports
    of the first process pool are not charged to the measurement.
    """
    params = geoeq.model.ModelParams(sigma=PROBE["sigma"], phi=PROBE["phi"], theta=PROBE["theta"])
    spec = geoeq.penalty.PenaltySpec(kind=PROBE["penalty"], mu=PROBE["mu"])
    geoeq.equilibria.sweep("phi", PROBE["lo"], PROBE["hi"], 4, params, spec, workers=2)
    ratios = []
    for _ in range(PROBE_REPEATS):
        wall = {}
        for workers in (1, 2):
            t0 = time.perf_counter()
            geoeq.equilibria.sweep("phi", PROBE["lo"], PROBE["hi"], PROBE["steps"], params,
                                   spec, workers=workers)
            wall[workers] = time.perf_counter() - t0
        ratios.append(wall[1] / wall[2])
    return statistics.median(ratios)


def per_layer(geoeq, workload, seed, prepare, work, ledger, ref_identical) -> dict:
    speedup = _probe_speedup(geoeq)
    split = startup.import_split(SRC, work, IMPORT_REPEATS)
    ops = workloads.first_ops(workload, seed, TRACE_OPS[workload])
    untraced_ns, outputs = 0, []
    for i, spec in enumerate(ops):
        elapsed, out = run_checked(geoeq, workload, prepare, spec, ledger, f"op {i}")
        untraced_ns += elapsed
        outputs.append(out)
    tracer = spans.Tracer()
    tracer.install(geoeq)
    traced_ns, mismatched = 0, []
    try:
        for i, spec in enumerate(ops):
            tracer.op_id = i
            elapsed, out, error = run_op(geoeq, prepare, spec)
            tracer.op_id = None
            traced_ns += elapsed
            if error or not checks.same(out, outputs[i]):
                mismatched.append(i)
    finally:
        tracer.op_id = None
        tracer.uninstall()
    if mismatched:
        ledger.record("traced run", [f"outputs differ from the untraced run at ops {mismatched[:10]}"])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    layer, absent = spans.layer_metrics(tracer.spans)
    del tracer
    layer.update(split)
    layer["trace.overhead_ratio"] = traced_ns / untraced_ns
    layer["output.bytes_identical_ratio"] = ref_identical
    layer["fail_ratio"] = ledger.failed / ledger.attempted
    layer["equilibria.sweep.workers2_speedup"] = speedup
    return {"metrics": {k: (v, _unit(k)) for k, v in layer.items()}, "absent": absent,
            "ops": len(ops)}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_root", "_per_step", "_speedup")):
        return "1"
    return "count"


def run_record(args, geoeq, result: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "geoeq_path": str(Path(geoeq.package.__file__).resolve().parent),
        **result,
    }


def write_reference(geoeq, work: Path) -> None:
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        prepare = workloads.preparer(workload, work)
        entries = []
        for i, spec in enumerate(workloads.first_ops(workload, DEFAULT_SEED,
                                                     REFERENCE_OPS[workload])):
            _, out, error = run_op(geoeq, prepare, spec)
            errors = [error] if error else checks.CHECKS[workload](spec, out, geoeq)
            if errors:
                raise SystemExit(f"error: reference op {workload}/{i} fails its checks: {errors}")
            entries.append({"spec": spec, "digests": checks.digests(workload, out),
                            "out": checks.compact(workload, out)})
        doc["workloads"][workload] = entries
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from this tree and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    geoeq = import_geoeq()
    work = BENCH / "_work" / f"{args.workload or 'reference'}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)  # artifact ops write to a path relative to it
    try:
        if args.write_reference:
            write_reference(geoeq, work)
            return 0
        prepare = workloads.preparer(args.workload, work)
        ledger = Ledger()
        run_op(geoeq, prepare, workloads.WARM_OPS[args.workload])
        identical = replay_reference(geoeq, args.workload, prepare, ledger)
        if args.trace:
            result = per_layer(geoeq, args.workload, args.seed, prepare, work, ledger, identical)
        else:
            result = end_to_end(geoeq, args.workload, args.seed, args.seconds, prepare, work,
                                ledger)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    result["failures"] = ledger.messages
    OUT.mkdir(exist_ok=True)
    record = run_record(args, geoeq, {**result, "attempted": ledger.attempted,
                                      "failed": ledger.failed})
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for key, (value, unit) in result["metrics"].items():
        print(f"{key:44s} {value:16.6g} {unit}")
    for key, why in result.get("absent", {}).items():
        print(f"{key}: absent ({why})")
    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
