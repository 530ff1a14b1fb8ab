"""Set-up cost of a fresh interpreter: wall time to first result, and its import split."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PACKAGES = ("numpy", "scipy", "geoeq")

# Child programs: import the CLI, then run the workload's warm-up op.
_WARM_CODE = {
    "sweeps": "import geoeq.cli\n"
              "from geoeq.model import ModelParams\n"
              "from geoeq.penalty import PenaltySpec\n"
              "from geoeq.equilibria import sweep\n"
              "op = {spec!r}\n"
              "sweep(op['parameter'], op['lo'], op['hi'], op['steps'],\n"
              "      ModelParams(sigma=op['sigma'], phi=op['phi'], theta=op['theta']),\n"
              "      PenaltySpec(kind=op['penalty'], mu=op['mu']))\n",
    "point_eval": "import geoeq.cli\n"
                  "from geoeq.model import ModelParams\n"
                  "from geoeq.welfare import ddelta_u_dh\n"
                  "op = {spec!r}\n"
                  "ddelta_u_dh(op['x'], ModelParams(sigma=op['sigma'], phi=op['phi'],\n"
                  "                                 theta=op['theta']))\n",
    "artifacts": "import geoeq.cli\n"
                 "op = {spec!r}\n"
                 "raise SystemExit(geoeq.cli.main(op['argv'] + ['--out', {out!r}]))\n",
}


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def setup_seconds(workload: str, spec: dict, src: Path, work: Path, repeats: int) -> list[float]:
    """Wall time of ``repeats`` fresh interpreters that import geoeq.cli and run one op."""
    code = _WARM_CODE[workload].format(spec=spec, out="setup-out")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=_env(src), cwd=work,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
    return times


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds of ``import geoeq.cli`` spent in numpy, scipy and geoeq itself.

    Every module's own import time goes to the nearest enclosing import (or
    the module itself) that belongs to one of the three packages, so the
    three figures split the whole import without overlap: numpy modules that
    scipy pulls in count as numpy, stdlib modules that scipy pulls in as scipy.
    """
    stack: list[tuple] = []   # (level, package, self_us, children)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[0].strip().isdigit():
            continue
        raw = parts[2].rstrip("\n")
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > level:
            children.append(stack.pop())
        stack.append((level, raw.strip().split(".")[0], int(parts[0]), children))

    totals = dict.fromkeys(PACKAGES, 0.0)

    def attribute(node, owner):
        _, package, self_us, children = node
        owner = package if package in totals else owner
        if owner is not None:
            totals[owner] += self_us / 1e6
        for child in children:
            attribute(child, owner)

    for node in stack:
        attribute(node, None)
    return totals


def import_split(src: Path, work: Path, repeats: int) -> dict[str, float]:
    """Median import split over ``repeats`` fresh ``python -X importtime`` processes."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import geoeq.cli"],
                              env=_env(src), cwd=work, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importtime child failed: {proc.stderr.decode()[-500:]}")
        runs.append(parse_importtime(proc.stderr.decode()))
    return {f"setup.import_{k}_s": statistics.median(r[k] for r in runs) for k in runs[0]}
