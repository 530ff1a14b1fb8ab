"""Tests of the benchmark itself: seeded inputs, span arithmetic, checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import checks
import run
import spans
import startup
import workloads


@pytest.fixture(scope="module")
def geoeq():
    return run.import_geoeq()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_always_generates_the_same_inputs(workload):
    first = workloads.first_ops(workload, 7, 50)
    assert workloads.first_ops(workload, 7, 50) == first
    assert workloads.first_ops(workload, 8, 50) != first


def test_blocks_keep_their_composition_across_seeds():
    kinds = lambda seed: sorted((s["parameter"], s["steps"])
                                for s in workloads.first_ops("sweeps", seed, 16))
    assert kinds(1) == kinds(2) == sorted(workloads.SWEEP_BLOCK * 2)


def _span(name, start, end, parent=None):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_what_children_cover():
    tree = [
        _span("op", 0, 100),
        _span("a", 10, 40, 0),
        _span("b", 50, 70, 0),
        _span("a.child", 15, 25, 1),
        _span("a.child", 20, 30, 1),   # overlaps its sibling: covered once
        _span("late", 90, 120, 0),     # runs past its parent: clipped at 100
    ]
    assert spans.self_times(tree) == [100 - 30 - 20 - 10, 30 - 15, 20, 10, 10, 30]


def test_layer_metrics_count_calls_fevals_and_ratios():
    tree = [
        _span("equilibria.sweep", 0, 1000),
        _span("equilibria.find_equilibria", 0, 600, 0),
        _span("model.solve_wage.grid", 0, 100, 1),
        _span("equilibria.brentq", 100, 300, 1),
        _span("model.solve_wage.scalar", 110, 120, 3),
        _span("model.solve_wage.scalar", 130, 140, 3),
    ]
    tree[0][5] = {"steps": 2}
    tree[1][5] = {"roots": 1}
    tree[2][5] = {"points": 1025}
    tree[3][5] = {"fevals": 7}
    m, absent = spans.layer_metrics(tree)
    assert m["model.solve_wage.grid_calls"] == 1
    assert m["model.solve_wage.grid_points"] == 1025
    assert m["model.solve_wage.scalar_calls"] == 2
    assert m["model.solve_wage.scalar_self_s"] == pytest.approx(20e-9)
    assert m["equilibria.brentq.fevals"] == 7
    assert m["equilibria.fevals_per_root"] == 7
    assert m["equilibria.wage_solves_per_step"] == 1.5
    assert m["equilibria.find_equilibria.self_s"] == pytest.approx(300e-9)
    assert m["equilibria.sweep.self_s"] == pytest.approx(400e-9)
    assert absent == {}


def test_importtime_split_attributes_nested_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         json",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:       400 |        480 |       scipy.optimize",
        "import time:        20 |        500 |     scipy",
        "import time:        70 |        870 |   geoeq",
        "import time:        10 |        880 | geoeq.cli",
    ])
    split = startup.parse_importtime(text)
    assert split["numpy"] == pytest.approx(330e-6)
    assert split["scipy"] == pytest.approx(470e-6)
    assert split["geoeq"] == pytest.approx(80e-6)


def _run(geoeq, workload, spec, work=Path(".")):
    _, out, error = run.run_op(geoeq, workloads.preparer(workload, work), spec)
    assert error is None
    return out


def test_point_check_flags_a_perturbed_value(geoeq):
    spec = {"fn": "ddelta_u_dh", "sigma": 2.5, "phi": 0.3, "theta": 0.0, "x": 0.7}
    value = _run(geoeq, "point_eval", spec)
    assert checks.check_point(spec, value, geoeq) == []
    assert checks.check_point(spec, value * (1 + 1e-5), geoeq)


def test_sweep_check_flags_a_perturbed_rest_point(geoeq):
    spec = dict(workloads.WARM_OPS["sweeps"])
    out = _run(geoeq, "sweeps", spec)
    assert checks.check_sweep(spec, out, geoeq) == []
    assert out["bifurcations"], "the warm-up sweep straddles its threshold"
    bad = copy.deepcopy(out)
    eq = next(e for _, eqs in bad["samples"] for e in eqs
              if e["kind"] == "partial_agglomeration")
    eq["h"] += 1e-7
    assert checks.check_sweep(spec, bad, geoeq)
    bad = copy.deepcopy(out)
    bad["bifurcations"][0][0] += 1e-4
    assert checks.check_sweep(spec, bad, geoeq)


def test_artifact_check_flags_a_perturbed_cell(geoeq, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = {"argv": ["figure", "fig2"]}
    out = _run(geoeq, "artifacts", spec, tmp_path)
    assert checks.check_artifact(spec, out) == []
    bad = copy.deepcopy(out)
    bad["files"]["csv"]["rows"][128][2] *= 1 + 1e-6
    assert checks.check_artifact(spec, bad)


def test_reference_comparison_flags_drift():
    ref = {"samples": [[0.5, [{"h": 0.7, "kind": "partial_agglomeration"}]]]}
    near = copy.deepcopy(ref)
    near["samples"][0][1][0]["h"] += 1e-12
    far = copy.deepcopy(ref)
    far["samples"][0][1][0]["h"] += 1e-4
    assert checks.compare(ref, near, 1e-6, 1e-9) == []
    assert checks.compare(ref, far, 1e-6, 1e-9)


def test_per_layer_names_and_units_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    from_spans = set(spans.layer_metrics([_span("op", 0, 1)])[0])
    from_run = {"setup.import_numpy_s", "setup.import_scipy_s", "setup.import_geoeq_s",
                "trace.overhead_ratio", "output.bytes_identical_ratio", "fail_ratio",
                "equilibria.sweep.workers2_speedup"}
    assert from_spans | from_run == {m["name"] for m in declared}
    assert all(run._unit(m["name"]) == m["unit"] for m in declared)
