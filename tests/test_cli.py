import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from geoeq import ModelParams, PenaltySpec, find_equilibria, mu_d, phi_b
from geoeq.cli import main, parse_options


def _read_csv(path):
    text = path.read_text(encoding="utf-8")
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


# ---------------------------------------------------------------------------
# runtime dependencies


def _run_fresh(code, tmp_path, timeout):
    """Run ``code`` in a fresh interpreter that imports geoeq from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_the_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import made to fail,
    # the CLI still imports, writes two figures (fig6-right is a freeness
    # sweep) and runs the equilibria and thresholds reports.  Sweeps run
    # serially, so neither the import nor the sweep loads the process pool.
    _run_fresh("""
        import sys
        sys.modules["scipy"] = None
        import geoeq.cli
        runs = [["figure", "fig6-right", "--steps", "11"], ["figure", "fig5"],
                ["equilibria", "--sigma", "2", "--phi", "0.4", "--penalty", "linear"],
                ["thresholds", "--sigma", "2", "--phi", "0.4", "--mu", "0.2"]]
        for i, argv in enumerate(runs):
            code = geoeq.cli.main([*argv, "--out", f"{sys.argv[1]}/{i}"])
            if code != 0:
                raise SystemExit(f"{argv} exited {code}")
        pool = sorted({"concurrent.futures.process", "multiprocessing"} & set(sys.modules))
        if pool:
            raise SystemExit(f"serial runs imported {pool}")
    """, tmp_path, timeout=300)


def test_freeness_within_float_resolution_of_one_ends(tmp_path):
    # near phi = 1 the wage range [1, w_hi] spans only a few hundred doubles,
    # too few to refine the scan to its share target; these solves used to
    # refine forever
    _run_fresh("""
        import sys
        import geoeq.cli
        runs = [["equilibria", "--sigma", "10", "--phi", "0.999999999999"],
                ["equilibria", "--sigma", "2", "--phi", "0.99999999999999"],
                ["equilibria", "--sigma", "10", "--phi", "0.999999999999999"],
                ["equilibria", "--sigma", "50", "--phi", "0.999999999999"],
                ["equilibria", "--sigma", "50", "--phi", "0.999999999999", "--penalty", "linear"],
                ["sweep", "--param", "phi", "--min", "0.999999999998", "--max", "0.999999999999",
                 "--steps", "3", "--sigma", "50"]]
        for i, argv in enumerate(runs):
            code = geoeq.cli.main([*argv, "--out", f"{sys.argv[1]}/{i}"])
            if code not in (0, 3):
                raise SystemExit(f"{argv} exited {code}")
    """, tmp_path, timeout=60)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_sigma_is_a_config_error(tmp_path, capsys):
    code = main(["shortrun", "--out", str(tmp_path)])
    assert code == 2
    assert "sigma" in capsys.readouterr().err


def test_unknown_format_is_a_config_error(tmp_path, capsys):
    code = main(["shortrun", "--sigma", "2", "--phi", "0.5",
                 "--out", str(tmp_path), "--format", "csv,bogus"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_grid_is_a_config_error(tmp_path):
    assert main(["shortrun", "--sigma", "2", "--phi", "0.5", "--grid", "1",
                 "--out", str(tmp_path)]) == 2


def test_argparse_rejects_non_numeric_flags():
    with pytest.raises(SystemExit) as exc:
        main(["shortrun", "--sigma", "two"])
    assert exc.value.code == 2


def test_missing_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_out_directory_collision_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "out"
    blocker.write_text("in the way")
    code = main(["shortrun", "--sigma", "2", "--phi", "0.5",
                 "--grid", "8", "--out", str(blocker)])
    assert code == 4
    assert "i/o failure" in capsys.readouterr().err


def test_solver_domain_failures_are_config_errors(tmp_path):
    # parameter validation happens before any solve
    assert main(["shortrun", "--sigma", "0.5", "--phi", "0.5",
                 "--out", str(tmp_path)]) == 2
    assert main(["shortrun", "--sigma", "2", "--phi", "1.5",
                 "--out", str(tmp_path)]) == 2
    assert main(["shortrun", "--sigma", "2", "--phi", "0.5", "--tau", "2",
                 "--out", str(tmp_path)]) == 2
    # the freeness tau**(1 - sigma) underflows to 0
    assert main(["equilibria", "--sigma", "50", "--tau", "1e10",
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# shortrun


def test_shortrun_csv_schema_and_pinned_rows(tmp_path, capsys):
    code = main(["shortrun", "--sigma", "2", "--phi", "0.5", "--grid", "65",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {tmp_path / 'shortrun.csv'}" in out
    header, rows = _read_csv(tmp_path / "shortrun.csv")
    assert header == ["h", "w", "P_L", "P_R", "C_L", "C_R", "n_L", "n_R"]
    assert len(rows) == 65
    values = [[float(c) for c in r] for r in rows]
    assert values[0][0] == 0.0 and values[-1][0] == 1.0
    assert values[0][1] == pytest.approx(math.sqrt(0.5), rel=1e-11)
    assert values[-1][1] == pytest.approx(1.0 / math.sqrt(0.5), rel=1e-11)
    mid = values[32]
    assert mid[0] == 0.5 and mid[1] == 1.0
    assert mid[2] == pytest.approx(4.0 / 3.0, rel=1e-11)  # sigma=2, phi=0.5
    assert mid[2] == mid[3]
    doc = json.loads((tmp_path / "shortrun.json").read_text())
    shadow = doc["shadow_checks"]
    assert shadow["roundtrip_max_err"] <= 1e-12
    assert shadow["wage_monotone"] is True


def test_shortrun_svg_only_when_requested(tmp_path):
    main(["shortrun", "--sigma", "2", "--phi", "0.5", "--grid", "16",
          "--out", str(tmp_path), "--format", "svg"])
    assert (tmp_path / "shortrun.svg").exists()
    assert not (tmp_path / "shortrun.csv").exists()
    assert not (tmp_path / "shortrun.json").exists()
    svg = (tmp_path / "shortrun.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


# ---------------------------------------------------------------------------
# equilibria


def test_equilibria_csv_matches_library_results(tmp_path, capsys):
    code = main(["equilibria", "--sigma", "2.5", "--phi", "0.3", "--theta", "0",
                 "--mu", "0.2", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "equilibria.csv")
    assert header == ["h_star", "w", "kind", "stability", "slope", "residual"]
    params = ModelParams(sigma=2.5, phi=0.3, theta=0.0)
    eqs = find_equilibria(params, PenaltySpec(kind="logit", mu=0.2))
    assert len(rows) == len(eqs) == 3
    for row, eq in zip(rows, eqs):
        assert float(row[0]) == pytest.approx(eq.h_star, abs=1e-11)
        assert row[2] == eq.kind and row[3] == eq.stability
    table = capsys.readouterr().out
    assert "symmetric_dispersion" in table
    assert "partial_agglomeration" in table


def test_equilibria_shadow_checks_cross_validate_slopes(tmp_path):
    main(["equilibria", "--sigma", "2.5", "--phi", "0.3", "--theta", "0",
          "--mu", "0.2", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "equilibria.json").read_text())
    checks = doc["shadow_checks"]["slope_cross_checks"]
    assert len(checks) == 3
    for check in checks:
        assert check["abs_gap"] <= 1e-5 * max(1.0, abs(check["closed_form_slope"]))
    convention = doc["shadow_checks"]["symmetric_slope_convention"]
    assert convention["ratio"] == pytest.approx(2.0, rel=1e-12)
    # inside the log-utility band both slopes are the theta = 1 model's
    for theta in ("0.999999999", "1.000000001"):
        out = tmp_path / theta
        main(["equilibria", "--sigma", "2.5", "--phi", "0.3", "--theta", theta,
              "--mu", "0.2", "--out", str(out)])
        doc = json.loads((out / "equilibria.json").read_text())
        ratio = doc["shadow_checks"]["symmetric_slope_convention"]["ratio"]
        assert ratio == pytest.approx(2.0, rel=1e-12), theta


@pytest.mark.parametrize("theta", ["1", "0"])
def test_equilibria_near_sigma_one_at_low_freeness(tmp_path, theta):
    # the iceberg cost overflows to inf; at theta = 0 the symmetric slope
    # underflows to 0, so the convention ratio is undefined
    code = main(["equilibria", "--sigma", "1.0001", "--phi", "1e-5", "--theta", theta,
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "equilibria.json").read_text())
    assert doc["config"]["effective_model"]["tau"] == math.inf
    ratio = doc["shadow_checks"]["symmetric_slope_convention"]["ratio"]
    assert math.isnan(ratio) if theta == "0" else ratio == pytest.approx(2.0, rel=1e-12)


def test_equilibria_names_a_utility_gap_past_the_double_range(tmp_path, capsys):
    # kappa = (1 - theta)/(sigma - 1) = -520: C_R**(1 - theta) passes the
    # largest double near h = 1, where a run once reported residual inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["equilibria", "--sigma", "1.0073018454685185",
                     "--phi", "0.17308615542210273", "--theta", "4.8004072756093965",
                     "--penalty", "logit", "--mu", "2.744522675670923", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "utility gap leaves the double range" in err
    assert "sigma=1.0073018454685185" in err and "theta=4.8004072756093965" in err


# ---------------------------------------------------------------------------
# thresholds


def test_thresholds_json_reproduces_closed_forms(tmp_path):
    code = main(["thresholds", "--sigma", "2", "--phi", "0.4", "--mu", "0.2",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "thresholds.json").read_text())
    res = doc["results"]
    assert res["mu_d"] == pytest.approx(mu_d(2.0, 0.4), rel=1e-12)
    assert res["phi_b"] == pytest.approx(phi_b(2.0, 0.2), rel=1e-12)
    # default curvature is logarithmic, where detection matches the closed form
    assert res["mu_pitchfork_detected"] == pytest.approx(res["mu_d"], rel=1e-12)
    assert res["dispersion_threshold"] == pytest.approx(res["mu_d"], rel=1e-12)
    crossings = res["phi_crossings_detected"]
    assert len(crossings) == 1
    assert crossings[0] == pytest.approx(0.75, abs=1e-9)


def test_thresholds_without_mu_skips_inversion(tmp_path):
    main(["thresholds", "--sigma", "2", "--phi", "0.4", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "thresholds.json").read_text())
    assert "phi_b" not in doc["results"]
    header, rows = _read_csv(tmp_path / "thresholds.csv")
    assert len(rows) == 1
    assert rows[0][header.index("mu")] == ""
    assert rows[0][header.index("phi_b")] == ""


def test_thresholds_reports_absent_closed_form_inverse(tmp_path):
    main(["thresholds", "--sigma", "2", "--phi", "0.4", "--mu", "1.5",
          "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "thresholds.json").read_text())
    assert doc["results"]["phi_b"] is None
    assert doc["results"]["phi_crossings_detected"] == []


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_and_pitchfork_report(tmp_path, capsys):
    code = main(["sweep", "--param", "mu", "--min", "0.2", "--max", "0.6",
                 "--steps", "11", "--sigma", "2", "--phi", "0.4",
                 "--theta", "0", "--out", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == ["parameter", "h_star", "stability", "kind"]
    sweep_values = sorted({float(r[0]) for r in rows})
    assert len(sweep_values) == 11
    assert sweep_values[0] == 0.2 and sweep_values[-1] == 0.6
    out = capsys.readouterr().out
    assert "pitchfork at mu = 0.370588" in out
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert len(doc["results"]["bifurcations"]) == 1
    match = doc["shadow_checks"]["threshold_match"]["matches"][0]
    assert match["matched"] == "curvature_adjusted"
    assert match["gap"] <= 1e-12


def test_linear_phi_sweep_pitchfork_matches_the_curvature_adjusted_crossing(tmp_path):
    # the linear penalty's slope at 1/2 is 2 mu, so the pitchfork sits where
    # the logit threshold equals mu / 2
    code = main(["sweep", "--param", "phi", "--min", "0.05", "--max", "0.95",
                 "--steps", "91", "--sigma", "2", "--theta", "0", "--penalty", "linear",
                 "--mu", "0.4", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads((tmp_path / "sweep.json").read_text())
    report = doc["shadow_checks"]["threshold_match"]
    assert list(report["candidates"]) == ["curvature_adjusted"]
    match, = report["matches"]
    assert match["detected"] == pytest.approx(0.7107935859793734, abs=1e-12)
    assert match["matched"] == "curvature_adjusted"
    assert match["gap"] <= 1e-9


def test_phi_sweep_needs_no_base_phi(tmp_path, capsys):
    code = main(["sweep", "--param", "phi", "--min", "0.6", "--max", "0.9",
                 "--steps", "7", "--sigma", "2", "--out", str(tmp_path)])
    assert code == 0
    assert "pitchfork at phi = 0.7" in capsys.readouterr().out
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["results"]["bifurcations"][0]["value"] == pytest.approx(
        0.75, abs=1e-9)


def test_sweep_requires_param_and_range(tmp_path):
    assert main(["sweep", "--sigma", "2", "--phi", "0.4",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--param", "mu", "--sigma", "2", "--phi", "0.4",
                 "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# config file


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sigma": 2.0, "phi": 0.3, "grid": 32}))
    out = tmp_path / "out"
    code = main(["--config", str(config), "shortrun", "--phi", "0.5",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "shortrun.json").read_text())
    assert doc["config"]["effective_model"]["phi"] == 0.5  # flag beats config
    assert doc["config"]["sigma"] == 2.0
    _, rows = _read_csv(out / "shortrun.csv")
    assert len(rows) == 32  # grid came from the config


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sigma": 2.0, "gird": 32}))
    code = main(["--config", str(config), "shortrun", "--phi", "0.5",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "gird" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one parser per process: a config run never changes a later run's defaults


def test_a_config_run_leaves_the_next_runs_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"grid": 32, "theta": 0.5}))
    argv = ["shortrun", "--sigma", "2", "--phi", "0.5", "--format", "csv,json"]
    assert main(["--config", str(config), *argv, "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert len(_read_csv(tmp_path / "a" / "shortrun.csv")[1]) == 32
    _, rows = _read_csv(tmp_path / "b" / "shortrun.csv")
    assert len(rows) == 512
    doc = json.loads((tmp_path / "b" / "shortrun.json").read_text())
    assert doc["config"]["theta"] == 1.0 and doc["config"]["grid"] == 512


def test_a_rejected_config_run_leaves_the_next_runs_defaults(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"sigma": "two"}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "shortrun", "--phi", "0.5", "--out", str(tmp_path)])
    assert exc.value.code == 2
    opts = parse_options(["shortrun", "--phi", "0.5"])
    assert opts["sigma"] is None and opts["grid"] == 512 and opts["theta"] == 1.0


def test_help_after_a_config_run_prints_the_built_in_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"format": "csv", "out": str(tmp_path / "cfg")}))
    assert main(["--config", str(config), "figure", "fig1", "--grid", "5"]) == 0
    assert (tmp_path / "cfg" / "fig1.csv").exists()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "(default out)" in text and "(default csv,json,svg)" in text
    assert "cfg" not in text and "(default csv)" not in text


def test_flags_only_runs_build_the_parser_at_most_once(tmp_path, monkeypatch):
    # each build adds the subcommands once; parsing never does
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    for i in range(5):
        assert main(["thresholds", "--sigma", "2", "--phi", "0.4", "--format", "csv",
                     "--out", str(tmp_path / str(i))]) == 0
    assert len(builds) <= 1


_MODEL_ARGV = {
    "shortrun": ["shortrun"],
    "equilibria": ["equilibria"],
    "thresholds": ["thresholds"],
    "sweep": ["sweep", "--param", "mu", "--min", "0.1", "--max", "0.5"],
}


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--eta"])
@pytest.mark.parametrize("command", sorted(_MODEL_ARGV))
def test_model_flags_are_only_sigma_phi_tau_theta(tmp_path, command, flag):
    # input requirements are normalised and mu carries every utility scale
    with pytest.raises(SystemExit) as exc:
        main([*_MODEL_ARGV[command], "--sigma", "2", "--phi", "0.5", flag, "3",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["shortrun", "equilibria", "thresholds", "sweep", "figure"])
def test_workers_is_offered_only_where_a_sweep_runs(tmp_path, command):
    # workers is a keyword of the library's sweep alone: commands sweep serially
    argv = (["figure", "fig1"] if command == "figure"
            else [*_MODEL_ARGV[command], "--sigma", "2", "--phi", "0.5"])
    parse_options([*argv, "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["equilibria", "sweep"])
def test_the_scan_resolution_is_not_an_option(tmp_path, command):
    # the rest-point scan has one resolution, equilibria.GRID_POINTS
    with pytest.raises(SystemExit) as exc:
        main([*_MODEL_ARGV[command], "--sigma", "2", "--phi", "0.5", "--grid-points", "4096",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["alpha", "eta", "workers", "grid_points"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: 1}))
    for argv in (["equilibria"], ["sweep"], ["figure", "fig1"]):
        code = main(["--config", str(config), *argv, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"unknown config keys for {argv[0]}: {key}" in capsys.readouterr().err


def test_a_figure_name_in_a_config_file_is_unknown(tmp_path, capsys):
    # the figure's name is a positional argument: only the command line sets it
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"name": "fig2"}))
    code = main(["--config", str(config), "figure", "fig1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown config keys for figure: name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, key, value", [
    (["shortrun"], "sigma", "x"),
    (["equilibria"], "mu", True),
    (["sweep", "--param", "mu", "--min", "0.1", "--max", "0.5"], "steps", 2.5),
    (["shortrun"], "grid", "many"),
])
def test_config_values_are_converted_as_their_flags_are(tmp_path, capsys, argv, key, value):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sigma": 2.0, "phi": 0.5} | {key: value}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), *argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument --{key}: invalid" in capsys.readouterr().err


def test_config_values_echo_as_their_flags_do_and_null_is_unset(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"sigma": 2, "phi": 0.4, "theta": None}))
    echoes = []
    for argv in (["--config", str(config), "thresholds"],
                 ["thresholds", "--sigma", "2", "--phi", "0.4"]):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        echoes.append(json.loads((tmp_path / "thresholds.json").read_text())["config"])
    assert echoes[0] == echoes[1] and echoes[0]["theta"] == 1.0
    assert isinstance(echoes[0]["sigma"], float)  # a config 2 echoes as 2.0, as --sigma 2 does


def test_effective_model_echoes_every_model_field(tmp_path):
    assert main(["thresholds", "--sigma", "2", "--tau", "2.5", "--theta", "0.5",
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "thresholds.json").read_text())
    model = doc["config"]["effective_model"]
    assert list(model) == ["sigma", "phi", "tau", "theta"]
    assert model == {"sigma": 2.0, "phi": 0.4, "tau": 2.5, "theta": 0.5}


def test_malformed_config_is_rejected(tmp_path):
    config = tmp_path / "run.json"
    config.write_text("{not json")
    assert main(["--config", str(config), "shortrun", "--sigma", "2",
                 "--phi", "0.5", "--out", str(tmp_path / "out")]) == 2
    assert main(["--config", str(tmp_path / "absent.json"), "shortrun",
                 "--sigma", "2", "--phi", "0.5",
                 "--out", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# figures


def test_fig1_is_deterministic_and_pins_endpoints(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["figure", "fig1", "--grid", "65", "--out", str(out)]) == 0
    assert (a / "fig1.csv").read_bytes() == (b / "fig1.csv").read_bytes()
    assert (a / "fig1.svg").read_bytes() == (b / "fig1.svg").read_bytes()
    header, rows = _read_csv(a / "fig1.csv")
    assert header == ["h", "w_phi_0.1", "w_phi_0.5", "w_phi_0.7"]
    first = [float(c) for c in rows[0]]
    last = [float(c) for c in rows[-1]]
    for idx, phi in ((1, 0.1), (2, 0.5), (3, 0.7)):
        assert first[idx] == pytest.approx(math.sqrt(phi), rel=1e-11)
        assert last[idx] == pytest.approx(1.0 / math.sqrt(phi), rel=1e-11)
        assert first[idx] * last[idx] == pytest.approx(1.0, rel=1e-11)


def test_fig2_balanced_row_is_exactly_zero(tmp_path):
    main(["figure", "fig2", "--grid", "65", "--out", str(tmp_path)])
    header, rows = _read_csv(tmp_path / "fig2.csv")
    assert header == ["h", "delta_u_theta_0", "delta_u_theta_1", "delta_u_theta_2"]
    mid = rows[32]
    assert float(mid[0]) == 0.5
    assert mid[1:] == ["0", "0", "0"]
    doc = json.loads((tmp_path / "fig2.json").read_text())
    assert doc["shadow_checks"]["curvature_amplifies_at_0.8"] is True


def test_fig5_crossings_cohere_with_equilibria(tmp_path):
    main(["figure", "fig5", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "fig5.json").read_text())
    shadow = doc["shadow_checks"]
    assert shadow["net_sign_changes_phi_0.3"] == 3
    assert shadow["net_sign_changes_phi_0.5"] == 3
    assert shadow["net_sign_changes_phi_0.9"] == 1
    eqs = doc["results"]["equilibria"]
    assert [e["kind"] for e in eqs["phi_0.9"]] == ["symmetric_dispersion"]
    tops = {k: max(e["h_star"] for e in v) for k, v in eqs.items()}
    assert tops["phi_0.3"] == pytest.approx(0.963425737484033, abs=1e-9)
    assert tops["phi_0.5"] == pytest.approx(0.859121243611137, abs=1e-9)
    header, _ = _read_csv(tmp_path / "fig5.csv")
    assert header == ["h", "delta_u_phi_0.3", "delta_u_phi_0.5",
                      "delta_u_phi_0.9", "delta_t"]


def test_fig6_right_reports_the_freeness_pitchfork(tmp_path, capsys):
    assert main(["figure", "fig6-right", "--steps", "25",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pitchfork at phi = 0.7107935" in out
