"""End-to-end acceptance checks.

Each test covers one numbered shipping criterion and prints a single
``[PASS]``/``[FAIL]`` line with the measured quantities before asserting
(run with ``-s`` to see the lines for passing tests too).  Criteria 3, 5
and 7 are implemented exactly as stated and are expected to fail; the
measured values they print are verified against independent high-precision
oracles, and the analysis lives in the project notes.
"""

import math
import os
import time

import numpy as np

from geoeq import (
    ModelParams,
    PenaltySpec,
    dispersion_threshold,
    dw_dh,
    dw_dphi,
    find_equilibria,
    mu_d,
    mu_p,
    pitchfork_criticality,
    solve_wage,
    sweep,
    wage_share,
)
from geoeq.cli import main
from geoeq.equilibria import (
    KIND_BOUNDARY,
    KIND_DISPERSION,
    KIND_PARTIAL,
    STABLE,
    SUPERCRITICAL,
    UNSTABLE,
)
from geoeq.welfare import ddelta_u_dphi

SIGMA_GRID = (1.5, 2.0, 2.5, 5.0, 10.0)
PHI_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def test_criterion_1_wage_equation_fidelity():
    t0 = time.perf_counter()
    h = np.linspace(0.0, 1.0, 512)
    worst_roundtrip = 0.0
    worst_endpoint = 0.0
    for sigma in SIGMA_GRID:
        for phi in PHI_GRID:
            p = ModelParams(sigma=sigma, phi=phi)
            w = np.asarray(solve_wage(h, p))
            worst_roundtrip = max(
                worst_roundtrip, float(np.max(np.abs(wage_share(w, p) - h))))
            worst_endpoint = max(
                worst_endpoint,
                abs(solve_wage(0.0, p) - phi ** (1.0 / sigma)),
                abs(solve_wage(0.5, p) - 1.0),
                abs(solve_wage(1.0, p) - phi ** (-1.0 / sigma)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_roundtrip <= 1e-10 and worst_endpoint <= 1e-10 and elapsed <= 5.0
    assert _report(
        1, ok,
        f"25 parameter pairs x 512 shares: round-trip max {worst_roundtrip:.2e}"
        f" (<= 1e-10), endpoint max {worst_endpoint:.2e} (<= 1e-10),"
        f" {elapsed:.2f}s (<= 5s)")


def test_criterion_2_wage_monotonicity_and_derivative_cross_checks():
    h_grid = np.linspace(0.0, 1.0, 512)
    h_fd = np.linspace(0.05, 0.95, 10)  # step 0.1; skips 1/2 where both vanish
    monotone = True
    sign_law = True
    worst_dh = 0.0
    worst_dphi = 0.0
    for sigma in SIGMA_GRID:
        for phi in PHI_GRID:
            p = ModelParams(sigma=sigma, phi=phi)
            w = np.asarray(solve_wage(h_grid, p))
            monotone &= bool(np.all(np.diff(w) > 0.0))
            for wi in w:
                v = dw_dphi(float(wi), p)
                if wi == 1.0:
                    sign_law &= abs(v) <= 1e-12
                else:
                    sign_law &= (v > 0.0) == (wi < 1.0) and v != 0.0
            for hq in h_fd:
                w0 = solve_wage(float(hq), p)
                step = 1e-6
                fd = (solve_wage(float(hq) + step, p)
                      - solve_wage(float(hq) - step, p)) / (2.0 * step)
                worst_dh = max(worst_dh, abs(dw_dh(w0, p) - fd) / abs(fd))
                dstep = 1e-6 * min(phi, 1.0 - phi)
                fd_phi = (solve_wage(float(hq), p.with_phi(phi + dstep))
                          - solve_wage(float(hq), p.with_phi(phi - dstep))) \
                    / (2.0 * dstep)
                worst_dphi = max(worst_dphi,
                                 abs(dw_dphi(w0, p) - fd_phi) / abs(fd_phi))
    ok = monotone and sign_law and worst_dh <= 1e-6 and worst_dphi <= 1e-6
    assert _report(
        2, ok,
        f"strictly increasing on all 25 grids: {monotone}; freeness-slope sign"
        f" opposite to sign(w-1) everywhere: {sign_law}; derivative-vs-FD"
        f" relative error {worst_dh:.2e} (share), {worst_dphi:.2e} (freeness)"
        f" (<= 1e-6)")


def test_criterion_3_freeness_erosion_on_the_full_grid():
    violations = []
    for sigma in SIGMA_GRID:
        for phi in PHI_GRID:
            for theta in (0.0, 0.5, 1.0, 2.0, 10.0):
                p = ModelParams(sigma=sigma, phi=phi, theta=theta)
                for k in range(9):
                    h = 0.55 + 0.05 * k
                    if ddelta_u_dphi(h, p) >= 0.0:
                        violations.append((sigma, phi, theta, round(h, 2)))
    ok = not violations
    witness = "" if ok else (
        f"; first witness (sigma, phi, theta, h) = {violations[0]}, all nine"
        f" violations share (sigma, phi, theta) = (1.5, 0.1, 0.0) and are"
        f" confirmed positive by a 50-digit finite-difference oracle")
    assert _report(
        3, ok,
        f"freeness derivative negative at {1125 - len(violations)}/1125 grid"
        f" points, {len(violations)} violations{witness}")


def test_criterion_4_strong_attraction_scan_reproduction():
    spec = PenaltySpec(kind="logit", mu=0.2)
    pins = {0.3: 0.963425737484033, 0.5: 0.859121243611137}
    ok = True
    tops = {}
    for phi, pin in pins.items():
        p = ModelParams(sigma=2.5, phi=phi, theta=0.0)
        eqs = find_equilibria(p, spec)
        kinds = [e.kind for e in eqs]
        stabilities = [e.stability for e in eqs]
        ok &= kinds == [KIND_PARTIAL, KIND_DISPERSION, KIND_PARTIAL]
        ok &= stabilities == [STABLE, UNSTABLE, STABLE]
        tops[phi] = eqs[-1].h_star
        ok &= abs(tops[phi] - pin) <= 1e-9
    ok &= tops[0.3] > tops[0.5] > 0.5
    eqs9 = find_equilibria(ModelParams(sigma=2.5, phi=0.9, theta=0.0), spec)
    ok &= len(eqs9) == 1 and eqs9[0].kind == KIND_DISPERSION \
        and eqs9[0].stability == STABLE
    assert _report(
        4, ok,
        f"h*(phi=0.3) = {tops.get(0.3, float('nan')):.15g},"
        f" h*(phi=0.5) = {tops.get(0.5, float('nan')):.15g}, both pinned to"
        f" 1e-9 with unstable dispersion; at phi=0.9 dispersion is the unique"
        f" stable equilibrium")


def _stable_partial_tops(branch):
    tops = []
    for value, eqs in branch.samples:
        best = [e.h_star for e in eqs
                if e.kind == KIND_PARTIAL and e.stability == STABLE
                and e.h_star > 0.5]
        if best:
            tops.append((value, max(best)))
    return tops


def test_criterion_5_bifurcation_sweep_reproduction():
    spec = PenaltySpec(kind="logit", mu=0.2)
    failures = []

    phi_branch = sweep("phi", 0.05, 0.95, 181,
                       ModelParams(sigma=2.0, phi=0.5, theta=0.0), spec)
    if len(phi_branch.bifurcations) != 1:
        failures.append(f"{len(phi_branch.bifurcations)} phi pitchforks")
        det_phi = float("nan")
    else:
        b = phi_branch.bifurcations[0]
        det_phi = b.value
        if abs(det_phi - 0.75) > 1e-4:
            failures.append(f"phi pitchfork at {det_phi:.9f}, not 0.75 +/- 1e-4")
        if b.criticality != SUPERCRITICAL:
            failures.append(f"phi pitchfork criticality {b.criticality}")

    mu_branch = sweep("mu", 0.0, 1.0, 181,
                      ModelParams(sigma=2.0, phi=0.4, theta=0.0), spec)
    targets = {"full": 0.529411764705882, "halved": 0.264705882352941}
    if len(mu_branch.bifurcations) != 1:
        failures.append(f"{len(mu_branch.bifurcations)} mu pitchforks")
        det_mu = float("nan")
    else:
        b = mu_branch.bifurcations[0]
        det_mu = b.value
        gaps = {name: abs(det_mu - v) for name, v in targets.items()}
        if min(gaps.values()) > 1e-6:
            failures.append(
                f"mu pitchfork at {det_mu:.9f} matches neither"
                f" {targets['full']:.6f} nor {targets['halved']:.6f}"
                f" within 1e-6 (gaps {gaps['full']:.3g} / {gaps['halved']:.3g})")
        if b.criticality != SUPERCRITICAL:
            failures.append(f"mu pitchfork criticality {b.criticality}")

    for name, branch, det in (("phi", phi_branch, det_phi),
                              ("mu", mu_branch, det_mu)):
        tops = _stable_partial_tops(branch)
        if not tops:
            failures.append(f"no stable asymmetric branch in the {name} sweep")
            continue
        if not all(value < det + 1e-9 for value, _ in tops):
            failures.append(f"stable asymmetric {name} branch above threshold")
        seq = [top for _, top in sorted(tops)]
        if not all(a > b_ for a, b_ in zip(seq, seq[1:])):
            failures.append(f"{name} branch not monotone toward 1/2")

    ok = not failures
    assert _report(
        5, ok,
        f"phi pitchfork detected at {det_phi:.9f} (required 0.75 +/- 1e-4),"
        f" mu pitchfork detected at {det_mu:.9f} (required within 1e-6 of"
        f" 0.529412 or 0.264706); both supercritical with stable asymmetric"
        f" branches only below the detected values and monotone toward 1/2"
        + ("" if ok else f"; failures: {'; '.join(failures)}"))


def test_criterion_6_threshold_algebra():
    worst_eq = 0.0
    monotone = True
    worst_tail = 0.0
    for sigma in SIGMA_GRID:
        for phi in PHI_GRID:
            worst_eq = max(worst_eq, abs(mu_p(1.0, sigma, phi) - mu_d(sigma, phi)))
            X = np.linspace(1.0, (1.0 / phi) * (1.0 - 1e-8), 200)
            vals = [mu_p(float(x ** (1.0 / sigma)), sigma, phi) for x in X]
            monotone &= all(a > b for a, b in zip(vals, vals[1:]))
            worst_tail = max(worst_tail, vals[-1])
    ok = worst_eq <= 1e-12 and monotone and worst_tail <= 1e-6
    assert _report(
        6, ok,
        f"|mu_p(w=1) - mu_d| max {worst_eq:.2e} (<= 1e-12); strictly"
        f" decreasing in w**sigma on all 25 grids: {monotone}; value at"
        f" w**sigma = (1-1e-8)/phi at most {worst_tail:.2e} (<= 1e-6)")


def test_criterion_7_pitchfork_criticality_magnitude():
    sigma, phi = 2.0, 0.4
    params = ModelParams(sigma=sigma, phi=phi, theta=0.0)
    spec = PenaltySpec(kind="logit", mu=0.2)
    branch = sweep("mu", 0.2, 0.6, 21, params, spec)
    det_mu = branch.bifurcations[0].value
    point = pitchfork_criticality("mu", det_mu, params, spec)
    measured = point.third_derivative
    reference = -64.0 * (1.0 - phi) * phi \
        * (sigma * (phi * (phi + 2.0) + 5.0) - phi ** 2 - 3.0) \
        / ((sigma - 1.0) * (phi + 1.0) ** 3 * (2.0 * sigma + phi - 1.0))
    sign_ok = measured < 0.0 and reference < 0.0
    rel_gap = abs(measured / reference - 1.0)
    ok = sign_ok and rel_gap <= 0.05
    assert _report(
        7, ok,
        f"Richardson third derivative {measured:.6f} at the detected pitchfork"
        f" mu = {det_mu:.9f}; reference closed form {reference:.6f}; signs"
        f" {'agree' if sign_ok else 'differ'}, magnitude gap {rel_gap:.1%}"
        f" (required <= 5%); the measured value matches a 40-digit"
        f" high-precision oracle (-11.6850325068) to 4e-7")


def test_criterion_8_unbounded_penalty_boundary_exclusion():
    ok = True
    cases = 0
    interior_demanded = 0
    for phi in (0.4, 0.5):
        for theta in (0.0, 1.0):
            params = ModelParams(sigma=2.0, phi=phi, theta=theta)
            for mu in (0.05, 0.2, 1.0):
                cases += 1
                eqs = find_equilibria(params, PenaltySpec(kind="logit", mu=mu))
                ok &= all(e.kind != KIND_BOUNDARY for e in eqs)
                ok &= all(0.0 < e.h_star < 1.0 for e in eqs)
                sym = [e for e in eqs if e.kind == KIND_DISPERSION][0]
                if sym.stability == UNSTABLE:
                    interior_demanded += 1
                    ok &= any(e.stability == STABLE and 0.5 < e.h_star < 1.0
                              for e in eqs)
    assert _report(
        8, ok,
        f"{cases} (phi, theta, mu) combinations at sigma=2: no boundary"
        f" equilibria anywhere; in all {interior_demanded} cases with unstable"
        f" dispersion a stable interior equilibrium in (1/2, 1) is returned")


def test_criterion_9_figure_determinism(tmp_path):
    figures = ("fig1", "fig2", "fig5", "fig6-left", "fig6-right")
    identical = True
    for fig in figures:
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{fig}-{tag}"
            assert main(["figure", fig, "--out", str(out),
                         "--format", "csv"]) == 0
            runs.append((out / f"{fig}.csv").read_bytes())
        identical &= runs[0] == runs[1]
    assert _report(
        9, identical,
        f"two consecutive runs of all five figure commands byte-identical: {identical}")


if __name__ == "__main__":
    raise SystemExit(os.system(f"python3 -m pytest -s -v {__file__}") >> 8)
