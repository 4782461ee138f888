"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with the measured residual.
"""

import math

import numpy as np
import pytest

import oracles
from tdq.cli import main
from tdq.dynamics import (
    SuperconductorParams,
    invariant_value,
    rho_analytic,
    solve_classical,
    solve_pinney_numeric,
)
from tdq.information import measures
from tdq.observables import (
    density_values,
    make_snapshot,
    moments,
    truncation_radius,
    uncertainty_product,
)
from tdq.special_functions import (
    bessel_jy,
    gauss_legendre,
    hermite_function,
)

FIGURE_SIGMAS = (0.4, 0.6, 0.8, 1.5, 2.0, 2.5, 3.0)


def measures_along(params, n, ts):
    """Quadrature measures at each grid time along the exact amplitude."""
    return [measures(make_snapshot(params, rho_analytic(params, float(t)), n))
            for t in ts]


def report(criterion, residual, tolerance):
    print(f"PASS {criterion}: residual {residual:.3e} within {tolerance:.1e}")


def run_cli_csv(tmp_path, name, *argv):
    path = tmp_path / name
    assert main(list(argv) + ["--out", str(path)]) == 0
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return rows


def test_criterion_1_pinney_substitution():
    # analytic amplitude satisfies the Pinney equation, FD second derivative
    h = 1e-4
    residuals = []
    for sigma0 in FIGURE_SIGMAS:
        params = SuperconductorParams(sigma0=sigma0)
        for t in np.linspace(0.0, 5.0, 5):
            rm = rho_analytic(params, float(t) - h).rho
            r0 = rho_analytic(params, float(t))
            rp = rho_analytic(params, float(t) + h).rho
            rho_ddot = (rp - 2.0 * r0.rho + rm) / (h * h)
            L = params.L(float(t))
            residuals.append(abs(rho_ddot
                                 + params.sigma(float(t)) / params.eps0 * r0.rho_dot
                                 + params.omega_sq(float(t)) * r0.rho
                                 - 1.0 / (L * L * r0.rho ** 3)))
    assert len(residuals) >= 25
    worst = oracles.worst(residuals)
    assert worst < 1e-6
    report("criterion 1 (Pinney substitution residual)", worst, 1e-6)


def test_criterion_2_analytic_numeric_agreement():
    grid = np.linspace(0.0, 5.0, 101)
    residuals = []
    for sigma0 in (0.5, 2.0, 3.0):
        params = SuperconductorParams(sigma0=sigma0)
        residuals += [abs(state.rho - rho_analytic(params, state.t).rho)
                      for state in solve_pinney_numeric(params, t_grid=grid)]
    worst = oracles.worst(residuals)
    assert worst < 1e-6
    report("criterion 2 (analytic vs numeric Pinney)", worst, 1e-6)


def test_criterion_3_invariant_conservation():
    params = SuperconductorParams(sigma0=2.0)
    grid = np.linspace(0.0, 5.0, 101)
    residuals = []
    for q0, q_dot0 in ((1.0, 0.0), (0.0, 1.0), (0.7, -0.3)):
        trajectory = solve_classical(params, q0, q_dot0, grid)
        values = [invariant_value(params, cs, rho_analytic(params, cs.t))
                  for cs in trajectory]
        residuals += [abs(v - values[0]) / abs(values[0]) for v in values]
    worst = oracles.worst(residuals)
    assert worst < 1e-6
    report("criterion 3 (invariant conservation)", worst, 1e-6)


def test_criterion_4_complexity_constancy():
    ts = np.linspace(0.0, 5.0, 51)
    spreads = []
    for n in (0, 1, 2):
        values = []
        for sigma0 in (0.5, 2.0, 3.0):
            params = SuperconductorParams(sigma0=sigma0)
            values.extend(m.complexity_C for m in measures_along(params, n, ts))
        spreads.append(np.ptp(values))
    worst_spread = oracles.worst(spreads)
    assert worst_spread < 1e-7
    params = SuperconductorParams(sigma0=2.0)
    c0 = measures_along(params, 0, [0.0, 1.0])[0].complexity_C
    target = math.sqrt(math.e / 2.0)
    assert abs(c0 - target) < 1e-7
    report("criterion 4 (complexity constancy; C0 = sqrt(e/2))",
           oracles.worst([worst_spread, abs(c0 - target)]), 1e-7)


def test_criterion_5_dual_method_disequilibrium():
    residuals = []
    for sigma0 in (0.5, 2.0):
        params = SuperconductorParams(sigma0=sigma0)
        for t in (0.0, 0.8):
            state = rho_analytic(params, t)
            for n in range(4):
                snap = make_snapshot(params, state, n)
                closed = measures(snap, "closed_form").disequilibrium_D
                quad = measures(snap).disequilibrium_D
                residuals.append(abs(closed - quad) / quad)
    worst = oracles.worst(residuals)
    assert worst < 1e-8
    # hand-derived values
    params = SuperconductorParams(sigma0=2.0)
    state = rho_analytic(params, 0.9)
    snap0 = make_snapshot(params, state, 0)
    want0 = 1.0 / (state.rho * math.sqrt(2.0 * math.pi))
    got0 = measures(snap0, "closed_form").disequilibrium_D
    from tdq.observables import QuantumSnapshot
    unit1 = QuantumSnapshot(n=1, t=0.0, rho=1.0, rho_dot=0.0, L=1.0,
                            omega_sq=1.0, hbar=1.0)
    want1 = 3.0 / (4.0 * math.sqrt(2.0 * math.pi))
    got1 = measures(unit1, "closed_form").disequilibrium_D
    hand_worst = oracles.worst([abs(got0 - want0) / want0, abs(got1 - want1) / want1])
    assert hand_worst < 1e-9
    report("criterion 5 (dual-method disequilibrium)", oracles.worst([worst, hand_worst]),
           1e-8)


def test_criterion_6_entropy_scaling_and_closed_form():
    residuals = []
    ts = np.linspace(0.0, 5.0, 26)
    for n in (0, 1, 2):
        for sigma0 in (0.5, 2.0, 3.0):
            params = SuperconductorParams(sigma0=sigma0)
            shifted = [m.entropy_S - math.log(rho_analytic(params, float(t)).rho)
                       for t, m in zip(ts, measures_along(params, n, ts))]
            residuals.append(np.ptp(shifted))
            if n == 0:
                target = 0.5 + math.log(math.sqrt(math.pi * params.hbar))
                residuals += [abs(s - target) for s in shifted]
    worst = oracles.worst(residuals)
    assert worst < 1e-9
    # closed form: n = 0 must agree at 1e-9; n >= 1 is reported information
    params = SuperconductorParams(sigma0=2.0)
    state = rho_analytic(params, 0.5)
    snap0 = make_snapshot(params, state, 0)
    n0_residual = abs(measures(snap0, "closed_form").entropy_S
                      - measures(snap0).entropy_S)
    assert n0_residual < 1e-9
    for n in (1, 2, 3):
        snap = make_snapshot(params, state, n)
        residual = (measures(snap, "closed_form").entropy_S
                    - measures(snap).entropy_S)
        print(f"INFO criterion 6: closed-form entropy residual n={n}: "
              f"{residual:+.3e} (quadrature authoritative)")
    report("criterion 6 (entropy scaling; n=0 closed form)",
           oracles.worst([worst, n0_residual]), 1e-9)


def test_criterion_7_quantum_sanity():
    norms, q2s, floors = [], [], []
    for sigma0 in (0.5, 1.5, 3.0):
        params = SuperconductorParams(sigma0=sigma0)
        for t in (0.0, 0.5, 2.0):
            state = rho_analytic(params, t)
            for n in range(5):
                snap = make_snapshot(params, state, n)
                radius = truncation_radius(snap)
                nodes, weights = gauss_legendre(512, -radius, radius)
                p = density_values(snap, nodes)
                norms.append(abs(float(np.dot(weights, p)) - 1.0))
                q2 = moments(snap)[2]
                q2s.append(abs(float(np.dot(weights, p * nodes ** 2)) - q2) / q2)
                floors.append(params.hbar * (n + 0.5) - uncertainty_product(snap))
    worst_norm, worst_q2, worst_floor = map(oracles.worst, (norms, q2s, floors))
    assert worst_norm < 1e-8
    assert worst_q2 < 1e-7
    assert worst_floor < 1e-12
    # equality exactly when rho_dot = 0 (LC limit), strict otherwise
    lc_params = SuperconductorParams(sigma0=0.0)
    lc_snap = make_snapshot(lc_params, rho_analytic(lc_params, 1.0), 2)
    assert uncertainty_product(lc_snap) == pytest.approx(2.5, abs=1e-12)
    params = SuperconductorParams(sigma0=2.0)
    moving = make_snapshot(params, rho_analytic(params, 0.5), 2)
    assert uncertainty_product(moving) > 2.5 + 1e-6
    report("criterion 7 (normalization, moments, uncertainty floor)",
           oracles.worst([worst_norm, worst_q2, worst_floor]), 1e-7)


def test_criterion_8_figure_trends(tmp_path):
    # Fig. 1: H decreasing, D increasing, rates ordered by sigma0
    rows = run_cli_csv(tmp_path, "fig1.csv", "info",
                       "--sigma0", "2,2.5,3", "--n", "0",
                       "--t0", "0", "--t1", "2", "--steps", "21")
    series = {}
    for row in rows:
        series.setdefault(row["sigma0"], []).append((row["t"], row["H"], row["D_quad"]))
    for sigma0, data in series.items():
        hs = [d[1] for d in data]
        ds = [d[2] for d in data]
        assert all(b < a for a, b in zip(hs, hs[1:])), f"H not decreasing at {sigma0}"
        assert all(b > a for a, b in zip(ds, ds[1:])), f"D not increasing at {sigma0}"
    at_15 = {s: [d for d in data if abs(d[0] - 1.5) < 1e-9][0]
             for s, data in series.items()}
    assert at_15[3.0][1] < at_15[2.5][1] < at_15[2.0][1]
    assert at_15[3.0][2] > at_15[2.5][2] > at_15[2.0][2]

    # Fig. 2: P(0) larger for sigma0 = 3 than 0.5 at t = 0.5
    rows = run_cli_csv(tmp_path, "fig2.csv", "density",
                       "--sigma0", "0.5,3", "--n", "0",
                       "--t0", "0.5", "--t1", "1.0", "--steps", "2",
                       "--qmin", "-6", "--qmax", "6", "--qpoints", "601")
    peak = {}
    for row in rows:
        if row["t"] == 0.5 and row["q"] == 0.0:
            peak[row["sigma0"]] = row["P"]
    assert peak[3.0] > peak[0.5]

    # Fig. 3: P(0) increasing across t in {0, 0.5, 1} at sigma0 = 1.5
    rows = run_cli_csv(tmp_path, "fig3.csv", "density",
                       "--sigma0", "1.5", "--n", "0",
                       "--t0", "0", "--t1", "1", "--steps", "3",
                       "--qmin", "-6", "--qmax", "6", "--qpoints", "601")
    center = {row["t"]: row["P"] for row in rows if row["q"] == 0.0}
    assert center[0.0] < center[0.5] < center[1.0]

    # Fig. 4: energy per level decaying toward 0, faster for larger sigma0
    rows = run_cli_csv(tmp_path, "fig4.csv", "observables",
                       "--sigma0", "0.4,0.6,0.8", "--n", "0",
                       "--t0", "0", "--t1", "5", "--steps", "26")
    energy = {}
    for row in rows:
        energy.setdefault(row["sigma0"], {})[row["t"]] = row["energy_per_level"]
    ratios = {}
    for sigma0, curve in energy.items():
        ts = sorted(curve)
        values = [curve[t] for t in ts]
        assert all(b < a for a, b in zip(values, values[1:])), \
            f"energy not decaying at sigma0={sigma0}"
        ratios[sigma0] = curve[5.0] / curve[0.0]
        assert ratios[sigma0] < 0.65
    assert ratios[0.8] < ratios[0.6] < ratios[0.4]  # faster decay, larger sigma0
    assert energy[0.8][3.0] < energy[0.6][3.0] < energy[0.4][3.0]
    print("PASS criterion 8: all four figure trends reproduced")


def test_criterion_9_special_function_substrate():
    wronskians = []
    for nu in (0.5, 1.0, 1.5, 2.3):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            j, y, jp, yp = bessel_jy(nu, x)
            wronskian = j * yp - jp * y
            wronskians.append(abs(wronskian * math.pi * x / 2.0 - 1.0))
    worst_wronskian = oracles.worst(wronskians)
    assert worst_wronskian < 1e-8

    halves = []
    for x in (0.5, 1.0, 2.0, 5.0):
        pref = math.sqrt(2.0 / (math.pi * x))
        j_half, y_half, _, _ = bessel_jy(0.5, x)
        j_three_halves, y_three_halves, _, _ = bessel_jy(1.5, x)
        for got, want in (
                (j_half, pref * math.sin(x)),
                (y_half, -pref * math.cos(x)),
                (j_three_halves, pref * (math.sin(x) / x - math.cos(x))),
                (y_three_halves, -pref * (math.cos(x) / x + math.sin(x)))):
            halves.append(abs(got - want) / abs(want))
    worst_half = oracles.worst(halves)
    assert worst_half < 1e-12

    bells = []
    args = [1.0, -2.0, 3.0, 0.5, -1.5, 2.5, 0.25, -0.75]
    for m in range(1, 9):
        for l in range(1, m + 1):
            got = oracles.bell_partial(m, l, args[: m - l + 1])
            want = oracles.bell_by_partition_enumeration(m, l, args[: m - l + 1])
            bells.append(abs(got - want) / max(1.0, abs(want)))
    worst_bell = oracles.worst(bells)
    assert worst_bell < 1e-12

    nodes, weights = gauss_legendre(200, -10.0, 10.0)
    orths = []
    for m in range(7):
        hm = hermite_function(m, nodes)
        for n in range(7):
            got = float(np.dot(weights, hm * hermite_function(n, nodes)))
            orths.append(abs(got - (1.0 if m == n else 0.0)))
    worst_orth = oracles.worst(orths)
    assert worst_orth < 1e-8
    report("criterion 9 (special-function substrate)",
           oracles.worst([worst_wronskian, worst_half, worst_bell, worst_orth]), 1e-8)


def test_criterion_10_determinism(tmp_path):
    for name, argv in (
            ("rho", ["rho", "--sigma0", "0.5,2", "--steps", "11"]),
            ("info", ["info", "--steps", "5"]),
            ("density", ["density", "--qpoints", "101"]),
            ("verify-free", ["observables", "--steps", "7", "--format", "json"])):
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{name} output not byte-identical"
    print("PASS criterion 10: byte-identical reruns for every command")
