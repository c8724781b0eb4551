"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run pytest with -s to see them inline).

Shared experiments:
* reference chain -- Saint-Venant g=9.81, nu=1, m=L=1 throughout;
* perturbed runs  -- constant density, v0 = 0.1 sin(pi x), T=1 (criteria 2-4, 6);
* rate runs       -- multi-harmonic density/velocity, T=0.25 (criteria 5, 7, 10),
  chosen so every measured quantity has an active first-order term;
* equilibrium run -- n=32, T=1 (criteria 1 and 5's zero-residual clause).
"""

import math
import time

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks, fields
from fluidchain.dynamics import gaps_from_interior, rhs_arrays

from conftest import (equilibrium_initial, multiharmonic_initial,
                      perturbed_initial, quadrature_reference, random_state,
                      snapshot_states)

RATE_T = 0.25
RATIO_LO, RATIO_HI = 1.5, 3.0


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def perturbed_runs(sv):
    init = perturbed_initial(sv, 0.1)
    runs = {}
    for n in (8, 16, 32, 64):
        state0 = fc.build_particles(sv, init, n)
        runs[n] = fc.simulate(sv, state0, 1.0, fc.IntegratorConfig())
    return init, runs


@pytest.fixture(scope="module")
def rate_runs(sv):
    init = multiharmonic_initial(sv)
    cfg = fc.IntegratorConfig(snapshot_dt=RATE_T / 100)
    runs = {}
    for n in (8, 16, 32, 64):
        state0 = fc.build_particles(sv, init, n)
        runs[n] = fc.simulate(sv, state0, RATE_T, cfg)
    return init, runs


@pytest.fixture(scope="module")
def equilibrium_run(sv):
    init = equilibrium_initial(sv)
    state0 = fc.build_particles(sv, init, 32)
    start = time.perf_counter()
    series = fc.simulate(sv, state0, 1.0, fc.IntegratorConfig())
    elapsed = time.perf_counter() - start
    return init, state0, series, elapsed


def test_criterion_01_equilibrium_fixed_point(sv, equilibrium_run):
    _, state0, series, elapsed = equilibrium_run
    deviation = max(
        float(np.max(np.abs(state.x - state0.x)) + np.max(np.abs(state.v)))
        for state in snapshot_states(series))
    ok = deviation <= 1e-10 and elapsed < 5.0
    _verdict(1, "equilibrium-fixed-point", ok,
             f"max deviation {deviation:.2e}, runtime {elapsed:.2f}s")


def test_criterion_02_discrete_energy_decay(sv, perturbed_runs):
    _, runs = perturbed_runs
    worst_jump = -math.inf
    for n in (16, 32, 64):
        series = runs[n]
        e = series.diagnostics.e_n.tolist()
        slack = 1e-8 * max(1.0, e[0])
        worst_jump = max(worst_jump,
                         max(b - a - slack for a, b in zip(e, e[1:])))
    decay_ok = worst_jump <= 0.0

    # analytic derivative of E_n along the flow vs finite differences
    rng = np.random.default_rng(2024)
    n, h = 16, 1e-6
    worst_rel = 0.0
    for _ in range(100):
        state = random_state(sv, n, rng)
        x, v = state.x, state.v
        dx, dv = rhs_arrays(sv, n, x, v)

        def e_of(xx, vv):
            return fc.functionals(sv, fc.ParticleState(n=n, t=0.0, x=xx, v=vv)).e_n

        dot = 0.0
        for j in range(n - 1):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            dot += (e_of(xp, v) - e_of(xm, v)) / (2 * h) * dx[j]
            vp, vm = v.copy(), v.copy()
            vp[j] += h
            vm[j] -= h
            dot += (e_of(x, vp) - e_of(x, vm)) / (2 * h) * dv[j]
        gains = np.asarray(sv.damping_gain(n * gaps_from_interior(sv.length, x)))
        full_v = np.concatenate(([0.0], v, [0.0]))
        dvel = full_v[:-1] - full_v[1:]
        closed = -sv.m * n * float(np.sum(gains * dvel ** 2))
        worst_rel = max(worst_rel, abs(dot - closed) / abs(closed))
    identity_ok = worst_rel <= 1e-6
    _verdict(2, "discrete-energy-decay", decay_ok and identity_ok,
             f"worst slack-adjusted jump {worst_jump:.2e}, "
             f"identity rel err {worst_rel:.2e} over 100 states")


def test_criterion_03_transformed_energy_decay(sv, perturbed_runs):
    _, runs = perturbed_runs
    worst_jump = -math.inf
    for n in (16, 32, 64):
        series = runs[n]
        w = series.diagnostics.w_n.tolist()
        slack = 1e-8 * max(1.0, w[0])
        worst_jump = max(worst_jump,
                         max(b - a - slack for a, b in zip(w, w[1:])))
    _verdict(3, "transformed-energy-decay", worst_jump <= 0.0,
             f"worst slack-adjusted jump {worst_jump:.2e}")


def test_criterion_04_mass_accuracy(sv, perturbed_runs):
    _, runs = perturbed_runs
    errs = {n: float(np.max(np.abs(runs[n].diagnostics.mass - sv.m)))
            for n in (8, 16, 32, 64)}
    ratios = [errs[n] / errs[2 * n] for n in (8, 16, 32)]
    ok = all(RATIO_LO <= r <= RATIO_HI for r in ratios)
    _verdict(4, "mass-accuracy", ok,
             "doubling ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_05_weak_form_residuals(sv, rate_runs, equilibrium_run):
    init, runs = rate_runs
    bad = []
    ratio_report = []
    reports = {n: checks.residuals(sv, runs[n], init) for n in (8, 16, 32, 64)}
    for k, name in enumerate(r.test_function for r in reports[8]):
        ratios = [abs(reports[n][k].value) / abs(reports[2 * n][k].value)
                  for n in (8, 16, 32)]
        ratio_report.append(f"{name} " + "/".join(f"{r:.2f}" for r in ratios))
        if not all(RATIO_LO <= r <= RATIO_HI for r in ratios):
            bad.append(name)

    eq_init, _, eq_series, _ = equilibrium_run
    worst_eq = max(abs(r.value) for r in checks.residuals(sv, eq_series, eq_init))
    ok = not bad and worst_eq <= 1e-8
    _verdict(5, "weak-form-residuals", ok,
             f"ratios [{'; '.join(ratio_report)}], "
             f"equilibrium max |residual| {worst_eq:.2e}")


def test_criterion_06_spacing_bounds(sv, perturbed_runs):
    _, runs = perturbed_runs
    worst_excess = -math.inf
    contained = True
    for n in (16, 32, 64):
        report = checks.envelope_check(sv, runs[n])
        worst_excess = max(worst_excess, report.max_envelope_excess)
        contained = contained and (report.a <= report.spacing_min_seen
                                   and report.spacing_max_seen <= report.b)
    ok = worst_excess <= 1e-8 and contained
    _verdict(6, "spacing-bounds", ok,
             f"max envelope excess {worst_excess:.2e}, containment {contained}")


def test_criterion_07_functional_gap(sv, rate_runs):
    _, runs = rate_runs
    gaps_e, gaps_w = {}, {}
    for n, series in runs.items():
        report = checks.decay_report(series)
        gaps_e[n] = float(np.max(np.abs(report.e_cont - series.diagnostics.e_n)))
        gaps_w[n] = float(np.max(np.abs(report.w_cont - series.diagnostics.w_n)))
    ratios_e = [gaps_e[n] / gaps_e[2 * n] for n in (8, 16, 32)]
    ratios_w = [gaps_w[n] / gaps_w[2 * n] for n in (8, 16, 32)]
    ok = all(RATIO_LO <= r <= RATIO_HI for r in ratios_e + ratios_w)
    _verdict(7, "discrete-continuous-gap", ok,
             "E ratios " + ", ".join(f"{r:.2f}" for r in ratios_e)
             + "; W ratios " + ", ".join(f"{r:.2f}" for r in ratios_w))


def test_criterion_08_admissibility_logic(sv, ideal):
    verdicts = []
    for amp in (0.1, 1.0, 10.0):
        report = fc.admissibility(ideal, perturbed_initial(ideal, amp))
        verdicts.append(report.admissible)
    sv_small = fc.admissibility(sv, perturbed_initial(sv, 0.01))
    sv_large = fc.admissibility(sv, perturbed_initial(sv, 10.0))
    ok = (all(verdicts) and sv_small.admissible and not sv_large.admissible
          and math.isfinite(sv_large.f_limit_low))
    _verdict(8, "admissibility-logic", ok,
             f"ideal-gas amplitudes 0.1/1/10 -> {verdicts}, "
             f"saint-venant 0.01 -> {sv_small.admissible}, "
             f"10 -> {sv_large.admissible} "
             f"(lhs {sv_large.lhs:.2f} vs limit {sv_large.f_limit_low:.3f})")


def _simpson_part_energy(model, rho, panels=8192):
    """Composite-Simpson oracle for the envelope energy part as a Richardson
    pair of S_h on 2*panels panels and S_2h on every other node: returns the
    extrapolation S_h + (S_h - S_2h)/15 and the error estimate of S_h,
    |S_h - S_2h|/15, which bounds it.  Integrates in log-density when the
    limits span more than 3 decades."""
    rho_star = model.rho_star
    lo, hi = min(rho, rho_star), max(rho, rho_star)
    sign = 1.0 if rho > rho_star else -1.0

    def integrand(s):
        q = np.asarray(model.compression_energy(s))
        return s ** -1.5 * np.asarray(model.viscosity(s)) * np.sqrt(np.maximum(q, 0.0))

    if hi / lo <= 1e3:
        s = np.linspace(lo, hi, 4 * panels + 1)
        f = integrand(s)
    else:
        u = np.linspace(math.log(lo), math.log(hi), 4 * panels + 1)
        s = np.exp(u)
        f = integrand(s) * s
        lo, hi = u[0], u[-1]

    def simpson(f):
        h = (hi - lo) / (f.size - 1)
        return sign * (h / 3.0) * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum()
                                   + 2.0 * f[2:-2:2].sum())

    fine = simpson(f)
    correction = (fine - simpson(f[::2])) / 15.0
    return fine + correction, abs(correction)


def test_criterion_09_closed_forms_vs_quadrature(sv, ideal, isentropic, power_law,
                                                 callable_models):
    worst_quad = 0.0
    worst_simpson = 0.0
    worst_estimate = 0.0
    closed_form = (sv, ideal, isentropic, power_law)
    # the callable models' functions all come from Gauss tables
    for model in (*closed_form, *callable_models):
        for rho in model.probe_grid():
            rho = float(rho)
            s = model.m / rho
            ref = quadrature_reference(model, rho)
            pairs = (
                (model.viscous_potential(rho), ref["viscous_potential"]),
                (model.compression_energy(rho), ref["compression_energy"]),
                (model.spacing_potential(s), ref["spacing_potential"]),
                (model.damping_potential(s), -ref["viscous_potential"] / model.m),
                (model.envelope_parts(rho)[1], ref["part_visc"]),
                # closed at gamma = 2, a Gauss table elsewhere
                (model.envelope_parts(rho)[0], ref["part_energy"]),
            )
            for value, quadrature in pairs:
                scale = max(abs(value), abs(quadrature), 1e-300)
                if value != quadrature:
                    worst_quad = max(worst_quad, abs(value - quadrature) / scale)
            # the Simpson oracle checks the energy part of the four
            # closed-form fixtures; the callable models' is checked against
            # quadrature above
            if rho != model.rho_star and model in closed_form:
                part = model.envelope_parts(rho)[0]
                oracle, estimate = _simpson_part_energy(model, rho)
                worst_simpson = max(worst_simpson, abs(part - oracle) / abs(oracle))
                worst_estimate = max(worst_estimate, estimate / abs(oracle))
    ok = worst_quad <= 1e-8 and worst_simpson <= 1e-6 and worst_estimate <= 1e-7
    _verdict(9, "closed-form-vs-quadrature", ok,
             f"worst closed/quad rel {worst_quad:.2e}, "
             f"worst energy-part/Simpson rel {worst_simpson:.2e} "
             f"(Simpson's own estimate {worst_estimate:.2e})")


def test_criterion_10_self_convergence(sv, rate_runs):
    _, runs = rate_runs
    grid = np.linspace(0.0, sv.length, 1024)
    samples = {}
    for n, series in runs.items():
        rho = np.empty((len(series), grid.size))
        vel = np.empty_like(rho)
        for j, x in enumerate(series.x):
            rho[j] = fields.sample(x, series.rho[j], grid)
            vel[j] = fields.sample(x, series.v[j], grid)
        samples[n] = (rho, vel)
    dist_rho, dist_v = {}, {}
    for n in (8, 16, 32):
        dist_rho[n] = float(np.max(np.sqrt(np.trapezoid(
            (samples[2 * n][0] - samples[n][0]) ** 2, grid, axis=1))))
        dist_v[n] = float(np.max(np.sqrt(np.trapezoid(
            (samples[2 * n][1] - samples[n][1]) ** 2, grid, axis=1))))
    ok = (dist_rho[8] > dist_rho[16] > dist_rho[32]
          and dist_v[8] > dist_v[16] > dist_v[32])
    _verdict(10, "self-convergence", ok,
             "rho distances " + ", ".join(f"{dist_rho[n]:.2e}" for n in (8, 16, 32))
             + "; v distances " + ", ".join(f"{dist_v[n]:.2e}" for n in (8, 16, 32)))
