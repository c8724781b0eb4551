import math

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks

from conftest import equilibrium_initial, perturbed_initial


@pytest.fixture(scope="module")
def eq_series(sv):
    init = equilibrium_initial(sv)
    state0 = fc.build_particles(sv, init, 8)
    return init, fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.025))


@pytest.fixture(scope="module")
def perturbed_series(sv):
    init = perturbed_initial(sv, 0.1)
    state0 = fc.build_particles(sv, init, 16)
    return init, fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.025))


def test_library_members_satisfy_constraints():
    # every member vanishes at the final time; momentum members also vanish
    # at both walls, with zero slope at the ghost wall, at all times
    rng = np.random.default_rng(0)
    ts = rng.uniform(0.0, 0.7, 1000)
    xs = rng.uniform(0.0, 1.0, 1000)
    for tf in checks.test_function_library(1.0, 0.7):
        assert np.max(np.abs(tf.phi(0.7, xs))) <= 1e-13
        if tf.kind == "momentum":
            for probe in (tf.phi(ts, 0.0), tf.phi(ts, 1.0), tf.phi_x(ts, 1.0)):
                assert np.max(np.abs(probe)) <= 1e-13


def test_library_derivatives_match_finite_differences():
    h = 1e-7
    rng = np.random.default_rng(1)
    for tf in checks.test_function_library(1.0, 0.7):
        for _ in range(20):
            t = rng.uniform(0.0, 0.7)
            x = rng.uniform(0.05, 0.95)
            fd_t = (tf.phi(t + h, x) - tf.phi(t - h, x)) / (2 * h)
            fd_x = (tf.phi(t, x + h) - tf.phi(t, x - h)) / (2 * h)
            assert float(tf.phi_t(t, x)) == pytest.approx(float(fd_t), rel=1e-5, abs=1e-9)
            assert float(tf.phi_x(t, x)) == pytest.approx(float(fd_x), rel=1e-5, abs=1e-9)


def _combine(alpha, tf_a, beta, tf_b):
    """alpha*tf_a + beta*tf_b; admissible by linearity."""

    def lin(fa, fb):
        return lambda t, x: alpha * fa(t, x) + beta * fb(t, x)

    return checks.TestFunction(
        name="combination", kind=tf_a.kind, horizon=tf_a.horizon,
        phi=lin(tf_a.phi, tf_b.phi), phi_t=lin(tf_a.phi_t, tf_b.phi_t),
        phi_x=lin(tf_a.phi_x, tf_b.phi_x))


def test_zero_test_function_gives_zero_residual(sv, perturbed_series):
    init, series = perturbed_series
    base = checks.sine_test_function(1.0, series.times[-1], 1)
    zero = _combine(0.0, base, 0.0, base)
    report = checks.continuity_residual(sv, series, init, zero)
    assert report.value == 0.0


def test_residual_linearity(sv, perturbed_series):
    init, series = perturbed_series
    horizon = series.times[-1]
    alpha, beta = 1.7, -0.4

    tf_a = checks.sine_test_function(1.0, horizon, 1)
    tf_b = checks.parabola_test_function(1.0, horizon)
    combo = _combine(alpha, tf_a, beta, tf_b)
    r_a = checks.continuity_residual(sv, series, init, tf_a).value
    r_b = checks.continuity_residual(sv, series, init, tf_b).value
    r_c = checks.continuity_residual(sv, series, init, combo).value
    assert r_c == pytest.approx(alpha * r_a + beta * r_b, rel=1e-10, abs=1e-14)

    tf_a = checks.hump_test_function(1.0, horizon)
    tf_b = checks.sine_sq_test_function(1.0, horizon)
    combo = _combine(alpha, tf_a, beta, tf_b)
    r_a = checks.momentum_residual(sv, series, init, tf_a).value
    r_b = checks.momentum_residual(sv, series, init, tf_b).value
    r_c = checks.momentum_residual(sv, series, init, combo).value
    assert r_c == pytest.approx(alpha * r_a + beta * r_b, rel=1e-10, abs=1e-14)


def test_equilibrium_residuals_vanish(sv, eq_series):
    # the 3-point-Gauss remainder of the non-polynomial momentum function
    # scales like n^-6; at this n=8 smoke scale that allows ~1e-7 (the
    # acceptance suite enforces 1e-8 at n=32)
    init, series = eq_series
    for tf in checks.test_function_library(1.0, series.times[-1]):
        fn = (checks.continuity_residual if tf.kind == "continuity"
              else checks.momentum_residual)
        assert abs(fn(sv, series, init, tf).value) <= 1e-7


def test_residual_kind_and_horizon_checked(sv, perturbed_series):
    init, series = perturbed_series
    wrong_kind = checks.hump_test_function(1.0, series.times[-1])
    with pytest.raises(ValueError):
        checks.continuity_residual(sv, series, init, wrong_kind)
    wrong_horizon = checks.sine_test_function(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        checks.continuity_residual(sv, series, init, wrong_horizon)


def test_coarse_cadence_flags_inconclusive(sv):
    init = perturbed_initial(sv, 0.1)
    state0 = fc.build_particles(sv, init, 8)
    series = fc.simulate(sv, state0, 0.2, fc.IntegratorConfig(snapshot_dt=0.1))
    tf = checks.sine_test_function(1.0, 0.2, 1)
    report = checks.continuity_residual(sv, series, init, tf)
    assert report.inconclusive
    assert math.isnan(report.quad_error)


def test_simpson_helper():
    ts = np.linspace(0.0, 2.0, 9)
    assert checks._simpson(ts, ts ** 3) == pytest.approx(4.0, rel=1e-13)
    ts = np.linspace(0.0, 2.0, 8)     # odd interval count -> 3/8 tail
    assert checks._simpson(ts, ts ** 3) == pytest.approx(4.0, rel=1e-13)
    ts = np.array([0.0, 1.0])
    assert checks._simpson(ts, np.array([1.0, 3.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        checks._simpson(np.array([0.0, 0.1, 0.5]), np.zeros(3))


@pytest.mark.parametrize("T, snapshot_dt, uniform", [
    (1.0, 0.01, True), (0.5, 0.01, True), (0.08, 0.01, True), (0.5, 0.0025, True),
    (0.2, 0.01, True), (0.04, 0.01, True), (0.05, 0.1, True), (0.25, 0.1, False),
])
def test_uniform_cadence_follows_snapshot_times(sv, T, snapshot_dt, uniform):
    assert checks.uniform_cadence(T, snapshot_dt) is uniform
    series = fc.simulate(sv, fc.equilibrium_state(sv, 2), T,
                         fc.IntegratorConfig(snapshot_dt=snapshot_dt))
    if uniform:
        checks._simpson(series.times, np.zeros(len(series)))
    else:
        with pytest.raises(ValueError):
            checks._simpson(series.times, np.zeros(len(series)))


def test_decay_report_equilibrium(sv, eq_series):
    init, series = eq_series
    consts = fc.budget_constants(sv, init)
    report = checks.decay_report(series, w_budget=consts.w_bar)
    assert report.ok
    assert not report.e_cont_violations
    assert report.w_avg_max == pytest.approx(0.0, abs=1e-12)
    assert all(d.e_n == 0.0 and d.w_n == 0.0 for d in series.diagnostics)


def test_decay_report_perturbed(sv, perturbed_series):
    init, series = perturbed_series
    consts = fc.budget_constants(sv, init)
    report = checks.decay_report(series, w_budget=consts.w_bar)
    assert report.discrete_ok
    assert not report.w_avg_violations
    assert report.w_avg_max <= consts.w_bar + 1e-6


def test_envelope_check_perturbed(sv, perturbed_series):
    _, series = perturbed_series
    report = checks.envelope_check(sv, series)
    assert report.ok
    assert report.a <= report.spacing_min_seen
    assert report.spacing_max_seen <= report.b
    assert report.max_envelope_excess <= 1e-8


def test_convergence_study_equilibrium(sv):
    init = equilibrium_initial(sv)
    rows = checks.convergence_study(sv, init, [8, 16], 0.2,
                                    fc.IntegratorConfig(snapshot_dt=0.02))
    assert [row.n for row in rows] == [8, 16]
    first = rows[0]
    assert first.error is None
    assert first.mass_error <= 1e-12
    assert first.residual_max <= 1e-7
    assert first.self_dist_rho <= 1e-12
    assert first.self_dist_v <= 1e-12
    assert rows[1].self_dist_rho is None


def test_convergence_study_continues_past_failures(sv):
    init = perturbed_initial(sv, 0.1)
    rows = checks.convergence_study(sv, init, [4, 8], 0.5,
                                    fc.IntegratorConfig(max_steps=5))
    assert all(row.error is not None for row in rows)
    with pytest.raises(ValueError):
        checks.convergence_study(sv, init, [8, 4], 0.1, fc.IntegratorConfig())


def test_convergence_study_rejects_uneven_cadence_before_simulating(sv, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the snapshot cadence")

    monkeypatch.setattr(checks, "simulate", no_simulation)
    with pytest.raises(ValueError, match="not a multiple of snapshot_dt"):
        checks.convergence_study(sv, perturbed_initial(sv, 0.1), [8, 16], 0.25,
                                 fc.IntegratorConfig(snapshot_dt=0.1))
