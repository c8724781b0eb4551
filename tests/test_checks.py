import math

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks

from conftest import equilibrium_initial, equilibrium_state, perturbed_initial


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


# reference: each member's phi, phi_t and phi_x written out in full for a
# horizon T, which the separable (1 - t/T) * shape(x) form must reproduce
def _reference_library(L, T):
    def sine(mode):
        w = mode * math.pi / L
        return (lambda t, x: (1.0 - t / T) * np.sin(w * x),
                lambda t, x: -np.sin(w * x) / T,
                lambda t, x: (1.0 - t / T) * w * np.cos(w * x))

    def hump_u(x):
        return x / L

    w = math.pi / L
    return {
        **{f"continuity_sine{k}": sine(k) for k in (1, 2, 3)},
        "continuity_parabola": (lambda t, x: (1.0 - t / T) * x ** 2,
                                lambda t, x: -x ** 2 / T,
                                lambda t, x: (1.0 - t / T) * 2.0 * x),
        "momentum_hump": (
            lambda t, x: (1.0 - t / T) * hump_u(x) * (1.0 - hump_u(x)) ** 2,
            lambda t, x: -hump_u(x) * (1.0 - hump_u(x)) ** 2 / T,
            lambda t, x: (1.0 - t / T) * (1.0 - hump_u(x)) * (1.0 - 3.0 * hump_u(x)) / L),
        "momentum_sine_sq": (
            lambda t, x: (1.0 - t / T) * np.sin(w * x) ** 2 * (1.0 - x / L),
            lambda t, x: -np.sin(w * x) ** 2 * (1.0 - x / L) / T,
            lambda t, x: (1.0 - t / T) * (2.0 * np.sin(w * x) * np.cos(w * x) * w
                                          * (1.0 - x / L) - np.sin(w * x) ** 2 / L)),
    }


def test_library_matches_reference_formulas():
    L, T = 1.3, 0.7
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.0, T, 1000)
    xs = rng.uniform(0.0, L, 1000)
    library = checks.test_function_library(L)
    reference = _reference_library(L, T)
    assert [tf.name for tf in library] == list(reference)
    for tf in library:
        phi, phi_t, phi_x = reference[tf.name]
        got_t, got_x = tf.derivatives(ts, T, xs)
        assert np.array_equal(got_t, phi_t(ts, xs))
        assert np.allclose((1.0 - ts / T) * tf.shape(xs), phi(ts, xs), rtol=1e-15, atol=1e-15)
        assert np.allclose(got_x, phi_x(ts, xs), rtol=1e-15, atol=1e-15)


def test_library_members_satisfy_constraints():
    # every member's phi_x vanishes at the final time; momentum members also
    # vanish at both walls, with zero slope at the ghost wall
    xs = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
    walls = np.array([0.0, 1.0])
    for tf in checks.test_function_library(1.0):
        assert np.max(np.abs(tf.derivatives(0.7, 0.7, xs)[1])) == 0.0
        if tf.kind == "momentum":
            for probe in (tf.shape(walls), tf.slope(walls[1:])):
                assert np.max(np.abs(probe)) <= 1e-13


def test_library_derivatives_match_finite_differences():
    h = 1e-7
    xs = np.random.default_rng(1).uniform(0.05, 0.95, 20)
    for tf in checks.test_function_library(1.0):
        fd = (tf.shape(xs + h) - tf.shape(xs - h)) / (2 * h)
        assert np.allclose(tf.slope(xs), fd, rtol=1e-5, atol=1e-9)


def _combine(alpha, tf_a, beta, tf_b):
    """alpha*tf_a + beta*tf_b; admissible by linearity."""

    def lin(fa, fb):
        return lambda x: alpha * fa(x) + beta * fb(x)

    return checks.TestFunction(name="combination", kind=tf_a.kind,
                               shape=lin(tf_a.shape, tf_b.shape),
                               slope=lin(tf_a.slope, tf_b.slope))


def _library(length=1.0):
    return {tf.name: tf for tf in checks.test_function_library(length)}


def test_zero_test_function_gives_zero_residual(sv, perturbed_series):
    init, series = perturbed_series
    base = _library()["continuity_sine1"]
    zero = _combine(0.0, base, 0.0, base)
    report = checks.continuity_residual(sv, series, init, zero)
    assert report.value == 0.0


def test_residual_linearity(sv, perturbed_series):
    init, series = perturbed_series
    library = _library()
    alpha, beta = 1.7, -0.4

    tf_a = library["continuity_sine1"]
    tf_b = library["continuity_parabola"]
    combo = _combine(alpha, tf_a, beta, tf_b)
    r_a = checks.continuity_residual(sv, series, init, tf_a).value
    r_b = checks.continuity_residual(sv, series, init, tf_b).value
    r_c = checks.continuity_residual(sv, series, init, combo).value
    assert r_c == pytest.approx(alpha * r_a + beta * r_b, rel=1e-10, abs=1e-14)

    tf_a = library["momentum_hump"]
    tf_b = library["momentum_sine_sq"]
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
    for report in checks.residuals(sv, series, init):
        assert abs(report.value) <= 1e-7


def test_residuals_equal_direct_calls(sv, perturbed_series):
    init, series = perturbed_series
    library = checks.test_function_library(sv.length)
    assert [tf.kind for tf in library] == ["continuity"] * 4 + ["momentum"] * 2
    direct = [checks.continuity_residual(sv, series, init, tf) for tf in library[:4]]
    direct += [checks.momentum_residual(sv, series, init, tf) for tf in library[4:]]
    assert checks.residuals(sv, series, init) == direct


def test_residuals_call_the_module_bindings(sv, perturbed_series, monkeypatch):
    # a tracer counts residual evaluations by rebinding these module names
    init, series = perturbed_series
    calls = []
    original = checks.continuity_residual

    def counted(*args):
        calls.append(args[3].name)
        return original(*args)

    monkeypatch.setattr(checks, "continuity_residual", counted)
    checks.residuals(sv, series, init)
    assert calls == [f"continuity_sine{k}" for k in (1, 2, 3)] + ["continuity_parabola"]


def test_residual_kind_checked(sv, perturbed_series):
    init, series = perturbed_series
    with pytest.raises(ValueError):
        checks.continuity_residual(sv, series, init, _library()["momentum_hump"])


def test_coarse_cadence_flags_inconclusive(sv):
    init = perturbed_initial(sv, 0.1)
    state0 = fc.build_particles(sv, init, 8)
    series = fc.simulate(sv, state0, 0.2, fc.IntegratorConfig(snapshot_dt=0.1))
    report = checks.continuity_residual(sv, series, init, _library()["continuity_sine1"])
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
    series = fc.simulate(sv, equilibrium_state(sv, 2), T,
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
    assert np.all(series.diagnostics.e_n == 0.0) and np.all(series.diagnostics.w_n == 0.0)


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


def test_observed_orders_pair_each_n_with_2n():
    row = checks.ConvergenceRow
    rows = [row(n=4, mass_error=4.0, residual_max=0.0, self_dist_rho=1.0),
            row(n=8, mass_error=1.0, residual_max=0.0), row(n=12, mass_error=1.0),
            row(n=16, error="failed")]
    # a zero, a missing value and a failed twin give no order
    assert checks.observed_orders(rows) == [(4, {"mass_error": 2.0})]


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
