import math

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks, integrate
from fluidchain.errors import ModelError, StiffnessError

from conftest import perturbed_initial


def _final_state(sv, rel_tol):
    state0 = fc.ParticleState(n=2, t=0.0, x=np.array([0.4]), v=np.array([0.0]))
    cfg = fc.IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, snapshot_dt=0.1)
    series = fc.simulate(sv, state0, 0.1, cfg)
    last = series.states[-1]
    return np.concatenate((last.x, last.v))


def test_config_validation():
    with pytest.raises(ValueError):
        fc.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        fc.IntegratorConfig(snapshot_dt=-0.1)
    with pytest.raises(ValueError):
        fc.IntegratorConfig(dt_init=0.0)


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("abs_tol", math.nan), ("snapshot_dt", math.nan),
    ("dt_init", math.nan), ("dt_max", math.nan), ("max_steps", math.nan),
    ("snapshot_dt", math.inf), ("dt_init", math.inf),
])
def test_config_rejects_nan_and_infinite(field, value):
    with pytest.raises(ValueError):
        fc.IntegratorConfig(**{field: value})


def test_equilibrium_is_a_fixed_point(sv):
    state0 = fc.equilibrium_state(sv, 8)
    series = fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.1))
    for state in series.states:
        assert np.max(np.abs(state.x - state0.x)) <= 1e-12
        assert np.max(np.abs(state.v)) <= 1e-12
    assert not series.warnings


def test_step_accepts_at_equilibrium(sv):
    state0 = fc.equilibrium_state(sv, 4)
    y = np.concatenate((state0.x, state0.v))
    accepted, y_new, _, factor = integrate._attempt(sv, 4, y, 1e-3, fc.IntegratorConfig())
    assert accepted
    assert np.allclose(y_new[:3], state0.x, atol=1e-10)
    assert factor > 1.0


def test_step_rejects_ordering_exit(sv):
    # packet racing towards the wall; a large trial step exits the domain
    y = np.array([0.05, -5.0])
    accepted, y_new, k_new, factor = integrate._attempt(sv, 2, y, 0.05, fc.IntegratorConfig())
    assert not accepted
    assert y_new is None and k_new is None
    assert factor == 0.5


def test_snapshot_times_exact(sv):
    state0 = fc.equilibrium_state(sv, 4)
    series = fc.simulate(sv, state0, 1.0, fc.IntegratorConfig(snapshot_dt=0.3))
    assert series.times == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    assert series.times[-1] == 1.0


def test_global_error_scales_with_tolerance(sv):
    ref = _final_state(sv, 1e-12)
    tols = np.array([1e-4, 1e-5, 1e-6, 1e-7])
    errs = np.array([np.max(np.abs(_final_state(sv, t) - ref)) for t in tols])
    slope = np.polyfit(np.log(tols), np.log(errs), 1)[0]
    assert 0.6 <= slope <= 1.5


def test_halving_tolerances_never_worsens(sv):
    ref = _final_state(sv, 1e-12)
    ladder = [1e-4, 5e-5, 2.5e-5, 1.25e-5]
    errs = [np.max(np.abs(_final_state(sv, t) - ref)) for t in ladder]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


def test_simulation_is_deterministic(sv):
    init = perturbed_initial(sv)
    state0 = fc.build_particles(sv, init, 12)
    cfg = fc.IntegratorConfig(snapshot_dt=0.05)
    one = fc.simulate(sv, state0, 0.3, cfg)
    two = fc.simulate(sv, state0, 0.3, cfg)
    assert one.times == two.times
    for a, b in zip(one.states, two.states):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)
    for a, b in zip(one.diagnostics, two.diagnostics):
        assert a == b
    assert one.stats.accepted == two.stats.accepted
    assert one.stats.rejected == two.stats.rejected


def test_states_stay_ordered_and_monitored(sv):
    init = perturbed_initial(sv, amplitude=0.3)
    state0 = fc.build_particles(sv, init, 16)
    series = fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.05))
    for state in series.states:
        gaps = fc.dynamics.gaps_from_interior(sv.length, state.x)
        assert np.all(gaps > 0.0)
    energies = [d.e_n for d in series.diagnostics]
    slack = 1e-8 * max(1.0, energies[0])
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))


def test_max_steps_guard(sv):
    init = perturbed_initial(sv)
    state0 = fc.build_particles(sv, init, 16)
    with pytest.raises(StiffnessError):
        fc.simulate(sv, state0, 1.0, fc.IntegratorConfig(max_steps=5))


def test_dt_underflow_reports_stiffness(sv):
    state0 = fc.equilibrium_state(sv, 4)
    with pytest.raises(StiffnessError) as err:
        fc.simulate(sv, state0, 1.0, fc.IntegratorConfig(dt_max=1e-20))
    assert "stiff" in str(err.value)


def test_small_amplitude_decay_matches_linearised_rate(sv):
    # independent physics oracle: for a small mode-1 kick the energy decays
    # like exp(2 Re(sigma) t) with sigma the root of
    # s^2 + s*(mu(rho*)/rho*)*k^2 + P'(rho*)*k^2 = 0, k = pi/L, where
    # P'(rho*) = g*rho* for the shallow-water law P = g*rho^2/2
    import cmath

    init = perturbed_initial(sv, 0.01)
    state0 = fc.build_particles(sv, init, 48)
    series = fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.05))
    e = [d.e_n for d in series.diagnostics]
    kap = np.pi / sv.length
    nu_eff = float(sv.viscosity(sv.rho_star)) / sv.rho_star
    c2 = sv.params["g"] * sv.rho_star
    sigma = (-nu_eff * kap ** 2
             + cmath.sqrt((nu_eff * kap ** 2) ** 2 - 4 * c2 * kap ** 2)) / 2
    predicted = np.exp(2 * sigma.real * 0.5)
    assert 0.7 <= (e[-1] / e[0]) / predicted <= 1.4


def test_ideal_gas_full_stack(ideal):
    init = perturbed_initial(ideal, 0.5)
    state0 = fc.build_particles(ideal, init, 16)
    series = fc.simulate(ideal, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.05))
    assert not series.warnings
    e = [d.e_n for d in series.diagnostics]
    assert e[-1] < e[0]
    masses = [d.mass for d in series.diagnostics]
    assert max(abs(m - ideal.m) for m in masses) < 0.05


def test_simulate_requires_growth_condition():
    weak = fc.make_preset("custom", {"pressure": {"coeff": 1.0, "exponent": 1.0},
                                     "viscosity": {"coeff": 1.0, "exponent": 1.0}},
                          m=1.0, length=1.0)
    state0 = fc.equilibrium_state(weak, 4)
    with pytest.raises(ModelError):
        fc.simulate(weak, state0, 0.1, fc.IntegratorConfig())


def test_decay_warnings_match_snapshot_scan(sv):
    # loose tolerances make E_n and W_n rise between snapshots; the warnings
    # must equal a scan of the records, by time with e_n before w_n
    init = perturbed_initial(sv, amplitude=0.2, mode=1)
    state0 = fc.build_particles(sv, init, 6)
    cfg = fc.IntegratorConfig(rel_tol=0.3, abs_tol=0.3, snapshot_dt=0.05)
    series = fc.simulate(sv, state0, 0.5, cfg)
    diag = series.diagnostics
    expected = []
    for j in range(1, len(diag)):
        for name in ("e_n", "w_n"):
            slack = 1e-8 * max(1.0, getattr(diag[0], name))
            now, before = getattr(diag[j], name), getattr(diag[j - 1], name)
            if now > before + slack:
                expected.append((series.times[j], name, now - before, slack))
    assert [(w.t, w.functional, w.amount, w.slack) for w in series.warnings] == expected
    assert {"e_n", "w_n"} == {name for _, name, _, _ in expected}
    report = checks.decay_report(series)
    assert report.e_n_violations == [(t, r) for t, name, r, _ in expected if name == "e_n"]
    assert report.w_n_violations == [(t, r) for t, name, r, _ in expected if name == "w_n"]
