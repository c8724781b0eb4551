import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks, fields, integrate
from fluidchain.dynamics import gaps_from_interior, rhs_arrays
from fluidchain.errors import DomainError, ModelError, StiffnessError

from conftest import (equilibrium_state, padded, perturbed_initial, random_state, rhs,
                      snapshot_states)


def padded_rhs(model, n, x, v):
    """The rhs at (x, v) as the workspace's stage row [0, dx, 0 | 0, dv, 0],
    through the integrator's binding, which a test may patch."""
    dx, dv = rhs(model, n, x, v, integrate.rhs_arrays)
    return np.concatenate(((0.0,), dx, (0.0, 0.0), dv, (0.0,)))


def _final_state(sv, rel_tol):
    state0 = fc.ParticleState(n=2, t=0.0, x=np.array([0.4]), v=np.array([0.0]))
    cfg = fc.IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, snapshot_dt=0.1)
    series = fc.simulate(sv, state0, 0.1, cfg)
    return np.concatenate((series.x[-1, 1:-1], series.v[-1, 1:-1]))


def test_config_validation():
    with pytest.raises(ValueError):
        fc.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        fc.IntegratorConfig(snapshot_dt=-0.1)


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("abs_tol", math.nan), ("snapshot_dt", math.nan),
    ("max_steps", math.nan), ("snapshot_dt", math.inf),
    ("rel_tol", math.inf), ("abs_tol", math.inf), ("max_steps", 2.5), ("max_steps", True),
    ("max_steps", 0),
])
def test_config_rejects_nan_and_infinite(field, value):
    with pytest.raises(ValueError):
        fc.IntegratorConfig(**{field: value})
    with pytest.raises(ValueError):
        fc.IntegratorConfig()._replace(**{field: value})


def test_equilibrium_is_a_fixed_point(sv):
    state0 = equilibrium_state(sv, 8)
    series = fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.1))
    for state in snapshot_states(series):
        assert np.max(np.abs(state.x - state0.x)) <= 1e-12
        assert np.max(np.abs(state.v)) <= 1e-12
    assert not series.warnings


def test_step_accepts_at_equilibrium(sv):
    state0 = equilibrium_state(sv, 4)
    y = np.concatenate((state0.x, state0.v))
    ws = integrate._Workspace(sv, 4, y)
    assert ws.K[0].tobytes() == padded(sv, state0.x, state0.v).tobytes()
    accepted, y_new, widths, factor, cause = integrate._attempt(sv, 4, ws.K[0], 1e-3,
                                                                fc.IntegratorConfig(), ws)
    assert accepted and cause is None
    assert np.allclose(y_new[1:4], state0.x, atol=1e-10)
    assert factor > 1.0
    # the widths and row 1 are those at the candidate
    assert widths.tobytes() == gaps_from_interior(sv.length, y_new[1:4]).tobytes()
    assert ws.K[1].tobytes() == padded_rhs(sv, 4, y_new[1:4], y_new[6:9]).tobytes()


def test_step_rejects_ordering_exit(sv):
    # packet racing towards the wall; a large trial step exits the domain
    y = np.array([0.05, -5.0])
    ws = integrate._Workspace(sv, 2, y)
    k1 = ws.K[1].copy()
    accepted, y_new, widths, factor, cause = integrate._attempt(sv, 2, ws.K[0], 0.05,
                                                                fc.IntegratorConfig(), ws)
    assert not accepted
    assert y_new is None and widths is None
    assert ws.K[1].tobytes() == k1.tobytes()     # row 1 is still the rhs at y
    assert factor == 0.5
    assert cause == "domain"


def test_attempt_reports_each_rejection_cause(sv, monkeypatch):
    cfg = fc.IntegratorConfig()

    def cause(model, n, y, dt):
        ws = integrate._Workspace(model, n, y)
        return integrate._attempt(model, n, ws.K[0], dt, cfg, ws)[4]

    # the 2-particle packet racing into the wall leaves the ordered domain
    assert cause(sv, 2, np.array([0.05, -5.0]), 0.05) == "domain"
    # an ordered step far above the error-controlled size fails the error test
    state = fc.build_particles(sv, perturbed_initial(sv, 0.1), 8)
    y = np.concatenate((state.x, state.v))
    assert cause(sv, 8, y, 1e-3) is None
    assert cause(sv, 8, y, 1e-2) == "error"
    # NaN accelerations at the last stage make the error ratio NaN
    calls = []

    def nan_at_last_stage(model, n, out, work):
        calls.append(None)
        widths = rhs_arrays(model, n, out, work)
        if len(calls) == 6:
            out[1][:] *= math.nan
        return widths

    ws = integrate._Workspace(sv, 8, y)
    monkeypatch.setattr(integrate, "rhs_arrays", nan_at_last_stage)
    out = integrate._attempt(sv, 8, ws.K[0], 1e-3, cfg, ws)
    assert len(calls) == 6
    assert out[0] is False and out[3] == 0.5 and out[4] == "nonfinite"


def test_rejections_by_cause_sum_to_rejected(sv):
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.1), 16)
    stats = fc.simulate(sv, state0, 0.05, fc.IntegratorConfig(snapshot_dt=0.05)).stats
    assert sorted(stats.rejected_by) == ["domain", "error", "nonfinite"]
    assert sum(stats.rejected_by.values()) == stats.rejected > 0


def test_simulate_calls_rhs_once_to_start_and_six_times_per_trial(any_model, monkeypatch):
    # the count the benchmark's tracer reads as rhs calls per step: one at
    # the initial state, then one per stage of every trial, accepted or
    # rejected, as long as no stage leaves the domain
    calls = []

    def counting(model, n, out, work):
        calls.append(None)
        return rhs_arrays(model, n, out, work)

    monkeypatch.setattr(integrate, "rhs_arrays", counting)
    state0 = fc.build_particles(any_model, perturbed_initial(any_model, 0.1), 16)
    stats = fc.simulate(any_model, state0, 0.05, fc.IntegratorConfig(snapshot_dt=0.05)).stats
    assert stats.rejected_by["domain"] == 0 and stats.rejected > 0
    assert len(calls) == 1 + 6 * (stats.accepted + stats.rejected)


def test_step_rejects_nonfinite_velocity(any_model):
    # rhs_arrays tests no velocity: a NaN one gives NaN accelerations, with
    # no warning, and the trial that carries it is rejected
    x = any_model.length * np.array([0.75, 0.5, 0.25])
    v = np.array([0.1, np.nan, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dx, dv = rhs(any_model, 4, x, v)
    assert np.isnan(dx[1]) and np.isnan(dv).any()
    y = np.concatenate((x, v))
    ws = integrate._Workspace(any_model, 4, y)
    assert np.array_equal(ws.K[1], np.concatenate(((0.0,), dx, (0.0, 0.0), dv, (0.0,))),
                          equal_nan=True)
    accepted, y_new, widths, factor, cause = integrate._attempt(
        any_model, 4, ws.K[0], 1e-4, fc.IntegratorConfig(), ws)
    assert not accepted
    assert y_new is None and widths is None
    assert factor == 0.5
    assert cause == "domain"          # the NaN velocity moves the next stage's positions


def test_snapshot_times_exact(sv):
    state0 = equilibrium_state(sv, 4)
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
    for name in ("x", "rho", "v"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    for a, b in zip(one.diagnostics, two.diagnostics, strict=True):
        assert a.tobytes() == b.tobytes()
    assert one.stats.accepted == two.stats.accepted
    assert one.stats.rejected == two.stats.rejected


def test_diagnostic_columns_are_each_snapshots_own(any_model):
    # the one pass over the rows, in blocks, gives bit for bit what the
    # per-state functions give for each snapshot's state, an E_n or W_n of
    # rounding size below 0 read as 0
    def clamp(value):
        return 0.0 if -1e-14 <= value < 0.0 else value

    init = perturbed_initial(any_model, 0.1)
    # the last snapshot interval is a truncated half
    series = fc.simulate(any_model, fc.build_particles(any_model, init, 7),
                         0.002 * (fields.BLOCK + 3.5), fc.IntegratorConfig(snapshot_dt=0.002))
    diag = series.diagnostics
    assert len(series) > fields.BLOCK
    assert series.times[-1] - series.times[-2] < 0.0012
    assert all(column.shape == (len(series),) for column in diag)
    for j, state in enumerate(snapshot_states(series)):
        f = fc.functionals(any_model, state)
        x, rho, v = fc.reconstruct(any_model, state)
        for stored, fresh in zip((series.x, series.rho, series.v), (x, rho, v)):
            assert stored[j].tobytes() == fresh.tobytes()
        spacings = state.n * gaps_from_interior(any_model.length, state.x)
        expected = (clamp(f.e_n), clamp(f.w_n), f.z_n, f.h_n, fc.total_mass(x, rho),
                    spacings.min(), spacings.max())
        assert np.array([column[j] for column in diag]).tobytes() \
            == np.array(expected).tobytes()


def test_states_stay_ordered_and_monitored(sv):
    init = perturbed_initial(sv, amplitude=0.3)
    state0 = fc.build_particles(sv, init, 16)
    series = fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.05))
    for state in snapshot_states(series):
        gaps = fc.dynamics.gaps_from_interior(sv.length, state.x)
        assert np.all(gaps > 0.0)
    energies = series.diagnostics.e_n.tolist()
    slack = 1e-8 * max(1.0, energies[0])
    assert all(b <= a + slack for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(sv, T):
    cfg = fc.IntegratorConfig(snapshot_dt=0.1)
    with pytest.raises(ValueError, match="horizon"):
        fc.simulate(sv, equilibrium_state(sv, 4), T, cfg)
    with pytest.raises(ValueError, match="horizon"):
        checks.convergence_study(sv, perturbed_initial(sv), [4, 8], T, cfg)


@pytest.mark.parametrize("snapshot_dt", [5e-324, (1.0 - 1e-9) / integrate.MAX_SNAPSHOTS],
                         ids=["ratio_infinite", "just_above_bound"])
def test_snapshot_count_is_refused_above_the_bound(sv, snapshot_dt):
    # refused before a target list or a row is built
    cfg = fc.IntegratorConfig(snapshot_dt=snapshot_dt)
    assert not 1.0 / snapshot_dt <= integrate.MAX_SNAPSHOTS
    with pytest.raises(ValueError, match="snapshot_dt"):
        fc.simulate(sv, equilibrium_state(sv, 4), 1.0, cfg)
    with pytest.raises(ValueError, match="snapshot_dt"):
        checks.uniform_cadence(1.0, snapshot_dt)
    with pytest.raises(ValueError, match="snapshot_dt"):
        checks.convergence_study(sv, perturbed_initial(sv), [4, 8], 1.0, cfg)


def test_snapshot_count_at_the_bound_is_kept(monkeypatch):
    monkeypatch.setattr(integrate, "MAX_SNAPSHOTS", 10)
    assert len(integrate._snapshot_targets(1.0, 0.1)) == 10
    with pytest.raises(ValueError, match="at most 10"):
        integrate._snapshot_targets(1.0, 0.0999)


def test_simulate_rebuilds_only_the_initial_state(sv, monkeypatch):
    # every other snapshot's rows come from the accepted padded state
    calls, reconstruct = [], fields.reconstruct

    def counted(model, state):
        calls.append(state)
        return reconstruct(model, state)

    monkeypatch.setattr(fields, "reconstruct", counted)
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.1), 8)
    series = fc.simulate(sv, state0, 0.1, fc.IntegratorConfig(snapshot_dt=0.02))
    assert len(series) == 6
    assert len(calls) == 1 and calls[0] is state0


def test_max_steps_guard(sv):
    init = perturbed_initial(sv)
    state0 = fc.build_particles(sv, init, 16)
    with pytest.raises(StiffnessError):
        fc.simulate(sv, state0, 1.0, fc.IntegratorConfig(max_steps=5))


def test_dt_underflow_reports_stiffness(sv, monkeypatch):
    # every trial rejected and shrunk by 5 drives the step below the floor
    monkeypatch.setattr(integrate, "_attempt", lambda *a: (False, None, None, 0.2, "error"))
    state0 = equilibrium_state(sv, 4)
    with pytest.raises(StiffnessError) as err:
        fc.simulate(sv, state0, 1.0, fc.IntegratorConfig())
    # the message names only a remedy that exists: there is no implicit stepper
    assert str(err.value).endswith(
        "the viscous coupling is too stiff for the explicit pair -- reduce n")
    assert "implicit" not in str(err.value)


def test_small_amplitude_decay_matches_linearised_rate(sv):
    # independent physics oracle: for a small mode-1 kick the energy decays
    # like exp(2 Re(sigma) t) with sigma the root of
    # s^2 + s*(mu(rho*)/rho*)*k^2 + P'(rho*)*k^2 = 0, k = pi/L, where
    # P'(rho*) = g*rho* for the shallow-water law P = g*rho^2/2
    import cmath

    init = perturbed_initial(sv, 0.01)
    state0 = fc.build_particles(sv, init, 48)
    series = fc.simulate(sv, state0, 0.5, fc.IntegratorConfig(snapshot_dt=0.05))
    e = series.diagnostics.e_n
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
    e = series.diagnostics.e_n
    assert e[-1] < e[0]
    assert np.max(np.abs(series.diagnostics.mass - ideal.m)) < 0.05


def test_simulate_requires_growth_condition():
    # the condition is checked where the laws enter: a law that fails it
    # is refused before there is a model to simulate
    with pytest.raises(ModelError, match="growth condition"):
        fc.FluidModel.power_law(1.0, 1.0, 1.0, 1.0, m=1.0, length=1.0)


def test_decay_warnings_match_snapshot_scan(sv):
    # loose tolerances make E_n and W_n rise between snapshots; the warnings
    # must equal a scan of the records, by time with e_n before w_n
    init = perturbed_initial(sv, amplitude=0.2, mode=1)
    state0 = fc.build_particles(sv, init, 6)
    cfg = fc.IntegratorConfig(rel_tol=0.3, abs_tol=0.3, snapshot_dt=0.05)
    series = fc.simulate(sv, state0, 0.5, cfg)
    diag = series.diagnostics
    expected = []
    for j in range(1, len(series)):
        for name in ("e_n", "w_n"):
            column = getattr(diag, name).tolist()
            slack = 1e-8 * max(1.0, column[0])
            now, before = column[j], column[j - 1]
            if now > before + slack:
                expected.append((series.times[j], name, now - before, slack))
    assert [(w.t, w.functional, w.amount, w.slack) for w in series.warnings] == expected
    assert {"e_n", "w_n"} == {name for _, name, _, _ in expected}
    report = checks.decay_report(series)
    assert report.e_n_violations == [(t, r) for t, name, r, _ in expected if name == "e_n"]
    assert report.w_n_violations == [(t, r) for t, name, r, _ in expected if name == "w_n"]


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_first_step_is_on_the_scale_of_the_accepted_steps(sv, monkeypatch, n):
    # the first step comes from the viscous time of the initial cells, so it
    # falls like n^-2, as the accepted steps do
    attempts = []
    attempt = integrate._attempt

    def recording(*args):
        out = attempt(*args)
        attempts.append((args[3], out[0]))      # (dt, accepted)
        return out

    monkeypatch.setattr(integrate, "_attempt", recording)
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.1), n)
    fc.simulate(sv, state0, 0.05, fc.IntegratorConfig(snapshot_dt=0.05))
    median = float(np.median([dt for dt, accepted in attempts if accepted]))
    assert attempts[0][0] >= median / 20.0


def test_every_attempt_starts_from_the_rhs_at_its_state(sv, monkeypatch):
    # first-same-as-last: the first stage an attempt receives, whether from
    # the initial state, an accepted step or a rejected one, is the rhs at y
    outcomes = []
    attempt = integrate._attempt

    def checking(model, n, y, dt, cfg, ws):
        assert np.shares_memory(y, ws.K[0])
        assert ws.K[1].tobytes() == padded_rhs(model, n, y[1:n], y[n + 2:-1]).tobytes()
        out = attempt(model, n, y, dt, cfg, ws)
        outcomes.append(out[0])
        return out

    monkeypatch.setattr(integrate, "_attempt", checking)
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.1), 16)
    series = fc.simulate(sv, state0, 0.05, fc.IntegratorConfig(snapshot_dt=0.05))
    assert outcomes.count(False) == series.stats.rejected > 0
    assert outcomes.count(True) == series.stats.accepted


@pytest.mark.parametrize("make", [
    lambda: fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=1.0, length=1.0),
    lambda: fc.FluidModel.ideal_gas_entropy(c=1.0, gamma=1.4, visc_amp=1.0, m=1.0, length=1.0),
], ids=["saint_venant", "ideal_gas_entropy"])
def test_simulate_never_evaluates_the_energy_envelope(monkeypatch, make):
    # the spacing band [a, b] bounds the existence argument, not the step
    model = make()

    def unavailable(self, rho):
        raise AssertionError("simulate evaluated the energy envelope")

    monkeypatch.setattr(fc.FluidModel, "energy_envelope", unavailable)
    state0 = fc.build_particles(model, perturbed_initial(model, 0.1), 16)
    series = fc.simulate(model, state0, 0.1, fc.IntegratorConfig(snapshot_dt=0.05))
    assert series.times[-1] == 0.1


# -- the allocate-per-stage trial and step loop the workspace replaced -------

def reference_attempt(model, n, y, dt, cfg, k1):
    """One DP5 trial with fresh arrays for every stage, the error and the
    scale, on the workspace's wall-padded rows: ``y`` is the padded state,
    ``k1`` the padded rhs at y, and each stage state sums y with weight 1
    and the stage rows with dt times the tableau."""
    k = np.zeros((8, y.size))
    k[0], k[1] = y, k1
    try:
        for s in range(6):
            weights = np.concatenate(((1.0,), dt * integrate._TABLEAU[s, :s + 1]))
            yi = np.dot(weights, k[:s + 2])
            k[s + 2] = padded_rhs(model, n, yi[1:n], yi[n + 2:-1])
    except DomainError:
        return False, None, None, 0.5, "domain"
    err = np.dot(dt * integrate._TABLEAU[6], k[1:])
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(yi))
    ratio = float((np.abs(err) / scale).max())
    if not math.isfinite(ratio):
        return False, None, None, 0.5, "nonfinite"
    factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
    if ratio > 1.0:
        return False, None, None, factor, "error"
    return True, yi, k[7].copy(), factor, None


def reference_run(model, state0, T, cfg):
    """``simulate``'s step loop over ``reference_attempt``: the snapshot
    states, the accepted count, the rejections by cause and the spacing
    extrema, a seventh ``gaps_from_interior`` per accepted step."""
    n = state0.n
    y = padded(model, state0.x, state0.v)
    t = 0.0
    dt_ctrl = integrate.first_step(model, n, state0.x)
    k1 = padded_rhs(model, n, state0.x, state0.v)
    first = integrate._diagnostics(model, *fields.reconstruct(model, state0))
    smin, smax = float(first.spacing_min), float(first.spacing_max)
    accepted, rejected_by = 0, dict.fromkeys(("domain", "nonfinite", "error"), 0)
    states = [state0]
    for target in integrate._snapshot_targets(T, cfg.snapshot_dt):
        while t < target:
            dt = min(dt_ctrl, target - t)
            ok, y_new, k_last, factor, cause = reference_attempt(model, n, y, dt, cfg, k1)
            dt_ctrl = dt * factor
            if not ok:
                rejected_by[cause] += 1
                continue
            accepted += 1
            y, k1 = y_new, k_last
            t = target if dt >= target - t else t + dt
            gaps = n * gaps_from_interior(model.length, y[1:n])
            smin, smax = min(smin, float(gaps.min())), max(smax, float(gaps.max()))
        states.append(fc.ParticleState(n=n, t=t, x=y[1:n], v=y[n + 2:-1]))
    return states, accepted, rejected_by, smin, smax


# horizon and tolerance per size: the loose ones reject trials by the error test
REFERENCE_CASES = {2: (0.3, 1e-3), 8: (0.2, 1e-6), 128: (0.002, 1e-4)}


@pytest.mark.parametrize("force_domain", [False, True], ids=["free", "forced_domain"])
@pytest.mark.parametrize("n", sorted(REFERENCE_CASES))
def test_simulate_equals_the_allocating_reference_bit_for_bit(any_model, monkeypatch, n,
                                                              force_domain):
    T, tol = REFERENCE_CASES[n]
    cfg = fc.IntegratorConfig(rel_tol=tol, abs_tol=tol * 1e-2, snapshot_dt=T / 4)
    state0 = fc.build_particles(any_model, perturbed_initial(any_model, 0.3), n)
    if force_domain:
        # the 9th rhs call, the second stage of the second trial, leaves the domain
        calls = []

        def exit_at_ninth_call(model, n, out, work):
            calls.append(None)
            if len(calls) == 9:
                raise DomainError("forced exit")
            return rhs_arrays(model, n, out, work)

        monkeypatch.setattr(integrate, "rhs_arrays", exit_at_ninth_call)
    series = fc.simulate(any_model, state0, T, cfg)
    if force_domain:
        calls.clear()
    states, accepted, rejected_by, smin, smax = reference_run(any_model, state0, T, cfg)
    stats = series.stats
    assert series.times == [state.t for state in states]
    for j, state in enumerate(states):
        for stored, fresh in zip((series.x, series.rho, series.v),
                                 fields.reconstruct(any_model, state)):
            assert stored[j].tobytes() == fresh.tobytes()
    assert (stats.accepted, stats.rejected_by) == (accepted, rejected_by)
    assert stats.rejected == sum(rejected_by.values())
    assert (stats.spacing_min_seen, stats.spacing_max_seen) == (smin, smax)
    assert stats.rejected_by["domain"] == int(force_domain)
    if n > 2:
        assert stats.rejected_by["error"] > 0


@pytest.mark.parametrize("n", [2, 8, 128])
def test_stage_row_form_equals_the_returning_form(any_model, n):
    # written into the interior of a padded stage row, as the workspace
    # calls it, the rhs has the bits that conftest's rhs returns in fresh
    # arrays; it leaves the row's walls and the stage alone and returns the
    # widths it tested
    rng = np.random.default_rng(n)
    state = random_state(any_model, n, rng)
    dx, dv = rhs(any_model, n, state.x, state.v)
    stage, row = padded(any_model, state.x, state.v), np.full(2 * n + 2, np.nan)
    out, work = (row[1:n], row[n + 2:-1]), fc.dynamics.stage_work(stage, n)
    widths = rhs_arrays(any_model, n, out, work)
    assert row[1:n].tobytes() == dx.tobytes() == state.v.tobytes()
    assert row[n + 2:-1].tobytes() == dv.tobytes()
    assert np.isnan(row[[0, n, n + 1, -1]]).all()      # the wall entries are not written
    assert widths.tobytes() == gaps_from_interior(any_model.length, state.x).tobytes()
    assert stage.tobytes() == padded(any_model, state.x, state.v).tobytes()
    # an unordered stage is refused
    stage[1] = 2.0 * any_model.length
    with pytest.raises(DomainError):
        rhs_arrays(any_model, n, out, work)


def test_wall_entries_stay_exact_through_every_rejection(sv, monkeypatch):
    # the stage sums carry the walls along: a stage's walls are L * 1 plus
    # the zero walls of the stage rows, whatever the trial's outcome
    def assert_walls(ws):
        walls = [0, n, n + 1, -1]
        assert ws.K[0, walls].tolist() == ws.stage[walls].tolist() == [sv.length, 0.0, 0.0, 0.0]
        assert (ws.K[1:, walls] == 0.0).all()

    n, cfg = 8, fc.IntegratorConfig()
    state = fc.build_particles(sv, perturbed_initial(sv, 0.1), n)
    ws = integrate._Workspace(sv, n, np.concatenate((state.x, state.v)))
    causes = [integrate._attempt(sv, n, ws.K[0], dt, cfg, ws)[4] for dt in (1e-2, 10.0)]
    assert causes == ["error", "domain"]
    assert_walls(ws)
    calls = []

    def nan_at_last_stage(model, n, out, work):
        calls.append(None)
        widths = rhs_arrays(model, n, out, work)
        if len(calls) == 6:
            out[1][:] *= math.nan
        return widths

    with monkeypatch.context() as patch:
        patch.setattr(integrate, "rhs_arrays", nan_at_last_stage)
        assert integrate._attempt(sv, n, ws.K[0], 1e-3, cfg, ws)[4] == "nonfinite"
    assert_walls(ws)
    # an accepted trial after them starts from the rhs at y and keeps the walls
    ws.K[1] = padded_rhs(sv, n, state.x, state.v)
    accepted, y_new = integrate._attempt(sv, n, ws.K[0], 1e-3, cfg, ws)[:2]
    assert accepted
    ws.K[0] = y_new
    assert_walls(ws)


def test_series_is_not_aliased_to_the_workspace(sv, ideal):
    # each simulate call owns its workspace: runs back to back or at once
    # in two threads give each run's bytes alone
    cfg = fc.IntegratorConfig(snapshot_dt=0.01)
    runs = [(sv, fc.build_particles(sv, perturbed_initial(sv, 0.2), 12)),
            (ideal, fc.build_particles(ideal, perturbed_initial(ideal, 0.2), 9))]

    def run(args):
        series = fc.simulate(*args, 0.03, cfg)
        return [series.x.tobytes(), series.rho.tobytes(), series.v.tobytes(), series.times,
                series.stats.spacing_min_seen, series.stats.spacing_max_seen]

    alone = [run(args) for args in runs]
    first = fc.simulate(*runs[0], 0.03, cfg)
    fc.simulate(*runs[1], 0.03, cfg)
    assert [first.x.tobytes(), first.rho.tobytes(), first.v.tobytes()] == alone[0][:3]
    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(run, runs)) == alone
