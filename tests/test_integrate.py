import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks, fields, integrate
from fluidchain.dynamics import gaps_from_interior, rhs_arrays
from fluidchain.errors import DomainError, ModelError, StiffnessError

from conftest import equilibrium_state, perturbed_initial, random_state, snapshot_states


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
    accepted, y_new, widths, factor, cause = integrate._attempt(sv, 4, y, 1e-3,
                                                                fc.IntegratorConfig(), ws)
    assert accepted and cause is None
    assert np.allclose(y_new[:3], state0.x, atol=1e-10)
    assert factor > 1.0
    # the widths and row 0 are those at the candidate
    assert widths.tobytes() == gaps_from_interior(sv.length, y_new[:3]).tobytes()
    assert ws.k[0].tobytes() == np.concatenate(rhs_arrays(sv, 4, y_new[:3], y_new[3:])).tobytes()


def test_step_rejects_ordering_exit(sv):
    # packet racing towards the wall; a large trial step exits the domain
    y = np.array([0.05, -5.0])
    ws = integrate._Workspace(sv, 2, y)
    k1 = ws.k[0].copy()
    accepted, y_new, widths, factor, cause = integrate._attempt(sv, 2, y, 0.05,
                                                                fc.IntegratorConfig(), ws)
    assert not accepted
    assert y_new is None and widths is None
    assert ws.k[0].tobytes() == k1.tobytes()     # row 0 is still the rhs at y
    assert factor == 0.5
    assert cause == "domain"


def test_attempt_reports_each_rejection_cause(sv, monkeypatch):
    cfg = fc.IntegratorConfig()

    def cause(model, n, y, dt):
        return integrate._attempt(model, n, y, dt, cfg, integrate._Workspace(model, n, y))[4]

    # the 2-particle packet racing into the wall leaves the ordered domain
    assert cause(sv, 2, np.array([0.05, -5.0]), 0.05) == "domain"
    # an ordered step far above the error-controlled size fails the error test
    state = fc.build_particles(sv, perturbed_initial(sv, 0.1), 8)
    y = np.concatenate((state.x, state.v))
    assert cause(sv, 8, y, 1e-3) is None
    assert cause(sv, 8, y, 1e-2) == "error"
    # NaN accelerations at the last stage make the error ratio NaN
    calls = []

    def nan_at_last_stage(model, n, x, v, **stage_row):
        calls.append(None)
        widths = rhs_arrays(model, n, x, v, **stage_row)
        if len(calls) == 6:
            stage_row["out"][n - 1:] *= math.nan
        return widths

    ws = integrate._Workspace(sv, 8, y)
    monkeypatch.setattr(integrate, "rhs_arrays", nan_at_last_stage)
    out = integrate._attempt(sv, 8, y, 1e-3, cfg, ws)
    assert len(calls) == 6
    assert out[0] is False and out[3] == 0.5 and out[4] == "nonfinite"


def test_rejections_by_cause_sum_to_rejected(sv):
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.1), 16)
    stats = fc.simulate(sv, state0, 0.05, fc.IntegratorConfig(snapshot_dt=0.05)).stats
    assert sorted(stats.rejected_by) == ["domain", "error", "nonfinite"]
    assert sum(stats.rejected_by.values()) == stats.rejected > 0


def test_step_rejects_nonfinite_velocity(any_model):
    # rhs_arrays tests no velocity: a NaN one gives NaN accelerations, with
    # no warning, and the trial that carries it is rejected
    x = any_model.length * np.array([0.75, 0.5, 0.25])
    v = np.array([0.1, np.nan, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dx, dv = rhs_arrays(any_model, 4, x, v)
    assert np.isnan(dx[1]) and np.isnan(dv).any()
    y = np.concatenate((x, v))
    ws = integrate._Workspace(any_model, 4, y)
    assert np.array_equal(ws.k[0], np.concatenate((dx, dv)), equal_nan=True)
    accepted, y_new, widths, factor, cause = integrate._attempt(
        any_model, 4, y, 1e-4, fc.IntegratorConfig(), ws)
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
    series = fc.simulate(any_model, fc.build_particles(any_model, init, 7),
                         0.002 * (fields.BLOCK + 3), fc.IntegratorConfig(snapshot_dt=0.002))
    diag = series.diagnostics
    assert len(series) > fields.BLOCK
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
        expect = np.concatenate(rhs_arrays(model, n, y[:n - 1], y[n - 1:]))
        assert ws.k[0].tobytes() == expect.tobytes()
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
    scale; ``k1`` is the rhs at y."""
    half = y.size // 2
    k = np.empty((7, y.size))
    k[0] = k1
    try:
        for stage in range(1, 7):
            yi = y + dt * np.dot(integrate._A[stage], k[:stage])
            k[stage, :half], k[stage, half:] = integrate.rhs_arrays(model, n, yi[:half],
                                                                    yi[half:])
    except DomainError:
        return False, None, None, 0.5, "domain"
    err = dt * np.dot(integrate._ERR, k)
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(yi))
    ratio = float((np.abs(err) / scale).max())
    if not math.isfinite(ratio):
        return False, None, None, 0.5, "nonfinite"
    factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
    if ratio > 1.0:
        return False, None, None, factor, "error"
    return True, yi, k[6].copy(), factor, None


def reference_run(model, state0, T, cfg):
    """``simulate``'s step loop over ``reference_attempt``: the snapshot
    states, the accepted count, the rejections by cause and the spacing
    extrema, a seventh ``gaps_from_interior`` per accepted step."""
    n = state0.n
    y = np.concatenate((state0.x, state0.v))
    half = y.size // 2
    t = 0.0
    dt_ctrl = integrate.first_step(model, n, state0.x)
    k1 = np.concatenate(integrate.rhs_arrays(model, n, state0.x, state0.v))
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
            gaps = n * gaps_from_interior(model.length, y[:half])
            smin, smax = min(smin, float(gaps.min())), max(smax, float(gaps.max()))
        states.append(fc.ParticleState(n=n, t=t, x=y[:half], v=y[half:]))
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
        calls, rhs = [], integrate.rhs_arrays

        def exit_at_ninth_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 9:
                raise DomainError("forced exit")
            return rhs(*args, **kwargs)

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
    rng = np.random.default_rng(n)
    state = random_state(any_model, n, rng)
    dx, dv = rhs_arrays(any_model, n, state.x, state.v)
    row, pad = np.full(2 * (n - 1), np.nan), fc.dynamics.wall_rows(any_model.length, n)
    widths = rhs_arrays(any_model, n, state.x, state.v, out=row, pad=pad)
    assert row.tobytes() == np.concatenate((dx, dv)).tobytes()
    assert widths.tobytes() == gaps_from_interior(any_model.length, state.x).tobytes()
    assert pad.tolist() == [[any_model.length, *state.x, 0.0], [0.0, *state.v, 0.0]]
    # an unordered state is refused in either form
    bad = state.x.copy()
    bad[0] = 2.0 * any_model.length
    with pytest.raises(DomainError):
        rhs_arrays(any_model, n, bad, state.v, out=row, pad=pad)


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
