import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import cli
from fluidchain import initial as initial_module
from fluidchain import integrate as integrate_module
from fluidchain.errors import ConfigError

from conftest import run_cli

MINIMAL = {
    "model": {"kind": "saint_venant", "g": 9.81, "nu": 1.0},
    "m": 1.0,
    "L": 1.0,
    "initial": {"rho0": {"kind": "constant", "value": 1.0},
                "v0": {"kind": "sine", "amplitude": 0.1, "mode": 1}},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_parse_fills_defaults(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.integrator.rel_tol == 1e-8
    assert cfg.integrator.abs_tol == 1e-10
    assert cfg.integrator.snapshot_dt == 0.01
    assert cfg.horizon == 1.0
    assert cfg.grid_size == 512
    assert cfg.n is None


def test_parse_rejects_small_n(tmp_path):
    payload = dict(MINIMAL, n=1)
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, payload))
    assert err.value.field == "n"


def test_parse_rejects_unknown_key(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["model"]["viscocity"] = 2.0
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, payload))
    assert err.value.field == "model.viscocity"


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        cli.parse_config(path)
    with pytest.raises(ConfigError):
        cli.parse_config(tmp_path / "missing.json")
    # bytes that are not UTF-8, and an integer past Python's 4300-digit limit
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError):
        cli.parse_config(path)
    path.write_text('{"m": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError):
        cli.parse_config(path)


def test_parse_rejects_bad_n_list(tmp_path):
    with pytest.raises(ConfigError):
        cli.parse_config(write_config(tmp_path, dict(MINIMAL, n_list=[8, 4])))
    with pytest.raises(ConfigError):
        cli.parse_config(write_config(tmp_path, dict(MINIMAL, n_list=[1, 2])))


def test_environment_does_not_change_a_run(tmp_path, capsys, monkeypatch):
    # the config file alone sets a run: tolerance variables in the
    # environment are ignored, even malformed ones
    path = write_config(tmp_path, _simulate_config())
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("FLUIDCHAIN_REL_TOL", "1e-2")
    monkeypatch.setenv("FLUIDCHAIN_ABS_TOL", "abc")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    for name in ("particles.csv", "fields.csv", "diagnostics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_check_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert cli.main(["check", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is True
    assert report["f_limit_high"] == "infinite"

    hot = json.loads(json.dumps(MINIMAL))
    hot["initial"]["v0"]["amplitude"] = 10.0
    path = write_config(tmp_path, hot, "hot.json")
    assert cli.main(["check", "--config", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is False


def test_error_record_is_single_line_json(tmp_path, capsys):
    payload = dict(MINIMAL, n=1)
    path = write_config(tmp_path, payload)
    assert cli.main(["check", "--config", str(path)]) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    record = json.loads(err_lines[0])
    assert record["error"] == "ConfigError"
    assert record["field"] == "n"


def _simulate_config(T=0.1, n=8):
    payload = json.loads(json.dumps(MINIMAL))
    payload["n"] = n
    payload["integrator"] = {"snapshot_dt": 0.05, "T": T}
    return payload


def test_simulate_writes_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, _simulate_config())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    for name in ("particles.csv", "fields.csv", "diagnostics.csv"):
        assert (out / name).is_file()
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,E_n,W_n,Z_n,H_n,mass,min_spacing,max_spacing"
    rows = (out / "particles.csv").read_text().splitlines()
    assert rows[0] == "t,i,x_i,v_i,rho_i"
    # 3 snapshots (t = 0, 0.05, 0.1) x (n + 1) particle rows
    assert len(rows) == 1 + 3 * 9


def test_simulate_equilibrium_zero_energy_column(tmp_path, capsys):
    payload = _simulate_config(n=8)
    payload["initial"]["v0"] = {"kind": "zero"}
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[1] == "0" for line in lines)


def test_artifacts_are_byte_reproducible(tmp_path, capsys):
    path = write_config(tmp_path, _simulate_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
    for name in ("particles.csv", "fields.csv", "diagnostics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_csv_uses_17_significant_digits(tmp_path, capsys):
    path = write_config(tmp_path, _simulate_config())
    out = tmp_path / "out"
    cli.main(["simulate", "--config", str(path), "--out", str(out)])
    line = (out / "particles.csv").read_text().splitlines()[3]
    x_value = line.split(",")[2]
    assert float(x_value) == 0.75
    velocity = line.split(",")[3]
    assert len(velocity.replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_validate_writes_reports(tmp_path, capsys):
    payload = _simulate_config(T=0.2, n=8)
    payload["integrator"] = {"snapshot_dt": 0.01, "T": 0.2}
    path = write_config(tmp_path, payload)
    out = tmp_path / "val"
    assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "residuals.csv").is_file()
    assert (out / "validate.txt").is_file()
    header = (out / "residuals.csv").read_text().splitlines()[0]
    assert header == "n,metric,value,error_estimate"


def test_shipped_configs_validate(tmp_path, capsys):
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("ideal_gas", "power_law", "saint_venant_perturbed"):
        out = tmp_path / name
        assert cli.main(["validate", "--config", str(configs / f"{name}.json"),
                         "--out", str(out)]) == 0
        assert (out / "validate.txt").is_file()


def test_validate_inadmissible_exits_2(tmp_path, capsys):
    payload = _simulate_config()
    payload["initial"]["v0"]["amplitude"] = 10.0
    path = write_config(tmp_path, payload)
    assert cli.main(["validate", "--config", str(path),
                     "--out", str(tmp_path / "v")]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "AdmissibilityError",
        "message": "initial data inadmissible: energy budget 37.9224 exceeds the "
                   "envelope's reach towards vacuum: its magnitude is 1.02178 at "
                   "density 1e-12"}


@pytest.mark.parametrize("side, towards", [pytest.param(1.0, "high density", id="high"),
                                           pytest.param(-1.0, "vacuum", id="low")])
def test_validate_names_a_nan_envelope(tmp_path, capsys, monkeypatch, side, towards):
    # the refusal is the inversion's own: a NaN envelope is named as such
    envelope = fc.FluidModel.energy_envelope
    monkeypatch.setattr(fc.FluidModel, "energy_envelope", lambda self, rho: np.where(
        side * (np.asarray(rho) - self.rho_star) > 0.0, math.nan, envelope(self, rho)) + 0.0)
    path = write_config(tmp_path, _simulate_config())
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == (
        "initial data inadmissible: energy budget 0.379224 cannot be inverted: "
        f"the envelope towards {towards} is NaN")


def _beyond_reach_config():
    """Admissible in theory (both envelope limits are infinite), but the
    band [a, b] lies beyond the envelope tables' reach rho* * 10^12: the
    high-density envelope grows like rho^0.1 and is 2.64 at the reach, below
    the budget of 3.79."""
    payload = _simulate_config()
    payload["model"] = {"kind": "isentropic_gas", "c": 1.0, "gamma": 1.4, "mu": 0.01}
    payload["initial"]["v0"]["amplitude"] = 1.0
    return payload


def test_check_reports_a_band_beyond_reach_as_inadmissible(tmp_path, capsys):
    path = write_config(tmp_path, _beyond_reach_config())
    assert cli.main(["check", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["admissible"] is False
    assert report["a"] is None and report["b"] is None
    assert report["f_limit_high"] == report["f_limit_low"] == "infinite"
    assert report["lhs"] == pytest.approx(3.79224, rel=1e-5)
    # the library verdict has the same shape as every other inadmissible one
    cfg = cli.parse_config(path)
    assert fc.admissibility(cfg.model, cfg.initial)._asdict() == {
        key: math.inf if value == "infinite" else value for key, value in report.items()}


def test_validate_on_a_band_beyond_reach_names_the_reach(tmp_path, capsys):
    path = write_config(tmp_path, _beyond_reach_config())
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "AdmissibilityError",
        "message": "initial data inadmissible: energy budget 3.79224 exceeds the "
                   "envelope's reach towards high density: its magnitude is 2.64023 at "
                   "density 1e+12"}


def test_converge_with_n_override(tmp_path, capsys):
    payload = _simulate_config(T=0.1)
    del payload["n"]
    path = write_config(tmp_path, payload)
    out = tmp_path / "conv"
    assert cli.main(["converge", "--config", str(path), "--out", str(out),
                     "--n", "4,8"]) == 0
    table = (out / "convergence.csv").read_text().splitlines()
    assert table[0] == "n,metric,value,error_estimate"
    assert any(line.startswith("4,mass_error,") for line in table)
    assert (out / "convergence.txt").is_file()


def test_converge_prints_observed_orders(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "saint_venant_perturbed.json"
    out = tmp_path / "conv"
    assert cli.main(["converge", "--config", str(config), "--out", str(out),
                     "--n", "8,16,32"]) == 0
    lines = (out / "convergence.txt").read_text().splitlines()
    assert lines[1].startswith("mass_err is the trapezoid error")
    assert [line.split(":")[0] for line in lines if line.startswith("observed")] == [
        "observed order n=8 to 16", "observed order n=16 to 32"]
    first, second = (line.split(": ")[1] for line in lines if line.startswith("observed"))
    orders = dict(item.split("=") for item in first.split(", "))
    assert list(orders) == ["mass_err", "max_residual", "|rho_2n-rho_n|", "|v_2n-v_n|",
                            "|v_2n-v_n| over t>0"]
    assert float(orders["|rho_2n-rho_n|"]) >= 0.9
    assert [item.split("=")[0] for item in second.split(", ")] == ["mass_err", "max_residual"]
    table = (out / "convergence.csv").read_text().splitlines()
    [rho_order] = [line for line in table if line.startswith("8,order_self_dist_rho,")]
    assert abs(float(rho_order.split(",")[2]) - float(orders["|rho_2n-rho_n|"])) <= 5e-4
    assert any(line.startswith("8,self_dist_v_late,") for line in table)
    assert capsys.readouterr().out.splitlines() == lines


def test_converge_requires_n_list(tmp_path, capsys):
    payload = _simulate_config()
    del payload["n"]
    path = write_config(tmp_path, payload)
    assert cli.main(["converge", "--config", str(path),
                     "--out", str(tmp_path / "c")]) == 1


@pytest.mark.parametrize("block, build", [
    ({"kind": "saint_venant", "g": 9.81, "nu": 1.0},
     lambda m, L: fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=m, length=L)),
    ({"kind": "isentropic_gas", "c": 1.0, "gamma": 1.4},
     lambda m, L: fc.FluidModel.isentropic_gas(c=1.0, gamma=1.4, m=m, length=L)),
    ({"kind": "isentropic_gas", "c": 1.0, "gamma": 1.4, "mu": 0.5},
     lambda m, L: fc.FluidModel.isentropic_gas(c=1.0, gamma=1.4, mu=0.5, m=m, length=L)),
    ({"kind": "ideal_gas_entropy", "c": 1.0, "gamma": 1.4, "visc_amp": 1.0},
     lambda m, L: fc.FluidModel.ideal_gas_entropy(c=1.0, gamma=1.4, visc_amp=1.0,
                                                  m=m, length=L)),
    ({"kind": "custom", "pressure": {"coeff": 2.0, "exponent": 1.5},
      "viscosity": {"coeff": 0.5, "exponent": 0.5}},
     lambda m, L: fc.FluidModel.custom(
         pressure=lambda r: 2.0 * np.asarray(r, float) ** 1.5,
         viscosity=lambda r: 0.5 * np.asarray(r, float) ** 0.5, m=m, length=L)),
], ids=["saint_venant", "isentropic_gas", "isentropic_gas_mu", "ideal_gas_entropy", "custom"])
def test_config_model_equals_its_constructor(tmp_path, block, build):
    m, length = 1.3, 0.7
    payload = dict(_initial(rho0={"kind": "constant"}), model=block, m=m, L=length)
    model = cli.parse_config(write_config(tmp_path, payload)).model
    direct = build(m, length)
    assert (model.kind, model.params) == (direct.kind, direct.params)
    rho = model.probe_grid()
    for law in ("pressure", "viscosity"):
        assert np.array_equal(getattr(model, law)(rho), getattr(direct, law)(rho))


def test_config_initial_matches_factories(tmp_path):
    init = cli.parse_config(write_config(tmp_path, MINIMAL)).initial
    sv = fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=1.0, length=1.0)
    v0, deriv_l2 = fc.sine_velocity(sv, 0.1, 1)
    direct = fc.make_initial(sv, fc.constant_density(sv, 1.0), v0, deriv_l2)
    assert init.v0_deriv_l2 == direct.v0_deriv_l2
    state_a = fc.build_particles(sv, init, 8)
    state_b = fc.build_particles(sv, direct, 8)
    assert np.array_equal(state_a.x, state_b.x)
    assert np.array_equal(state_a.v, state_b.v)


def test_config_table_density_and_zero_velocity(tmp_path):
    payload = _initial(rho0={"kind": "table", "x": [0.0, 1.0], "rho": [0.96, 1.04]},
                       v0={"kind": "zero"})
    init = cli.parse_config(write_config(tmp_path, payload)).initial
    assert init.rho0_deriv_sup == pytest.approx(0.08)
    assert init.rho_min == pytest.approx(0.96)
    assert init.v0_deriv_l2 == 0.0
    assert np.array_equal(init.v0(np.linspace(0.0, 1.0, 5)), np.zeros(5))


def test_custom_model_config_roundtrip(tmp_path):
    payload = json.loads(json.dumps(MINIMAL))
    payload["model"] = {"kind": "custom",
                        "pressure": {"coeff": 4.905, "exponent": 2.0},
                        "viscosity": {"coeff": 1.0, "exponent": 1.0}}
    cfg = cli.parse_config(write_config(tmp_path, payload))
    assert cfg.model.pressure(2.0) == pytest.approx(19.62)
    assert math.isinf(cfg.model.energy_envelope_limits()[0])


def _power_law_config(pressure_exponent):
    payload = _study_config()
    payload["model"] = {"kind": "custom",
                        "pressure": {"coeff": 1.0, "exponent": pressure_exponent},
                        "viscosity": {"coeff": 1.0, "exponent": 1.0}}
    return payload


def test_growth_condition_fails_every_subcommand(tmp_path, capsys):
    # P nearly constant: its spacing potential stays bounded at high density
    # and diverges like 1/rho towards vacuum
    path = write_config(tmp_path, _power_law_config(1e-9))
    for sub in ("check", "simulate", "validate", "converge"):
        argv = [sub, "--config", str(path)]
        if sub != "check":
            argv += ["--out", str(tmp_path / sub)]
        assert cli.main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert record["field"] == "model"
        assert record["message"].startswith(
            "model: pressure law fails the growth condition towards high density and "
            "towards vacuum:")


@pytest.mark.parametrize("model", [
    pytest.param({"kind": "isentropic_gas", "c": 1.0, "gamma": 7.0}, id="isentropic_gas"),
    pytest.param({"kind": "custom", "pressure": {"coeff": 1.0, "exponent": 7.0},
                  "viscosity": {"coeff": 1.0, "exponent": 1.0}}, id="custom"),
])
def test_steep_pressure_checks_and_validates(tmp_path, capsys, model):
    # the Tait exponent 7: the spacing potential converges to rounding
    # towards vacuum inside the probe grid
    payload = _simulate_config(T=0.04)
    payload["model"] = model
    payload["initial"]["v0"]["amplitude"] = 0.01
    payload["integrator"]["snapshot_dt"] = 0.02
    path = write_config(tmp_path, payload)
    assert cli.main(["check", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["admissible"] is True
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
    text = (tmp_path / "v" / "validate.txt").read_text()
    assert "discrete decay ok: True" in text
    assert "spacing containment ok: True" in text


def test_check_reports_a_finite_limit_for_a_flat_vacuum_side(tmp_path, capsys):
    payload = json.loads(json.dumps(MINIMAL))
    payload["model"] = {"kind": "custom", "pressure": {"coeff": 1.0, "exponent": 2.0},
                        "viscosity": {"coeff": 1.0, "exponent": 8.0}}
    assert cli.main(["check", "--config", str(write_config(tmp_path, payload))]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["f_limit_high"] == "infinite"
    assert report["f_limit_low"] == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)), rel=1e-14)


def test_overflowing_law_prints_only_the_error_record(tmp_path):
    done = run_cli("check", "--config", write_config(tmp_path, _power_law_config(80.0)))
    assert done.returncode == 1
    [line] = done.stderr.splitlines()
    assert "positive and finite" in json.loads(line)["message"]


@pytest.mark.parametrize("change", [
    pytest.param({"initial": {"v0": {"kind": "sine", "amplitude": 1e160}}}, id="v0_norm"),
    pytest.param({"m": 1e80, "initial": {"rho0": {"kind": "constant", "value": 1e80}}},
                 id="mass"),
    pytest.param({"initial": {"rho0": {"kind": "table", "x": [0.0, 0.5, 1.0],
                                       "rho": [2.0, 2e-60, 2.0]}}}, id="rho_min"),
    pytest.param({"initial": {"v0": {"kind": "table", "x": [0.0, 0.5, 1.0],
                                     "v": [0.0, 1e200, 0.0]}}}, id="v0_table_peak"),
])
def test_overflowing_budget_prints_only_the_error_record(tmp_path, change):
    # finite inputs whose budget constants do not fit in a float
    payload = _study_config()
    payload["initial"].update(change.pop("initial"))
    payload.update(change)
    path = write_config(tmp_path, payload)
    for sub in ("check", "validate"):
        argv = [sub, "--config", path]
        if sub != "check":
            argv += ["--out", tmp_path / sub]
        done = run_cli(*argv)
        assert done.returncode == 1, sub
        assert done.stdout == ""
        [line] = done.stderr.splitlines()
        assert json.loads(line)["error"] in ("InitialDataError", "ConfigError")


def test_overflowing_initial_energy_prints_only_the_error_record(tmp_path):
    # simulate builds no budget: the first snapshot's energies overflow
    payload = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "saint_venant_perturbed.json").read_text())
    payload["initial"]["v0"]["amplitude"] = 1e160
    done = run_cli("simulate", "--config", write_config(tmp_path, payload),
                    "--out", tmp_path / "out")
    assert done.returncode == 1
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert json.loads(line)["error"] == "InitialDataError"


def test_seed_is_an_unknown_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        cli.parse_config(write_config(tmp_path, dict(MINIMAL, seed=0)))
    assert err.value.field == "seed"


def _initial(**profiles):
    """MINIMAL with the named initial profiles replaced."""
    return dict(MINIMAL, initial=dict(MINIMAL["initial"], **profiles))


def _integrator(**settings):
    """The simulate config with the named integrator settings replaced."""
    payload = _simulate_config()
    payload["integrator"].update(settings)
    return payload


def _study_config(T=0.1, snapshot_dt=0.05):
    payload = _simulate_config(T=T)
    payload["integrator"]["snapshot_dt"] = snapshot_dt
    payload["n_list"] = [4, 8]
    return payload


@pytest.mark.parametrize("argv, payload, field", [
    pytest.param(["converge", "--n", "8,x"], MINIMAL, "--n", id="n_not_integers"),
    pytest.param(["converge", "--n", "16,8"], MINIMAL, "--n", id="n_descending"),
    pytest.param(["converge", "--n", "1"], MINIMAL, "--n", id="n_too_small"),
    pytest.param(["check"], dict(MINIMAL, model={"kind": ["saint_venant"]}),
                 "model.kind", id="model_kind_not_a_string"),
    pytest.param(["validate"], _study_config(T=0.25, snapshot_dt=0.1),
                 "integrator.T", id="validate_uneven_cadence"),
    pytest.param(["converge"], _study_config(T=0.25, snapshot_dt=0.1),
                 "integrator.T", id="converge_uneven_cadence"),
    pytest.param(["check"], _initial(rho0={"kind": "table"}),
                 "initial.rho0.x", id="rho0_table_without_x"),
    pytest.param(["check"], _initial(v0={"kind": "sine"}),
                 "initial.v0.amplitude", id="v0_sine_without_amplitude"),
    pytest.param(["check"], _initial(rho0={"kind": "constant", "value": "abc"}),
                 "initial.rho0.value", id="rho0_value_not_a_number"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 1.0], "rho": "ab"}),
                 "initial.rho0.rho", id="rho0_rho_not_a_list"),
    pytest.param(["check"], _initial(v0={"kind": "sine", "amplitude": "x"}),
                 "initial.v0.amplitude", id="v0_amplitude_not_a_number"),
    pytest.param(["check"], _initial(rho0={"kind": "constant", "value": True}),
                 "initial.rho0.value", id="rho0_value_boolean"),
    pytest.param(["check"], _initial(v0={"kind": "sine", "amplitude": 0.1, "mode": True}),
                 "initial.v0.mode", id="v0_mode_boolean"),
    pytest.param(["check"], _initial(v0={"kind": "sine", "amplitude": 0.1, "mode": 1.5}),
                 "initial.v0.mode", id="v0_mode_fractional"),
    pytest.param(["check"], _initial(v0={"kind": "sine", "amplitude": 0.1, "mode": 0}),
                 "initial.v0.mode", id="v0_mode_zero"),
    # counts too large for an array
    pytest.param(["simulate"], dict(_simulate_config(), n=10 ** 20), "n", id="n_huge"),
    pytest.param(["simulate"], dict(_simulate_config(), grid_size=10 ** 20),
                 "grid_size", id="grid_size_huge"),
    pytest.param(["converge"], dict(_study_config(), n_list=[4, 10 ** 20]),
                 "n_list", id="n_list_huge"),
    pytest.param(["converge", "--n", f"8,{10 ** 20}"], _study_config(), "--n", id="n_flag_huge"),
    pytest.param(["simulate"], _integrator(T=math.inf),
                 "integrator.T", id="simulate_infinite_T"),
    pytest.param(["validate"], _integrator(T=math.inf),
                 "integrator.T", id="validate_infinite_T"),
    pytest.param(["simulate"], _integrator(snapshot_dt=math.inf),
                 "integrator.snapshot_dt", id="infinite_snapshot_dt"),
    # more snapshots than MAX_COUNT, refused before a target list is built
    pytest.param(["check"], _integrator(snapshot_dt=1e-9),
                 "integrator.snapshot_dt", id="check_snapshot_count_huge"),
    pytest.param(["simulate"], _integrator(snapshot_dt=1e-9),
                 "integrator.snapshot_dt", id="simulate_snapshot_count_huge"),
    pytest.param(["validate"], _integrator(snapshot_dt=1e-9),
                 "integrator.snapshot_dt", id="validate_snapshot_count_huge"),
    pytest.param(["simulate"], _integrator(snapshot_dt=5e-324),
                 "integrator.snapshot_dt", id="snapshot_count_infinite"),
    pytest.param(["simulate"], _integrator(dt_init=1e-3),
                 "integrator.dt_init", id="dt_init_unknown"),
    pytest.param(["simulate"], _integrator(dt_max=1e-3),
                 "integrator.dt_max", id="dt_max_unknown"),
    pytest.param(["check"], _initial(v0={"kind": "sine", "amplitude": math.nan}),
                 "initial.v0.amplitude", id="v0_amplitude_nan"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 1.0],
                                           "rho": [1.0, math.nan]}),
                 "initial.rho0.rho", id="rho0_table_nan"),
    pytest.param(["check"], dict(MINIMAL, model={"kind": "saint_venant",
                                                 "g": math.inf, "nu": 1.0}),
                 "model.g", id="model_parameter_infinite"),
    pytest.param(["check"], _initial(v0={"kind": "zero", "amplitude": 0.1}),
                 "initial.v0.amplitude", id="v0_zero_with_amplitude"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 1.0],
                                           "rho": [1.0, 1.0], "value": 1.0}),
                 "initial.rho0.value", id="rho0_table_with_value"),
    pytest.param(["check"], _initial(rho0={"kind": "constant", "x": [0.0, 1.0]}),
                 "initial.rho0.x", id="rho0_constant_with_x"),
    pytest.param(["check"], _initial(rho0={"kind": "mystery"}),
                 "initial.rho0.kind", id="rho0_unknown_kind"),
    pytest.param(["check"], _initial(v0={"kind": ["sine"], "amplitude": 0.1}),
                 "initial.v0.kind", id="v0_kind_not_a_string"),
    pytest.param(["check"], dict(MINIMAL, model={"kind": "mystery"}),
                 "model.kind", id="model_kind_unknown"),
    # a FluidModel attribute that is no constructor is no kind either
    pytest.param(["check"], dict(MINIMAL, model={"kind": "probe_grid"}),
                 "model.kind", id="model_kind_probe_grid"),
    pytest.param(["check"], dict(MINIMAL, model={"kind": "custom_law"}),
                 "model.kind", id="model_kind_custom_law"),
    pytest.param(["check"], dict(MINIMAL, model={"kind": "saint_venant", "g": 9.81}),
                 "model.nu", id="model_parameter_missing"),
    pytest.param(["check"], dict(MINIMAL, model={"kind": "saint_venant", "g": 9.81,
                                                 "nu": 1.0, "mu": 1.0}),
                 "model.mu", id="model_parameter_extra"),
    pytest.param(["check"], dict(MINIMAL, model={
        "kind": "custom", "pressure": {"coeff": 1.0, "exponent": 2.0},
        "viscosity": {"coeff": 1.0}}),
                 "model.viscosity.exponent", id="custom_law_without_exponent"),
    # integers too large for a float
    pytest.param(["check"], dict(MINIMAL, model={"kind": "saint_venant",
                                                 "g": 10 ** 400, "nu": 1.0}),
                 "model.g", id="model_parameter_huge_integer"),
    pytest.param(["check"], dict(MINIMAL, m=-10 ** 400), "m", id="mass_huge_integer"),
    # a reference density m/L whose probe grid leaves the float range
    pytest.param(["check"], dict(MINIMAL, m=1e308), "model", id="reference_density_overflow_m"),
    pytest.param(["check"], dict(MINIMAL, L=1e-300), "model", id="reference_density_overflow_L"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0, 10 ** 400],
                                           "rho": [1.0, 1.0]}),
                 "initial.rho0.x", id="rho0_table_huge_integer"),
    # errors raised while a profile is built name the key at fault
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 0.5],
                                           "rho": [1.0, 1.0]}),
                 "initial.rho0.x", id="rho0_table_short_span"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 0.6, 0.4, 1.0],
                                           "rho": [1.0, 1.0, 1.0, 1.0]}),
                 "initial.rho0.x", id="rho0_table_x_not_increasing"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 1.0],
                                           "rho": [1.0, 1.0, 1.0]}),
                 "initial.rho0.rho", id="rho0_table_length_mismatch"),
    pytest.param(["check"], _initial(rho0={"kind": "table", "x": [0.0, 1.0],
                                           "rho": [2.0, 2.0]}),
                 "initial.rho0.rho", id="rho0_table_wrong_mass"),
    pytest.param(["check"], _initial(rho0={"kind": "constant", "value": -1.0}),
                 "initial.rho0.value", id="rho0_constant_negative"),
    pytest.param(["check"], _initial(v0={"kind": "table", "x": [0.0, 0.5, 1.0],
                                         "v": [0.0, 1.0, 0.5]}),
                 "initial.v0.v", id="v0_table_not_zero_at_wall"),
    pytest.param(["check"], _initial(v0={"kind": "table", "x": [0.0, 0.5],
                                         "v": [0.0, 0.0]}),
                 "initial.v0.x", id="v0_table_short_span"),
    pytest.param(["check"], _initial(v0={"kind": "table", "x": [0.0, 1e-300, 1.0],
                                         "v": [0.0, 1e200, 0.0]}),
                 "initial.v0.v", id="v0_table_slope_overflow"),
    pytest.param(["check"], _initial(v0={"kind": "sine", "amplitude": 1e308, "mode": 4}),
                 "initial.v0.amplitude", id="v0_sine_slope_overflow"),
])
def test_bad_input_exits_1_with_one_json_line(tmp_path, capsys, argv, payload, field):
    argv = [argv[0], "--config", str(write_config(tmp_path, payload)), *argv[1:]]
    if argv[0] != "check":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["field"] == field
    assert not (tmp_path / "out").exists()


def test_validate_computes_the_budget_once(tmp_path, capsys, monkeypatch):
    calls = []
    budget_constants = initial_module.budget_constants

    def counting(*args):
        calls.append(args)
        return budget_constants(*args)

    # admissibility's binding, and a direct one the CLI might hold
    monkeypatch.setattr(initial_module, "budget_constants", counting)
    monkeypatch.setattr(cli, "budget_constants", counting, raising=False)
    path = write_config(tmp_path, _simulate_config(T=0.1))
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 1


def test_studies_decide_admissibility_once(tmp_path, capsys, monkeypatch):
    calls = {"spacing_bounds": 0, "energy_envelope_limits": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    spacing_bounds = counting("spacing_bounds", cli.spacing_bounds)
    monkeypatch.setattr(cli, "spacing_bounds", spacing_bounds)
    monkeypatch.setattr(initial_module, "spacing_bounds", spacing_bounds)
    monkeypatch.setattr(fc.FluidModel, "energy_envelope_limits", counting(
        "energy_envelope_limits", fc.FluidModel.energy_envelope_limits))
    payload = _study_config()
    payload["initial"]["v0"]["amplitude"] = 10.0
    path = write_config(tmp_path, payload)
    for sub in ("validate", "converge"):
        assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / sub)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "AdmissibilityError",
            "message": "initial data inadmissible: energy budget 37.9224 exceeds the "
                       "envelope's reach towards vacuum: its magnitude is 1.02178 at "
                       "density 1e-12"}
        assert calls == {"spacing_bounds": 1, "energy_envelope_limits": 0}, sub
        calls.update(spacing_bounds=0)


class _ArrayMemoryError(MemoryError):
    """Stands in for numpy's private subclass of MemoryError."""


@pytest.mark.parametrize("sub", ["simulate", "validate", "converge"])
def test_an_allocation_beyond_memory_exits_1_with_one_json_line(tmp_path, capsys,
                                                                monkeypatch, sub):
    # the snapshot store of a schema-valid run too large for the host (n=1e5
    # and 1e6 snapshots ask for 2.18 TiB), without asking the host for it
    message = ("Unable to allocate 2.18 TiB for an array with shape "
               "(3, 1000001, 100001) and data type float64")

    def allocation(self, model, n, count):
        raise _ArrayMemoryError(message)

    monkeypatch.setattr(integrate_module.SnapshotSeries, "__init__", allocation)
    path = write_config(tmp_path, _study_config())
    assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line) == {"error": "MemoryError", "message": message}


def test_simulate_prints_negative_functional_warnings(tmp_path, capsys, monkeypatch):
    columns = integrate_module._diagnostic_columns

    def negative_e_n(series):
        values = columns(series)
        return values._replace(e_n=np.where(np.asarray(series.times) > 0.0, -1e-6,
                                            values.e_n))

    monkeypatch.setattr(integrate_module, "_diagnostic_columns", negative_e_n)
    path = write_config(tmp_path, _simulate_config(T=0.1))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: e_n is negative (-1.000e-06) at t={t} (slack 1.000e-14)"
        for t in ("0.05", "0.1")]


def test_simulate_accepts_uneven_last_snapshot(tmp_path, capsys):
    path = write_config(tmp_path, _study_config(T=0.25, snapshot_dt=0.1))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    times = [line.split(",")[0] for line in
             (out / "diagnostics.csv").read_text().splitlines()[1:]]
    assert times == ["0", "0.10000000000000001", "0.20000000000000001", "0.25"]


@pytest.mark.parametrize("sub", ["simulate", "validate", "converge"])
@pytest.mark.parametrize("under_a_file", [False, True], ids=["existing_file", "under_a_file"])
def test_unusable_out_exits_1_before_any_work(tmp_path, capsys, monkeypatch, sub,
                                              under_a_file):
    def no_work(*args):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "admissibility", no_work)
    monkeypatch.setattr(cli, "budget_constants", no_work)
    monkeypatch.setattr(cli, "build_particles", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if under_a_file else blocker
    path = write_config(tmp_path, _study_config())
    assert cli.main([sub, "--config", str(path), "--out", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert (record["error"], record["field"]) == ("ConfigError", "--out")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("sub, taken", [("simulate", "particles.csv"),
                                        ("simulate", "fields.csv"),
                                        ("validate", "residuals.csv"),
                                        ("validate", "validate.txt"),
                                        ("converge", "convergence.csv")])
def test_failed_write_exits_1_with_one_json_line(tmp_path, capsys, monkeypatch, sub, taken):
    # an artifact's name taken by a directory: the write fails, with
    # simulate's second writer forked at every size
    monkeypatch.setattr(cli, "FORK_VALUES", 0)
    out = tmp_path / "out"
    (out / taken).mkdir(parents=True)
    path = write_config(tmp_path, _study_config())
    assert cli.main([sub, "--config", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    record = json.loads(line)
    assert (record["error"], record["field"]) == ("ConfigError", "--out")
    assert record["message"] == f"--out: cannot write {str(out / taken)!r}: Is a directory"
    # the forked writer of simulate is reaped too
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_low_viscosity_gas_runs(tmp_path, capsys):
    # at mu = 1e-3 the spacing band [a, b] is wide (a = 2.5e-4 at n = 32),
    # and a first step sized from it underflowed at t = 0
    payload = json.loads(json.dumps(MINIMAL))
    payload["model"] = {"kind": "isentropic_gas", "c": 1.0, "gamma": 1.4, "mu": 1e-3}
    payload["integrator"] = {"snapshot_dt": 0.05, "T": 0.5}
    payload["n"] = 32
    path = write_config(tmp_path, payload)
    for sub in ("simulate", "validate"):
        assert cli.main([sub, "--config", str(path), "--out", str(tmp_path / sub)]) == 0
        assert capsys.readouterr().err == ""
    report = (tmp_path / "validate" / "validate.txt").read_text()
    assert "discrete decay ok: True" in report
    assert "spacing containment ok: True" in report
