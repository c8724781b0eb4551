import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluidchain as fc
from fluidchain.dynamics import spacing_bounds
from fluidchain.errors import AdmissibilityError, ModelError
from fluidchain.model import GAUSS_ORDER, GAUSS_RULES

from conftest import (quadrature_reference, reference_envelope_inverse,
                      reference_envelope_limits, reference_growth_report)


def test_saint_venant_preset_values(sv):
    assert sv.pressure(2.0) == pytest.approx(19.62)
    assert sv.viscosity(2.0) == pytest.approx(2.0)
    assert sv.rho_star == 1.0


def test_isentropic_preset_values(isentropic):
    assert isentropic.pressure(1.0) == pytest.approx(1.0)


def test_preset_parameter_validation():
    with pytest.raises(ModelError):
        fc.FluidModel.ideal_gas_entropy(c=1.0, gamma=2.5, visc_amp=1.0, m=1.0, length=1.0)
    with pytest.raises(ModelError):
        fc.FluidModel.isentropic_gas(c=1.0, gamma=1.0, m=1.0, length=1.0)
    with pytest.raises(ModelError):
        fc.FluidModel.saint_venant(g=-1.0, nu=1.0, m=1.0, length=1.0)
    with pytest.raises(ModelError):
        fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=0.0, length=1.0)
    with pytest.raises(ModelError):
        fc.FluidModel.saint_venant(g=9.81, nu=-2.0, m=1.0, length=1.0)
    with pytest.raises(ModelError, match="parameter L"):
        fc.FluidModel.power_law(1.0, 2.0, 1.0, 2.0, m=1.0, length=0.0)
    with pytest.raises(ModelError, match="parameter a"):
        fc.FluidModel.power_law(1.0, 2.0, 0.0, 2.0, m=1.0, length=1.0)
    with pytest.raises(ModelError, match="unknown model kind"):
        fc.FluidModel("mystery", np.sqrt, np.sqrt, m=1.0, length=1.0)


def test_viscous_potential(sv, ideal):
    assert sv.viscous_potential(1.0) == 0.0
    # closed form nu*(rho - rho*) cross-checked by quadrature
    assert sv.viscous_potential(2.0) == pytest.approx(1.0, rel=1e-12)
    assert quadrature_reference(sv, 2.0)["viscous_potential"] == pytest.approx(1.0, rel=1e-10)
    gamma, a = 1.4, 1.0
    for rho in (0.25, 0.5, 3.0):
        expect = (2 * a / (gamma - 1)) * (rho ** ((gamma - 1) / 2) - 1.0)
        assert ideal.viscous_potential(rho) == pytest.approx(expect, rel=1e-12)
    sleeve = np.array([0.5, 1.0, 2.0])
    out = np.asarray(sv.viscous_potential(sleeve))
    assert out == pytest.approx([-0.5, 0.0, 1.0])


def test_viscous_potential_increasing(sv, ideal, isentropic):
    for model in (sv, ideal, isentropic):
        vals = np.asarray(model.viscous_potential(model.probe_grid()))
        assert np.all(np.diff(vals) > 0)


def test_compression_energy(sv, isentropic):
    for model in (sv, isentropic):
        assert model.compression_energy(model.rho_star) == pytest.approx(0.0, abs=1e-14)
    # oracle: (g/2)*(rho - rho*)^2 by symbolic integration, verified by quadrature
    assert sv.compression_energy(2.0) == pytest.approx(4.905, rel=1e-12)
    assert quadrature_reference(sv, 2.0)["compression_energy"] == pytest.approx(4.905, rel=1e-9)
    c, gamma = 1.0, 1.4
    for rho in (0.3, 0.9, 2.5):
        expect = (c / (gamma - 1)) * (rho ** gamma - gamma * rho + (gamma - 1))
        assert isentropic.compression_energy(rho) == pytest.approx(expect, rel=1e-12)
        assert quadrature_reference(isentropic, rho)["compression_energy"] == pytest.approx(
            expect, rel=1e-8)


def test_compression_energy_positive_away_from_reference(sv, ideal):
    for model in (sv, ideal):
        grid = model.probe_grid()
        vals = np.asarray([model.compression_energy(r) for r in grid])
        away = grid != model.rho_star
        assert np.all(vals[away] > 0.0)


def test_spacing_potential(sv, ideal, isentropic):
    for model in (sv, ideal, isentropic):
        assert model.spacing_potential(model.length) == pytest.approx(0.0, abs=1e-13)
    # oracle: (g/2)*(m/s - rho*) from integrating the quadratic pressure law
    assert sv.spacing_potential(0.5) == pytest.approx(4.905, rel=1e-12)
    assert quadrature_reference(sv, 2.0)["spacing_potential"] == pytest.approx(4.905, rel=1e-9)


def test_spacing_potential_compression_identity(sv, ideal):
    # Phi(s) = (s/m)Q(m/s) + P(rho*)(1/rho* - s/m)
    for model in (sv, ideal):
        p_star = float(model.pressure(model.rho_star))
        for s in (0.7, 0.33, 2.1):
            lhs = model.spacing_potential(s)
            rhs = (s / model.m) * model.compression_energy(model.m / s) \
                + p_star * (1.0 / model.rho_star - s / model.m)
            assert lhs == pytest.approx(rhs, abs=1e-10, rel=1e-10)
        for rho in model.probe_grid():
            q = model.compression_energy(rho)
            gap = abs(q - rho * model.spacing_potential(model.m / rho)
                      + p_star * (rho / model.rho_star - 1.0))
            assert gap <= 1e-9 * (1.0 + q)


def _force(model, s):
    # the pressure force -P(m/s)/m of the equations of motion
    return -float(model.pressure(model.m / s)) / model.m


def test_spacing_potential_prime(sv, isentropic):
    # the pressure force is the slope of the spacing potential
    assert _force(sv, 1.0) == pytest.approx(-4.905)
    assert _force(sv, 0.8) == pytest.approx(-9.81 / (2 * 0.64))
    assert _force(isentropic, 1.0) == pytest.approx(-1.0)


def test_spacing_potential_derivative_consistency(sv, ideal):
    h = 1e-6
    for model in (sv, ideal):
        for s in (0.4, 1.0, 2.5):
            fd = (model.spacing_potential(s + h) - model.spacing_potential(s - h)) / (2 * h)
            assert _force(model, s) == pytest.approx(fd, rel=1e-6)
            assert _force(model, s) < 0.0


def test_damping_potential(sv, ideal, isentropic):
    for model in (sv, ideal, isentropic):
        assert model.damping_potential(model.length) == pytest.approx(0.0, abs=1e-13)
        # K(s) = -k(m/s)/m across the probe grid
        for rho in model.probe_grid():
            s = model.m / rho
            expect = -model.viscous_potential(rho) / model.m
            assert model.damping_potential(s) == pytest.approx(expect, rel=1e-9, abs=1e-12)
    assert sv.damping_potential(0.5) == pytest.approx(-1.0)
    assert sv.damping_gain(0.5) == pytest.approx(4.0)


def test_damping_gain_matches_finite_difference(sv, ideal):
    h = 1e-6
    for model in (sv, ideal):
        for s in (0.3, 0.9, 1.7):
            fd = (model.damping_potential(s + h) - model.damping_potential(s - h)) / (2 * h)
            assert model.damping_gain(s) == pytest.approx(fd, rel=1e-6)
            assert model.damping_gain(s) > 0.0


def test_envelope_parts(sv):
    assert sv.envelope_parts(1.0) == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)
    f1, f2, kk = sv.envelope_parts(4.0)
    # closed form 2*nu*(sqrt(rho) - sqrt(rho*)) for the viscosity part
    assert f2 == pytest.approx(2.0, rel=1e-12)
    assert kk == pytest.approx(3.0, rel=1e-12)
    # energy part against a composite-Simpson oracle
    s = np.linspace(1.0, 4.0, 20001)
    f = s ** -1.5 * s * np.sqrt(9.81 / 2.0) * np.abs(s - 1.0)
    h = (4.0 - 1.0) / (s.size - 1)
    oracle = (h / 3.0) * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-2:2].sum())
    assert f1 == pytest.approx(oracle, rel=1e-6)


def test_envelope_parts_monotone(sv, ideal):
    for model in (sv, ideal):
        grid = model.probe_grid()
        f1 = np.array([model.envelope_parts(float(r))[0] for r in grid])
        f2 = np.array([model.envelope_parts(float(r))[1] for r in grid])
        assert np.all(np.diff(f1) > 0)
        assert np.all(np.diff(f2) > 0)


def test_energy_envelope_monotone_and_zero(sv, ideal, isentropic):
    for model in (sv, ideal, isentropic):
        assert model.energy_envelope(model.rho_star) == pytest.approx(0.0, abs=1e-14)
        vals = np.array([model.energy_envelope(float(r)) for r in model.probe_grid()])
        assert np.all(np.diff(vals) >= 0)


def test_envelope_limits(sv, ideal):
    hi, lo = ideal.energy_envelope_limits()
    assert math.isinf(hi) and math.isinf(lo)
    hi, lo = sv.energy_envelope_limits()
    assert math.isinf(hi)
    assert math.isfinite(lo) and 0.9 < lo < 1.1
    # mild-viscosity gas proxy (power-law exponents inside the divergence class)
    proxy = fc.FluidModel.power_law(1.0, 1.5, 1.0, 0.5, m=1.0, length=1.0)
    hi, lo = proxy.energy_envelope_limits()
    assert math.isinf(hi) and math.isinf(lo)


def test_envelope_inverse_roundtrip(sv, ideal):
    for model, targets in ((sv, (0.3, -0.3, 0.9, -0.9)), (ideal, (2.0, -2.0, 25.0))):
        for y in targets:
            rho = model.energy_envelope_inverse(y)
            assert model.energy_envelope(rho) == pytest.approx(y, rel=1e-7, abs=1e-9)
    assert sv.energy_envelope_inverse(0.0) == sv.rho_star


def test_envelope_inverse_rejects_unreachable_budget(sv):
    with pytest.raises(AdmissibilityError) as err:
        sv.energy_envelope_inverse(-5.0)
    assert err.value.side == "low"


def test_envelope_inverse_rejects_nan_budget(sv):
    with pytest.raises(ModelError):
        sv.energy_envelope_inverse(math.nan)
    for e_bar, w_bar in ((math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(AdmissibilityError):
            spacing_bounds(sv, e_bar, w_bar)


def _outcome(call, *args):
    """The value of ``call(*args)``, or the type, text and side of the
    ``AdmissibilityError`` it raises."""
    try:
        return call(*args)
    except AdmissibilityError as err:
        return type(err), str(err), err.side


def _assert_envelope_matches_reference(model):
    limits = model.energy_envelope_limits()
    assert limits == reference_envelope_limits(model)
    assert reference_growth_report(model) == (True, True)
    for sign, limit in ((1.0, limits[0]), (-1.0, limits[1])):
        limit = 3.0 if math.isinf(limit) else limit
        # 1.5x a finite limit and an infinite target are unreachable: both
        # sides must raise the same error
        for target in [sign * f * limit for f in (1e-9, 1e-3, 0.3, 0.9, 0.999, 1.5)] + [
                sign * math.inf]:
            assert (_outcome(model.energy_envelope_inverse, target)
                    == _outcome(reference_envelope_inverse, model, target))


def test_batched_envelope_matches_scalar_reference(any_model):
    _assert_envelope_matches_reference(any_model)


def test_batched_envelope_matches_scalar_reference_on_gauss_tables(callable_models):
    for model in callable_models:
        _assert_envelope_matches_reference(model)


def _unchecked(monkeypatch, build):
    """The model ``build()`` returns with the checks of its laws skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(fc.FluidModel, "_check_laws", lambda self: None)
        return build()


# (pressure, failing sides): with P = rho the spacing potential is
# log(rho/rho*), unbounded towards vacuum; with P nearly constant it is
# also bounded at high density, and with P bounded there only that side fails
GROWTH_LAWS = (
    pytest.param(lambda r: np.asarray(r, float) ** 1.4, (), id="gamma_1.4"),
    pytest.param(lambda r: np.asarray(r, float), ("towards vacuum",), id="linear"),
    pytest.param(lambda r: np.asarray(r, float) ** 1e-9,
                 ("towards high density", "towards vacuum"), id="nearly_constant"),
    pytest.param(lambda r: np.asarray(r, float) ** 2 / (1.0 + np.asarray(r, float) ** 2),
                 ("towards high density",), id="bounded_high"),
)


@pytest.mark.parametrize("pressure, failing", GROWTH_LAWS)
def test_growth_condition_is_checked_at_construction(monkeypatch, pressure, failing):
    build = lambda: fc.FluidModel.custom(pressure=pressure, viscosity=np.sqrt,
                                         m=1.0, length=1.0)
    grows_high, bounded_low = reference_growth_report(_unchecked(monkeypatch, build))
    assert failing == tuple(side for side, holds in (("towards high density", grows_high),
                                                     ("towards vacuum", bounded_low))
                            if not holds)
    if not failing:
        build()
        return
    with pytest.raises(ModelError, match="growth condition") as err:
        build()
    message = str(err.value)
    assert message.startswith("pressure law fails the growth condition "
                              + " and ".join(failing) + ":")


@pytest.mark.parametrize("gamma", [5.0, 7.0, 10.0, 20.0])
def test_steep_pressure_laws_meet_the_growth_condition(gamma):
    # towards vacuum their spacing potentials converge to rounding inside
    # the probe grid, and a converged increment is no sign of divergence
    for model in (fc.FluidModel.isentropic_gas(1.0, gamma, m=1.0, length=1.0),
                  fc.FluidModel.power_law(1.0, gamma, 1.0, 1.0, m=1.3, length=0.7)):
        assert reference_growth_report(model) == (True, True)


def test_envelope_flat_towards_vacuum_has_a_finite_limit():
    # P = rho^2, mu = rho^8: the envelope is -1/(8 sqrt 2) to rounding from
    # rho* * 10^-4 on, so its decade increments there are zero
    model = fc.FluidModel.power_law(1.0, 2.0, 1.0, 8.0, m=1.0, length=1.0)
    limit_high, limit_low = model.energy_envelope_limits()
    assert math.isinf(limit_high)
    assert limit_low == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)), rel=1e-14)
    assert limit_low == pytest.approx(-model.energy_envelope(1e-12), rel=1e-14)
    _assert_envelope_matches_reference(model)


def _power_law_preset(gamma, beta, m=1.0, length=1.0):
    return fc.FluidModel.power_law(1.5, gamma, 0.5, beta, m=m, length=length)


# (gamma, beta[, m, L]): each hits the exact logarithm of one closed form,
# beta = 0 the viscous potential, beta = 1/2 the viscosity part, gamma = 2
# with beta = -1/2 the energy part; the last has a reference density other
# than 1.  The spacing potential's logarithm, at gamma = 1, is a law that
# fails the growth condition and cannot be built.
LOG_BRANCH_LAWS = ((2.0, 0.0), (2.0, 0.5), (2.0, -0.5), (2.0, 0.5, 1.3, 0.7))


def test_spacing_potential_logarithm_fails_the_growth_condition():
    with pytest.raises(ModelError, match="growth condition towards vacuum:"):
        _power_law_preset(1.0, 1.0)


def test_closed_forms_match_quadrature_on_probe_grid(sv, ideal, isentropic, power_law,
                                                     callable_models):
    # closed forms, the energy part's Gauss table at gamma != 2, and the
    # tables of callable laws, each against scipy's adaptive quadrature
    for model in (sv, ideal, isentropic, power_law, *callable_models,
                  *(_power_law_preset(*law) for law in LOG_BRANCH_LAWS)):
        near = model.rho_star * np.array([1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6])
        for rho in (*model.probe_grid(), *near):
            rho = float(rho)
            s = model.m / rho
            ref = quadrature_reference(model, rho)
            assert model.viscous_potential(rho) == pytest.approx(
                ref["viscous_potential"], rel=1e-8, abs=1e-12)
            assert model.compression_energy(rho) == pytest.approx(
                ref["compression_energy"], rel=1e-8, abs=1e-12)
            assert model.spacing_potential(s) == pytest.approx(
                ref["spacing_potential"], rel=1e-8, abs=1e-12)
            assert model.envelope_parts(rho) == pytest.approx(
                (ref["part_energy"], ref["part_visc"], ref["viscous_potential"]),
                rel=1e-8, abs=1e-12)


def test_compression_energy_of_callable_laws_next_to_reference(callable_models):
    # a table of (P(t) - P(rho*))/t^2 keeps its digits where rho*int P/t^2
    # and the P(rho*) terms cancel: Saint-Venant laws, exact 4.905 (rho-1)^2
    sv = callable_models[1]
    for rho, rel in ((1.0 + 1e-6, 1e-8), (1.0 + 1e-9, 1e-6)):
        assert sv.compression_energy(rho) == pytest.approx(4.905 * (rho - 1.0) ** 2,
                                                           rel=rel, abs=0.0)


def test_spacing_potential_overflow_is_reported(sv, ideal, ideal_callable):
    # towards vacuum widths the pressure integral diverges; evaluations that
    # overflow, or that leave a Gauss table's reach, must raise instead of
    # returning inf
    for model in (sv, ideal, ideal_callable):
        with pytest.raises(fc.QuadratureError):
            model.spacing_potential(1e-320)


def test_envelope_finite_next_to_reference_density(ideal, power_law):
    # the ideal gas's energy part here is a near-empty first panel of its table
    for model in (ideal, power_law):
        for rho in (1.0 + 1e-15, 1.0 - 1e-14):
            assert math.isfinite(model.energy_envelope(rho))


def test_quadrature_above_tolerance_still_raises():
    # a singular viscosity and a pressure with a kink at rho = 2 fail the
    # tables' half-panel check instead of giving a wrong envelope; the
    # kinked pressure already at construction, whose growth probe builds
    # the spacing potential's table
    rho = lambda r: np.asarray(r, float)
    model = fc.FluidModel.custom(pressure=lambda r: rho(r) ** 2,
                                 viscosity=lambda r: 1.0 / abs(rho(r) - 1.3),
                                 m=1.0, length=1.0)
    with pytest.raises(fc.QuadratureError, match="half-panel"):
        model.energy_envelope(1.5)
    with pytest.raises(fc.QuadratureError, match="half-panel"):
        fc.FluidModel.custom(pressure=lambda r: rho(r) ** 2 + np.maximum(rho(r) - 2.0, 0.0),
                             viscosity=rho, m=1.0, length=1.0)


def test_rejects_nonpositive_density(sv):
    with pytest.raises(ModelError):
        sv.compression_energy(-1.0)
    with pytest.raises(ModelError):
        sv.viscous_potential(0.0)
    with pytest.raises(ModelError):
        sv.spacing_potential(-0.5)


def test_rejects_non_increasing_pressure():
    # a constant and a decreasing pressure, judged from the pressure samples
    for pressure in (lambda r: 1.0 + 0.0 * np.asarray(r, float),
                     lambda r: 1.0 / np.asarray(r, float)):
        with pytest.raises(ModelError, match="strictly increasing"):
            fc.FluidModel.custom(pressure=pressure,
                                 viscosity=lambda r: np.asarray(r, float),
                                 m=1.0, length=1.0)


@pytest.mark.parametrize("m, length, rho_star", [(1e308, 1.0, "1e+308"),
                                                 (1.0, 1e-300, "1e+300"),
                                                 (1e-300, 1.0, "1e-300")])
def test_rejects_a_reference_density_whose_reach_leaves_the_floats(m, length, rho_star):
    # named as the reference density before any law is evaluated; at L = 1e-300
    # the probe grid still fits (up to 1e306) but the tables' reach does not
    def unreachable(rho):
        raise AssertionError("a law was evaluated")

    with pytest.raises(ModelError, match=re.escape(f"reference density m/L = {rho_star} is out")):
        fc.FluidModel.custom(pressure=unreachable, viscosity=unreachable, m=m, length=length)
    with pytest.raises(ModelError, match="reference density m/L"):
        fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=m, length=length)


def test_custom_scalar_callables_are_rejected():
    # laws must map float arrays elementwise; a scalar-only law, or one that
    # ignores the shape of its argument, is rejected where it enters
    square = lambda r: np.asarray(r, float) ** 2
    for pressure, viscosity, named in ((lambda r: float(r) ** 2, square, "pressure law"),
                                       (square, lambda r: float(r), "viscosity law"),
                                       (square, lambda r: 1.0, "viscosity law")):
        with pytest.raises(ModelError, match=named):
            fc.FluidModel.custom(pressure=pressure, viscosity=viscosity, m=1.0, length=1.0)


def test_no_subcommand_imports_scipy(tmp_path):
    # every subcommand on a gas whose energy part has no closed form, a
    # custom power law at pressure exponent 1.4 and a model of callable laws
    # run with scipy blocked; none of them loads dataclasses or
    # numpy.polynomial, which would only add to the start-up time
    package_root = Path(fc.__file__).resolve().parents[1]
    shipped = package_root.parent / "configs" / "ideal_gas.json"
    config = json.loads(shipped.read_text())
    config["model"] = {"kind": "custom", "pressure": {"coeff": 1.0, "exponent": 1.4},
                       "viscosity": {"coeff": 1.0, "exponent": 0.2}}
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps(config))
    runs = [["check", "--config", str(shipped)],
            ["simulate", "--config", str(shipped), "--out", str(tmp_path / "sim")],
            ["validate", "--config", str(shipped), "--out", str(tmp_path / "val")],
            ["converge", "--config", str(shipped), "--n", "8,16",
             "--out", str(tmp_path / "conv")],
            ["check", "--config", str(custom)]]
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "import numpy as np",
        "from fluidchain import FluidModel",
        "from fluidchain.cli import main",
        f"for argv in {runs!r}:",
        "    assert main(argv) == 0, argv",
        "law = lambda r: np.asarray(r, float) ** 1.4",
        "FluidModel.custom(pressure=law, viscosity=law, m=1.0, length=1.0)"
        ".energy_envelope_limits()",
        "loaded = {'dataclasses', 'numpy.polynomial'} & set(sys.modules)",
        "assert not loaded, loaded",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("order", [3, 5, GAUSS_ORDER])
def test_gauss_rules_are_leggauss_bit_for_bit(order):
    assert sorted(GAUSS_RULES) == [3, 5, GAUSS_ORDER]
    for literal, computed in zip(GAUSS_RULES[order], np.polynomial.legendre.leggauss(order)):
        assert literal.dtype == computed.dtype
        assert literal.tobytes() == computed.tobytes()


def test_envelope_inversions_are_recomputed_in_few_calls(sv, monkeypatch):
    # a model stores no envelope result: a repeated query repeats its calls
    calls = []
    square = lambda r: np.asarray(r, float) ** 2
    model = fc.FluidModel.custom(pressure=square, viscosity=square, m=1.0, length=1.0)
    evaluate = model.energy_envelope

    def counting_envelope(rho):
        calls.append(rho)
        return evaluate(rho)

    monkeypatch.setattr(model, "energy_envelope", counting_envelope)
    bounds = spacing_bounds(model, 1e-3, 2e-3)
    assert calls
    first = len(calls)
    calls.clear()
    assert spacing_bounds(model, 1e-3, 2e-3) == bounds
    assert len(calls) == first
    # a fresh inversion inside the default bracket: one bracket check, then
    # one call per ENVELOPE_BATCH_LEVELS levels of the ~37 it bisects
    fresh = (fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=1.0, length=1.0),
             fc.FluidModel.ideal_gas_entropy(c=1.0, gamma=1.4, visc_amp=1.0,
                                             m=1.0, length=1.0))
    for other in fresh:
        monkeypatch.setattr(other, "energy_envelope",
                            lambda rho, f=other.energy_envelope: calls.append(rho) or f(rho))
    for other in fresh + (model,):
        for target in (0.3, -0.3):
            calls.clear()
            rho = other.energy_envelope_inverse(target)
            first = len(calls)
            assert 0 < first <= 8
            calls.clear()
            assert other.energy_envelope_inverse(target) == rho
            assert len(calls) == first
    # an unreachable budget raises every time
    for _ in range(2):
        with pytest.raises(AdmissibilityError):
            sv.energy_envelope_inverse(-5.0)
