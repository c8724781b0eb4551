import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import model as model_module
from fluidchain.dynamics import spacing_bounds
from fluidchain.errors import AdmissibilityError, ModelError


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
        fc.make_preset("saint_venant", {"g": 9.81, "nu": -2.0}, m=1.0, length=1.0)
    law = {"coeff": 1.0, "exponent": 2.0}
    with pytest.raises(ModelError):
        fc.make_preset("custom", {"pressure": law, "viscosity": law}, m=1.0, length=0.0)


@pytest.mark.parametrize("kind, params, build", [
    ("saint_venant", {"g": 9.81, "nu": 1.0},
     lambda m, L: fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=m, length=L)),
    ("isentropic_gas", {"c": 1.0, "gamma": 1.4},
     lambda m, L: fc.FluidModel.isentropic_gas(c=1.0, gamma=1.4, m=m, length=L)),
    ("isentropic_gas", {"c": 1.0, "gamma": 1.4, "mu": 0.5},
     lambda m, L: fc.FluidModel.isentropic_gas(c=1.0, gamma=1.4, mu=0.5, m=m, length=L)),
    ("ideal_gas_entropy", {"c": 1.0, "gamma": 1.4, "visc_amp": 1.0},
     lambda m, L: fc.FluidModel.ideal_gas_entropy(c=1.0, gamma=1.4, visc_amp=1.0,
                                                  m=m, length=L)),
    ("custom", {"pressure": {"coeff": 2.0, "exponent": 1.5},
                "viscosity": {"coeff": 0.5, "exponent": 0.5}},
     lambda m, L: fc.FluidModel.custom(
         pressure=lambda r: 2.0 * np.asarray(r, float) ** 1.5,
         viscosity=lambda r: 0.5 * np.asarray(r, float) ** 0.5, m=m, length=L)),
], ids=["saint_venant", "isentropic_gas", "isentropic_gas_mu", "ideal_gas_entropy", "custom"])
def test_make_preset_equals_its_constructor(kind, params, build):
    m, length = 1.3, 0.7
    preset = fc.make_preset(kind, params, m=m, length=length)
    direct = build(m, length)
    assert (preset.kind, preset.params) == (direct.kind, direct.params)
    s = m / preset.probe_grid()
    for a, b in zip(preset.force_and_gain(s), direct.force_and_gain(s)):
        assert np.array_equal(a, b)


def test_make_preset_rejects_unknown_kind():
    # a FluidModel attribute that is no constructor is no kind either; a
    # record with a missing or an extra key is refused naming the key
    law = {"coeff": 1.0, "exponent": 2.0}
    for kind, params, match in (
            ("mystery", {}, "unknown model kind"),
            ("probe_grid", {}, "unknown model kind"),
            ("custom_law", {}, "unknown model kind"),
            ("saint_venant", {"g": 9.81}, "needs parameter 'nu'"),
            ("saint_venant", {"g": 9.81, "nu": 1.0, "mu": 1.0}, "takes no parameter 'mu'"),
            ("custom", {"pressure": law, "viscosity": {"coeff": 1.0}},
             "viscosity law needs parameter 'exponent'")):
        with pytest.raises(ModelError, match=match):
            fc.make_preset(kind, params, m=1.0, length=1.0)


def test_viscous_potential(sv, ideal):
    assert sv.viscous_potential(1.0) == 0.0
    # closed form nu*(rho - rho*) cross-checked by quadrature
    assert sv.viscous_potential(2.0) == pytest.approx(1.0, rel=1e-12)
    assert sv.viscous_potential_quad(2.0) == pytest.approx(1.0, rel=1e-10)
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
    assert sv.compression_energy_quad(2.0) == pytest.approx(4.905, rel=1e-9)
    c, gamma = 1.0, 1.4
    for rho in (0.3, 0.9, 2.5):
        expect = (c / (gamma - 1)) * (rho ** gamma - gamma * rho + (gamma - 1))
        assert isentropic.compression_energy(rho) == pytest.approx(expect, rel=1e-12)
        assert isentropic.compression_energy_quad(rho) == pytest.approx(expect, rel=1e-8)


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
    assert sv.spacing_potential_quad(0.5) == pytest.approx(4.905, rel=1e-9)


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
    return float(model.force_and_gain(np.array([s]))[0][0])


def test_spacing_potential_prime(sv, isentropic):
    # the force of force_and_gain is the slope of the spacing potential
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
    proxy = fc.make_preset("custom", {"pressure": {"coeff": 1.0, "exponent": 1.5},
                                      "viscosity": {"coeff": 1.0, "exponent": 0.5}},
                           m=1.0, length=1.0)
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


def test_pressure_growth_report(sv, ideal, isentropic):
    assert sv.pressure_growth_report().holds
    assert ideal.pressure_growth_report().holds
    assert isentropic.pressure_growth_report().holds
    linear = fc.make_preset("custom", {"pressure": {"coeff": 1.0, "exponent": 1.0},
                                       "viscosity": {"coeff": 1.0, "exponent": 1.0}},
                            m=1.0, length=1.0)
    report = linear.pressure_growth_report()
    assert not report.holds
    assert report.grows_high          # log divergence at high density
    assert not report.bounded_low     # log divergence towards vacuum


def _power_law_preset(gamma, beta, m=1.0, length=1.0):
    return fc.make_preset("custom", {"pressure": {"coeff": 1.5, "exponent": gamma},
                                     "viscosity": {"coeff": 0.5, "exponent": beta}},
                          m=m, length=length)


# (gamma, beta[, m, L]): each hits the exact logarithm of one closed form,
# beta = 0 the viscous potential, beta = 1/2 the viscosity part, gamma = 1
# the spacing potential, gamma = 2 with beta = -1/2 the energy part; the last
# has a reference density other than 1
LOG_BRANCH_LAWS = ((2.0, 0.0), (2.0, 0.5), (1.0, 1.0), (2.0, -0.5), (2.0, 0.5, 1.3, 0.7))


def test_closed_forms_match_quadrature_on_probe_grid(sv, ideal, isentropic, power_law):
    for model in (sv, ideal, isentropic, power_law,
                  *(_power_law_preset(*law) for law in LOG_BRANCH_LAWS)):
        near = model.rho_star * np.array([1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6])
        for rho in (*model.probe_grid(), *near):
            rho = float(rho)
            s = model.m / rho
            assert model.viscous_potential(rho) == pytest.approx(
                model.viscous_potential_quad(rho), rel=1e-8, abs=1e-12)
            assert model.compression_energy(rho) == pytest.approx(
                model.compression_energy_quad(rho), rel=1e-8, abs=1e-12)
            assert model.spacing_potential(s) == pytest.approx(
                model.spacing_potential_quad(s), rel=1e-8, abs=1e-12)
            # the energy part is closed at gamma = 2 and integrated otherwise
            assert model.envelope_parts(rho) == pytest.approx(
                model.envelope_parts_quad(rho), rel=1e-8, abs=1e-12)


def test_spacing_potential_overflow_is_reported(sv, ideal):
    # towards vacuum widths the pressure integral diverges; evaluations that
    # overflow must raise instead of returning inf
    for model in (sv, ideal):
        with pytest.raises(fc.QuadratureError):
            model.spacing_potential(1e-320)


def test_envelope_finite_next_to_reference_density(ideal, power_law):
    # scipy warns on these near-empty intervals although it integrates them
    # to full precision; that warning alone is not a failure
    for model in (ideal, power_law):
        for rho in (1.0 + 1e-15, 1.0 - 1e-14):
            assert math.isfinite(model.energy_envelope(rho))


def test_quadrature_above_tolerance_still_raises(ideal):
    with pytest.raises(fc.QuadratureError):
        ideal._quad(lambda t: 1.0 / abs(t - 1.3), 1.0, 2.0)


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


def test_custom_scalar_callables_are_rejected():
    # laws must map float arrays elementwise; a scalar-only law, or one that
    # ignores the shape of its argument, is rejected where it enters
    square = lambda r: np.asarray(r, float) ** 2
    for pressure, viscosity, named in ((lambda r: float(r) ** 2, square, "pressure law"),
                                       (square, lambda r: float(r), "viscosity law"),
                                       (square, lambda r: 1.0, "viscosity law")):
        with pytest.raises(ModelError, match=named):
            fc.FluidModel.custom(pressure=pressure, viscosity=viscosity, m=1.0, length=1.0)


def test_scipy_loads_at_the_first_quadrature():
    package_root = Path(fc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(package_root), os.environ.get("PYTHONPATH")])))
    # the energy part of a gas at gamma != 2, and any function of callable laws
    for quadrature in ("ideal_gas_entropy(c=1.0, gamma=1.4, visc_amp=1.0, m=1.0, "
                       "length=1.0).energy_envelope(2.0)",
                       "custom(pressure=square, viscosity=square, m=1.0, "
                       "length=1.0).viscous_potential(2.0)"):
        code = "\n".join([
            "import sys",
            "import fluidchain.cli",
            "from fluidchain import FluidModel, make_preset",
            "assert 'scipy' not in sys.modules, 'imported at load'",
            "sv = make_preset('saint_venant', {'g': 9.81, 'nu': 1.0}, m=1.0, length=1.0)",
            "sv.energy_envelope_limits()",
            "assert 'scipy' not in sys.modules, 'imported by a closed-form preset'",
            "law = {'coeff': 1.0, 'exponent': 2.0}",
            "custom = make_preset('custom', {'pressure': law,",
            "                                'viscosity': {'coeff': 1.0, 'exponent': 0.5}},",
            "                     m=1.0, length=1.0)",
            "custom.energy_envelope_limits()",
            "assert 'scipy' not in sys.modules, 'imported by a custom power law'",
            "square = lambda r: r * r",
            f"FluidModel.{quadrature}",
            "assert 'scipy.integrate' in sys.modules, 'not imported by quadrature'",
        ])
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


def test_envelope_limits_and_inversions_are_computed_once(sv, monkeypatch):
    calls = []
    scipy_backed = model_module.quad

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return scipy_backed(*args, **kwargs)

    # the binding FluidModel._quad calls, which the benchmark tracer patches too
    monkeypatch.setattr(model_module, "quad", counting_quad)
    square = lambda r: np.asarray(r, float) ** 2
    model = fc.FluidModel.custom(pressure=square, viscosity=square, m=1.0, length=1.0)
    bounds = spacing_bounds(model, 1e-3, 2e-3)
    assert calls
    calls.clear()
    assert spacing_bounds(model, 1e-3, 2e-3) == bounds
    assert calls == []
    # an unreachable budget raises every time; nothing is stored for it
    for _ in range(2):
        with pytest.raises(AdmissibilityError):
            sv.energy_envelope_inverse(-5.0)
