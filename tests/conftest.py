import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import fluidchain as fc


@pytest.fixture(scope="session")
def sv():
    return fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=1.0, length=1.0)


@pytest.fixture(scope="session")
def ideal():
    return fc.FluidModel.ideal_gas_entropy(c=1.0, gamma=1.4, visc_amp=1.0,
                                           m=1.0, length=1.0)


@pytest.fixture(scope="session")
def isentropic():
    return fc.FluidModel.isentropic_gas(c=1.0, gamma=1.4, m=1.0, length=1.0)


@pytest.fixture(scope="session")
def power_law():
    """Custom power law P = rho^2, mu = rho^(1/2): closed forms throughout,
    the energy part too (gamma = 2)."""
    return fc.FluidModel.power_law(1.0, 2.0, 1.0, 0.5, m=1.0, length=1.0)


@pytest.fixture(scope="session")
def ideal_callable():
    """The ``ideal`` laws as callables: every derived function from a Gauss
    table."""
    return fc.FluidModel.custom(pressure=lambda r: np.asarray(r, float) ** 1.4,
                                viscosity=lambda r: np.asarray(r, float) ** 0.2,
                                m=1.0, length=1.0)


@pytest.fixture(scope="session")
def callable_models(ideal_callable):
    """Callable custom models, whose derived functions all come from Gauss
    tables: the ideal-gas laws, the Saint-Venant laws and a pressure that is
    no power law, with rho* other than 1."""
    sv = fc.FluidModel.custom(pressure=lambda r: 4.905 * np.asarray(r, float) ** 2,
                              viscosity=lambda r: np.asarray(r, float), m=1.0, length=1.0)
    mixed = fc.FluidModel.custom(
        pressure=lambda r: np.asarray(r, float) ** 1.5 + np.asarray(r, float) ** 3,
        viscosity=lambda r: 0.5 + np.sqrt(np.asarray(r, float)), m=1.3, length=0.7)
    return ideal_callable, sv, mixed


def _quad(f, lo, hi):
    """scipy's adaptive quadrature of the scalar ``f`` from ``lo`` to ``hi``
    at relative 1e-10, in log variable when the limits span more than three
    decades."""
    if lo == hi:
        return 0.0
    sign = 1.0 if lo < hi else -1.0
    lo, hi = sorted((lo, hi))
    if hi / lo > 1.0e3:
        return sign * quad(lambda u: f(math.exp(u)) * math.exp(u), math.log(lo), math.log(hi),
                           epsabs=1e-14, epsrel=1e-10, limit=200, full_output=1)[0]
    return sign * quad(f, lo, hi, epsabs=1e-14, epsrel=1e-10, limit=200, full_output=1)[0]


def quadrature_reference(model, rho):
    """The five integrals behind the derived functions of ``model`` at
    density ``rho``, through scipy's adaptive quadrature: the reference that
    closed forms and Gauss tables are checked against.  The spacing
    potential is taken at the width m/rho, and the energy part integrates
    the model's own compression energy."""
    rho, rho_star = float(rho), model.rho_star
    p_star = float(model.pressure(rho_star))
    law = lambda fn: lambda t: float(fn(t))
    pressure, viscosity = law(model.pressure), law(model.viscosity)
    return {
        "viscous_potential": _quad(lambda t: viscosity(t) / t, rho_star, rho),
        "compression_energy": rho * _quad(lambda t: (pressure(t) - p_star) / t ** 2,
                                          rho_star, rho),
        "spacing_potential": _quad(lambda t: pressure(t) / t ** 2, rho_star, rho),
        "part_energy": _quad(lambda t: t ** -1.5 * viscosity(t) * math.sqrt(
            max(model.compression_energy(t), 0.0)), rho_star, rho),
        "part_visc": _quad(lambda t: t ** -1.5 * viscosity(t), rho_star, rho),
    }


def reference_envelope_inverse(model, target):
    """Sequential bisection with one scalar envelope evaluation per level:
    the reference that :meth:`FluidModel.energy_envelope_inverse` must match
    within its bracket, or refuse on the same side."""
    target = float(target)
    if target == 0.0:
        return model.rho_star
    lo = model.rho_star * 10.0 ** -fc.model.PROBE_DECADES
    hi = model.rho_star * 10.0 ** fc.model.PROBE_DECADES
    if target > 0.0:
        while model.energy_envelope(hi) < target:
            hi *= 10.0
            if hi > model.rho_star * 10.0 ** fc.model.REACH_DECADES:
                raise fc.AdmissibilityError(
                    f"energy budget {target:g} exceeds the envelope's reach"
                    " towards high density", side="high")
        lo = model.rho_star
    else:
        while model.energy_envelope(lo) > target:
            lo /= 10.0
            if lo < model.rho_star * 10.0 ** -fc.model.REACH_DECADES:
                raise fc.AdmissibilityError(
                    f"energy budget {-target:g} exceeds the envelope's reach"
                    " towards vacuum", side="low")
        hi = model.rho_star
    a, b = math.log(lo), math.log(hi)
    while b - a > math.log1p(fc.model.ENVELOPE_INVERSE_REL_TOL):
        mid = 0.5 * (a + b)
        if model.energy_envelope(math.exp(mid)) < target:
            a = mid
        else:
            b = mid
    return math.exp(0.5 * (a + b))


def reference_envelope_limits(model):
    """``energy_envelope_limits`` from one scalar envelope call per probe."""
    grid = model.probe_grid()
    f_hi = [model.energy_envelope(float(grid[i])) for i in (-3, -2, -1)]
    f_lo = [model.energy_envelope(float(grid[i])) for i in (2, 1, 0)]
    # an increment within 4 ulps of its triple's largest magnitude has converged
    floor_hi, floor_lo = (4.0 * math.ulp(max(map(abs, f))) for f in (f_hi, f_lo))
    hi_unbounded = (abs(f_hi[2]) > 1.5 * abs(f_hi[1])
                    or (f_hi[2] - f_hi[1] >= 0.9 * (f_hi[1] - f_hi[0])
                        and f_hi[2] - f_hi[1] > floor_hi))
    lo_unbounded = (abs(f_lo[2]) > 1.5 * abs(f_lo[1])
                    or (f_lo[1] - f_lo[2] >= 0.9 * (f_lo[0] - f_lo[1])
                        and f_lo[1] - f_lo[2] > floor_lo))
    return (math.inf if hi_unbounded else abs(f_hi[2]),
            math.inf if lo_unbounded else abs(f_lo[2]))


def reference_growth_report(model):
    """The growth verdict ``(grows_high, bounded_low)`` of the construction
    check, from one scalar spacing-potential call per probe."""
    values = [model.spacing_potential(model.m / float(r)) for r in model.probe_grid()]
    d_hi, d_hi_prev = values[-1] - values[-2], values[-2] - values[-3]
    d_lo, d_lo_prev = values[1] - values[0], values[2] - values[1]
    # an increment within 4 ulps of its triple's largest magnitude has converged
    floor_hi, floor_lo = (4.0 * math.ulp(max(map(abs, f))) for f in (values[-3:], values[:3]))
    return (d_hi >= 0.9 * d_hi_prev and d_hi > floor_hi,
            not (d_lo >= 0.9 * d_lo_prev and d_lo > floor_lo))


MODEL_FIXTURES = {"saint_venant": "sv", "isentropic_gas": "isentropic",
                  "ideal_gas_entropy": "ideal", "custom": "power_law"}


@pytest.fixture(params=sorted(MODEL_FIXTURES))
def any_model(request):
    """Each of the four model kinds in turn."""
    model = request.getfixturevalue(MODEL_FIXTURES[request.param])
    assert model.kind == request.param
    return model


def equilibrium_state(model, n):
    """Uniformly spaced, motionless chain (the unique rest point)."""
    i = np.arange(1, n)
    return fc.ParticleState(n=n, t=0.0, x=model.length * (1.0 - i / n),
                            v=np.zeros(n - 1))


def equilibrium_initial(model):
    def v0(x):
        return 0.0 * np.asarray(x, dtype=float)

    return fc.make_initial(model, fc.constant_density(model), v0, 0.0)


def perturbed_initial(model, amplitude=0.1, mode=1):
    """Constant density plus a sine velocity kick."""
    v0, deriv_l2 = fc.sine_velocity(model, amplitude, mode)
    return fc.make_initial(model, fc.constant_density(model), v0, deriv_l2)


def multiharmonic_initial(model):
    """Admissible profile whose gradients feed every residual test function
    a first-order term: cosine-series density (exact unit mass) plus a
    three-mode sine velocity."""
    length = model.length
    xt = np.linspace(0.0, length, 4001)
    rt = (1.0
          - (0.06 / np.pi) * np.cos(np.pi * xt / length)
          - (0.05 / (2 * np.pi)) * np.cos(2 * np.pi * xt / length)
          - (0.04 / (3 * np.pi)) * np.cos(3 * np.pi * xt / length))
    amps = (0.06, 0.04, 0.025)

    def v0(x):
        x = np.asarray(x, dtype=float)
        inside = sum(a * np.sin((k + 1) * np.pi * x / length)
                     for k, a in enumerate(amps))
        return np.where((x <= 0.0) | (x >= length), 0.0, inside)

    deriv_l2 = float(np.sqrt(sum((a * (k + 1) * np.pi / length) ** 2 * length / 2.0
                                 for k, a in enumerate(amps))))
    return fc.make_initial(model, (xt, rt), v0, deriv_l2)


def snapshot_states(series):
    """Each snapshot of a series as the particle state its row was rebuilt
    from: the interior nodes, in descending position order."""
    return [fc.ParticleState(n=series.n, t=t, x=series.x[j, -2:0:-1], v=series.v[j, -2:0:-1])
            for j, t in enumerate(series.times)]


def padded(model, x, v):
    """The wall-padded stage [L, x, 0 | 0, v, 0] of the interior state (x, v)."""
    return np.concatenate(((model.length,), x, (0.0, 0.0), v, (0.0,)))


def rhs(model, n, x, v, rhs_arrays=fc.dynamics.rhs_arrays):
    """(dx, dv) of ``rhs_arrays`` at the interior state (x, v): the state
    padded with its walls, its ``stage_work`` and two fresh out arrays."""
    out = (np.empty(n - 1), np.empty(n - 1))
    rhs_arrays(model, n, out, fc.dynamics.stage_work(padded(model, x, v), n))
    return out


def random_state(model, n, rng, v_scale=1.0):
    """A valid interior state with spacings in [0.5, 1.5]/n after rescale."""
    gaps = rng.uniform(0.5, 1.5, n)
    gaps *= model.length / gaps.sum()
    x = model.length - np.cumsum(gaps)[:-1]
    v = v_scale * rng.uniform(-1.0, 1.0, n - 1)
    return fc.ParticleState(n=n, t=0.0, x=x, v=v)


def run_cli(*argv):
    """The CLI in a subprocess, outside pytest, whose warning filters would
    hide a numpy warning."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(fc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "fluidchain.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=60)
