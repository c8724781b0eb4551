import numpy as np
import pytest

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
    return fc.make_preset("custom", {"pressure": {"coeff": 1.0, "exponent": 2.0},
                                     "viscosity": {"coeff": 1.0, "exponent": 0.5}},
                          m=1.0, length=1.0)


MODEL_FIXTURES = {"saint_venant": "sv", "isentropic_gas": "isentropic",
                  "ideal_gas_entropy": "ideal", "custom": "power_law"}


@pytest.fixture(params=sorted(MODEL_FIXTURES))
def any_model(request):
    """Each of the four model kinds in turn."""
    model = request.getfixturevalue(MODEL_FIXTURES[request.param])
    assert model.kind == request.param
    return model


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


def random_state(model, n, rng, v_scale=1.0):
    """A valid interior state with spacings in [0.5, 1.5]/n after rescale."""
    gaps = rng.uniform(0.5, 1.5, n)
    gaps *= model.length / gaps.sum()
    x = model.length - np.cumsum(gaps)[:-1]
    v = v_scale * rng.uniform(-1.0, 1.0, n - 1)
    return fc.ParticleState(n=n, t=0.0, x=x, v=v)
