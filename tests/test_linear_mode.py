"""The chain against the exact damped linear mode of its linearisation
about rest.

Linearised about rest, the chain is v'' = -n^2 f' D^T D v - n^2 g D^T D v',
with D the cell difference matrix, f' = P'(rho*)/L^2 and g = mu(rho*)/(m L).
A constant density with the velocity A sin(k pi x/L) starts on the
eigenvector sin(k pi i/n) of D^T D, whose eigenvalue is
lambda_k = 4 sin^2(k pi/(2n)).  Its amplitude q then solves
q'' + a q' + b q = 0 with a = n^2 lambda_k g, b = n^2 lambda_k f', q(0) = A
and q'(0) = -a A.  With w = sqrt(a^2/4 - b), q = A e^(-at/2) (cosh(wt) -
(a/2) sinh(wt)/w), and the particles move by Q = int_0^t q = A e^(-at/2)
sinh(wt)/w.  The continuum mode of the PDE has (k pi)^2 in place of
n^2 lambda_k.
"""

import cmath
import math

import numpy as np
import pytest

import fluidchain as fc

from conftest import perturbed_initial

AMPLITUDE = 1e-4


def pressure_slope(model):
    """P'(rho*) in closed form: c gamma rho*^(gamma-1) for the pressure law
    P = c rho^gamma of each conftest model."""
    p = model.params
    c, gamma = {"saint_venant": lambda: (p["g"] / 2.0, 2.0),
                "isentropic_gas": lambda: (p["c"], p["gamma"]),
                "ideal_gas_entropy": lambda: (p["c"], p["gamma"]),
                "custom": lambda: (1.0, 2.0)}[model.kind]()    # conftest's P = rho^2
    return c * gamma * model.rho_star ** (gamma - 1.0)


def mode_factors(model, rate, t):
    """``(q/A, Q/A)`` at time ``t`` of the mode whose eigenvalue of
    n^2 D^T D is ``rate``."""
    a = rate * float(model.viscosity(model.rho_star)) / (model.m * model.length)
    b = rate * pressure_slope(model) / model.length ** 2
    w = cmath.sqrt(a * a / 4.0 - b)
    decay = math.exp(-a * t / 2.0)
    sinh_ratio = cmath.sinh(w * t) / w if w != 0.0 else t
    return ((decay * (cmath.cosh(w * t) - a / 2.0 * sinh_ratio)).real,
            (decay * sinh_ratio).real)


def mode_errors(model, n, k, T, continuum=False, rel_tol=1e-8):
    """The largest distance over the snapshots between the chain and the
    linear mode k: in the velocity, relative to the amplitude, and in the
    cell densities of the rows, relative to the mode's largest density
    perturbation."""
    init = perturbed_initial(model, AMPLITUDE, k)
    series = fc.simulate(model, fc.build_particles(model, init, n), T,
                         fc.IntegratorConfig(rel_tol=rel_tol, snapshot_dt=T / 10))
    rate = ((k * math.pi) ** 2 if continuum
            else n * n * 4.0 * math.sin(k * math.pi / (2 * n)) ** 2)
    x0, v0 = series.x[0], series.v[0]
    v_err = rho_err = rho_pert = 0.0
    for t, v, rho in zip(series.times, series.v, series.rho):
        q, moved = mode_factors(model, rate, t)
        rho_mode = (model.m / n) / np.diff(x0 + moved * v0)
        v_err = max(v_err, float(np.max(np.abs(v - q * v0))))
        rho_err = max(rho_err, float(np.max(np.abs(rho[:-1] - rho_mode))))
        rho_pert = max(rho_pert, float(np.max(np.abs(rho_mode - model.rho_star))))
    return v_err / AMPLITUDE, rho_err / rho_pert


@pytest.mark.parametrize("k", [1, 2])
def test_chain_follows_the_discrete_mode(any_model, k):
    # at amplitude 1e-4, n=16 and T=0.5 the measured errors over every kind
    # and both modes are at most 3.5e-6 in the velocity and 1.21e-5 in the
    # density: the O(A) nonlinear floor.  At rel_tol 1e-2 mode 1 misses by
    # 8e-4 to 2e-3 in the velocity.
    v_err, rho_err = mode_errors(any_model, 16, k, 0.5)
    assert v_err <= 1e-5
    assert rho_err <= 4e-5


@pytest.mark.parametrize("k", [1, 2])
def test_chain_tends_to_the_continuum_mode_at_second_order(any_model, k):
    # the distance to the PDE's mode falls like 1/n^2: measured ratios per
    # doubling are 3.79 to 4.08 over every kind and both modes
    errors = [mode_errors(any_model, n, k, 0.1, continuum=True) for n in (8, 16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse[0] >= 3.5 * fine[0]
        assert coarse[1] >= 3.5 * fine[1]
