"""Particle chain state, its equations of motion, and the discrete
energy-style functionals.

The chain has ``n`` mass packets of m/n each between a fixed wall at 0 and a
massless, motionless ghost marker at L.  Interior packet positions are stored
in descending order ``L > x_1 > ... > x_{n-1} > 0``; the boundary values
``x_0 = L``, ``x_n = 0`` and ``v_0 = v_n = 0`` are implicit constants and are
never stored, so boundary conditions cannot be mutated by accident.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import AdmissibilityError, DomainError
from .model import FluidModel


class _ParticleFields(NamedTuple):
    n: int
    t: float
    x: np.ndarray
    v: np.ndarray


class ParticleState(_ParticleFields):
    """Interior positions/velocities of the chain at a time stamp.

    Construction, ``_replace`` included, checks the shapes and finiteness;
    the ordering is checked by ``gaps_from_interior`` wherever a state is
    read.
    """

    __slots__ = ()

    def __new__(cls, n, t, x, v):
        if n < 2:
            raise DomainError(f"need at least 2 packets, got n={n}")
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != (n - 1,) or v.shape != (n - 1,):
            raise DomainError(
                f"state arrays must have length n-1={n - 1}, "
                f"got {x.shape} and {v.shape}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise DomainError("state entries must be finite")
        return super().__new__(cls, n, t, x, v)

    # _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


class DiscreteFunctionals(NamedTuple):
    """The discrete energy, the transformed-momentum energy, the
    squared-velocity-slope sum and the max adjacent damping-potential jump:
    floats for one state, arrays over the leading axes of stacked chains."""

    e_n: float
    w_n: float
    z_n: float
    h_n: float


def gaps_from_interior(length, x):
    """Cell widths x_{i-1} - x_i for i = 1..n from interior positions,
    walls at ``length`` and 0 included.

    The one definition of the ordered domain: raises DomainError unless
    0 < x_{n-1} < ... < x_1 < L, i.e. every width is positive.  The single
    test also rejects non-finite positions, which make the smallest width
    NaN or nonpositive.
    """
    full = np.concatenate(((length,), x, (0.0,)))
    return _ordered(full[:-1] - full[1:])


def _ordered(gaps):
    """``gaps``, after the ordering test of ``gaps_from_interior``."""
    smallest = np.minimum.reduce(gaps)
    if not smallest > 0.0:
        raise DomainError(
            "state violates the strict ordering 0 < x_{n-1} < ... < x_1 < L "
            f"(min gap {smallest:.3e})")
    return gaps


def stage_work(stage, n):
    """The views and buffers of ``rhs_arrays`` on the wall-padded ``stage``
    of 2(n+1) floats, made once for that stage: its neighbour pairs, its
    velocities, the cell differences (widths, a 0 - 0 between the halves,
    velocity jumps), densities and stresses."""
    jumps, rho, stress = np.empty(2 * n + 1), np.empty(n), np.empty(n)
    return (stage[:-1], stage[1:], stage[n + 2:-1], jumps, jumps[:n], jumps[n + 1:],
            rho, stress, stress[:-1], stress[1:])


def rhs_arrays(model, n, out, work):
    """Equations of motion on raw arrays; hot path for the integrator.

    The momentum balance v_t = d/dM (mu(rho) v_x - P(rho)) in mass
    coordinates: dx_i = v_i, and dv_i = (n/m) (sigma_i - sigma_{i+1}) is the
    difference of the stresses sigma_c = mu(rho_c) (v_{c-1} - v_c)/gap_c -
    P(rho_c) of the two adjacent cells, with rho_c = (m/n)/gap_c.  Raises
    DomainError when the ordering is violated, so integrators can reject
    trial states; a non-finite velocity gives non-finite accelerations,
    which the integrator's error test rejects.

    Reads the wall-padded stage ``[L, x, 0 | 0, v, 0]`` that ``work =
    stage_work(stage, n)`` was made on, writes dx and dv into the pair of
    arrays ``out`` (say, the interior entries of a wall-padded row),
    allocates no array of its own and returns the cell widths it tested, a
    view of ``work``.
    """
    lower, upper, vel, jumps, gaps, dvel, rho, stress, sigma, sigma_next = work
    np.subtract(lower, upper, out=jumps)
    _ordered(gaps)
    np.divide(model.m / n, gaps, out=rho)
    np.multiply(model.viscosity(rho), dvel, out=stress)
    np.divide(stress, gaps, out=stress)
    np.subtract(stress, model.pressure(rho), out=stress)
    dx, dv = out
    np.copyto(dx, vel)
    np.multiply(n / model.m, np.subtract(sigma, sigma_next, out=dv), out=dv)
    return gaps


def chain_functionals(model: FluidModel, gaps, v) -> DiscreteFunctionals:
    """Discrete functionals of chains with cell widths ``gaps`` of shape
    (..., n), ghost end first, and interior velocities ``v`` of shape
    (..., n-1), each an array over the leading axes (a float for one chain)."""
    n = gaps.shape[-1]
    m = model.m
    s = n * gaps
    pot = np.asarray(model.spacing_potential(s), dtype=float)
    damp = np.asarray(model.damping_potential(s), dtype=float)

    dvel = np.diff(v, prepend=0.0, append=0.0)     # v_c - v_{c-1}, walls at rest

    pot_sum = np.sum(pot, axis=-1)
    e_n = (m / (2.0 * n)) * np.sum(v * v, axis=-1) + (m / n) * pot_sum

    # transformed velocities v_i - n*K(s_i) + n*K(s_{i+1}), interior only
    v_tr = v - n * damp[..., :-1] + n * damp[..., 1:]
    w_n = (m / (2.0 * n)) * np.sum(v_tr * v_tr, axis=-1) + (m / n) * pot_sum

    z_n = 0.5 * np.sum(dvel * dvel / gaps, axis=-1)
    h_n = np.max(n * np.abs(damp[..., :-1] - damp[..., 1:]), axis=-1)
    return DiscreteFunctionals(e_n=e_n, w_n=w_n, z_n=z_n, h_n=h_n)


def functionals(model: FluidModel, state: ParticleState) -> DiscreteFunctionals:
    """``chain_functionals`` of a state, as floats; DomainError unless ordered."""
    gaps = gaps_from_interior(model.length, state.x)
    return DiscreteFunctionals(*map(float, chain_functionals(model, gaps, state.v)))


def sqrt_budget(e, w):
    """sqrt(w) + sqrt(e), the quantity the envelope bounds compare against."""
    return math.sqrt(w) + math.sqrt(e)


def spacing_bounds(model: FluidModel, e_bar, w_bar):
    """Guaranteed scaled-spacing interval [a, b] for trajectories whose
    initial energies stay below (e_bar, w_bar).

    The one admissibility verdict: the energy envelope must reach the
    budget sqrt(w_bar) + sqrt(e_bar) on both sides of rho* within the
    tables' reach; otherwise ``energy_envelope_inverse`` raises
    AdmissibilityError naming the failing side.  At zero budget the
    interval degenerates to [L, L].
    """
    if not (e_bar >= 0.0 and w_bar >= 0.0):
        raise AdmissibilityError("energy budgets must be nonnegative")
    budget = sqrt_budget(e_bar, w_bar)
    rho_hi = model.energy_envelope_inverse(budget)
    rho_lo = model.energy_envelope_inverse(-budget)
    return model.m / rho_hi, model.m / rho_lo

