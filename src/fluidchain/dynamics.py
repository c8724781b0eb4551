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


def gaps_from_interior(length, x, full=None):
    """Cell widths x_{i-1} - x_i for i = 1..n from interior positions,
    walls at ``length`` and 0 included, written into ``full`` (n+1
    entries, walls preset; a new array by default).

    The one definition of the ordered domain: raises DomainError unless
    0 < x_{n-1} < ... < x_1 < L, i.e. every width is positive.  The single
    test also rejects non-finite positions, which make the smallest width
    NaN or nonpositive.
    """
    if full is None:
        full = np.empty(x.size + 2)
        full[0] = length
        full[-1] = 0.0
    full[1:-1] = x
    gaps = full[:-1] - full[1:]
    if not gaps.min() > 0.0:
        raise DomainError(
            "state violates the strict ordering 0 < x_{n-1} < ... < x_1 < L "
            f"(min gap {gaps.min():.3e})")
    return gaps


def ordered_sum(values):
    """Left-to-right sum over the last axis, bit-identical to a
    ``total += value`` loop from 0.0 (``np.add.accumulate`` adds in order,
    unlike the pairwise ``np.sum``); 0.0 for an empty axis.  A float for 1-D
    input, an array over the leading axes otherwise."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 0:
        total = np.zeros(values.shape[:-1])
    else:
        total = 0.0 + np.add.accumulate(values, axis=-1)[..., -1]
    return float(total) if values.ndim == 1 else total


def wall_rows(length, n):
    """Zeroed (2, n+1) rows for the wall-padded positions and velocities of
    ``rhs_arrays``, the position wall at ``length`` written."""
    pad = np.zeros((2, n + 1))
    pad[0, 0] = length
    return pad


def rhs_arrays(model, n, x, v, *, out=None, pad=None):
    """Equations of motion on raw arrays; hot path for the integrator.

    The momentum balance v_t = d/dM (mu(rho) v_x - P(rho)) in mass
    coordinates: dx_i = v_i, and dv_i = (n/m) (sigma_i - sigma_{i+1}) is the
    difference of the stresses sigma_c = mu(rho_c) (v_{c-1} - v_c)/gap_c -
    P(rho_c) of the two adjacent cells, with rho_c = (m/n)/gap_c.  Raises
    DomainError when the ordering is violated, so integrators can reject
    trial states; a non-finite velocity gives non-finite accelerations,
    which the integrator's error test rejects.

    Returns (dx, dv).  The stage-row form, with the keywords ``out``, a row
    of 2(n-1) floats, and ``pad``, the ``wall_rows`` of the model, writes dx
    then dv into ``out`` and the wall-padded x and v into ``pad``,
    allocates neither, and returns the cell widths it tested.
    """
    if pad is None:
        pad = wall_rows(model.length, n)
    gaps = gaps_from_interior(model.length, x, pad[0])
    full_v = pad[1]
    full_v[1:-1] = v
    dvel = full_v[:-1] - full_v[1:]          # v_{c-1} - v_c per cell
    rho = (model.m / n) / gaps
    stress = model.viscosity(rho) * dvel / gaps - model.pressure(rho)
    if out is None:
        return v.copy(), (n / model.m) * (stress[:-1] - stress[1:])
    out[:n - 1] = v
    np.multiply(n / model.m, stress[:-1] - stress[1:], out=out[n - 1:])
    return gaps


def chain_functionals(model: FluidModel, gaps, v) -> DiscreteFunctionals:
    """Discrete functionals of chains with cell widths ``gaps`` of shape
    (..., n), ghost end first, and interior velocities ``v`` of shape
    (..., n-1), each an array over the leading axes (a float for one chain).

    Sums run left to right in the cell index so reruns are bit-identical.
    """
    n = gaps.shape[-1]
    m = model.m
    s = n * gaps
    pot = np.asarray(model.spacing_potential(s), dtype=float)
    damp = np.asarray(model.damping_potential(s), dtype=float)

    dvel = np.diff(v, prepend=0.0, append=0.0)     # v_c - v_{c-1}, walls at rest

    pot_sum = ordered_sum(pot)
    e_n = (m / (2.0 * n)) * ordered_sum(v * v) + (m / n) * pot_sum

    # transformed velocities v_i - n*K(s_i) + n*K(s_{i+1}), interior only
    v_tr = v - n * damp[..., :-1] + n * damp[..., 1:]
    w_n = (m / (2.0 * n)) * ordered_sum(v_tr * v_tr) + (m / n) * pot_sum

    z_n = 0.5 * ordered_sum(dvel * dvel / gaps)
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

    The one admissibility verdict: requires the budget sqrt(w_bar) +
    sqrt(e_bar) to sit strictly below both envelope limits (a NaN limit
    fails) and the inversion to stay within the tables' reach; raises
    AdmissibilityError naming the failing side otherwise.  At zero budget
    the interval degenerates to [L, L].
    """
    if not (e_bar >= 0.0 and w_bar >= 0.0):
        raise AdmissibilityError("energy budgets must be nonnegative")
    budget = sqrt_budget(e_bar, w_bar)
    limit_high, limit_low = model.energy_envelope_limits()
    if not budget < limit_high:
        raise AdmissibilityError(
            f"budget {budget:g} >= high-density envelope limit {limit_high:g}",
            side="high")
    if not budget < limit_low:
        raise AdmissibilityError(
            f"budget {budget:g} >= vacuum-side envelope limit {limit_low:g}",
            side="low")
    rho_hi = model.energy_envelope_inverse(budget)
    rho_lo = model.energy_envelope_inverse(-budget)
    return model.m / rho_hi, model.m / rho_lo

