"""Continuous density/velocity fields rebuilt from a particle state.

Each cell between adjacent packets carries the density m/(n * width) at its
lower node; both fields are piecewise linear between node values, with the
ghost cell taking the same density at both ends and the velocity pinned to
zero at the walls.  The energies and residuals that need a spatial
derivative take the exact piecewise-constant cell slope.
"""

import numpy as np

from .dynamics import ParticleState, gaps_from_interior
from .model import GAUSS_RULES, FluidModel


def sample(x, values, points):
    """The piecewise-linear field with ascending nodes ``x`` (from 0 to L)
    and node values ``values``, each of shape (n+1,), at ``points`` in
    [0, L] (``np.interp``, exact at every node); a ValueError for a point
    outside."""
    xq = np.asarray(points, dtype=float)
    if np.any(xq < -1e-12) or np.any(xq > x[-1] * (1.0 + 1e-12)):
        raise ValueError("query point outside [0, L]")
    out = np.interp(xq, x, values)
    return out if np.ndim(points) else float(out)


def reconstruct(model: FluidModel, state: ParticleState):
    """The piecewise-linear fields of a state as their n+1 nodes ``(x, rho,
    v)`` in ascending position order: ``x`` from 0 to L, ``rho`` the
    ``density`` of ``x``, ``v`` zero at both ends.  DomainError unless the
    state is ordered."""
    gaps_from_interior(model.length, state.x)       # the ordering test
    x = np.concatenate(([0.0], state.x[::-1], [model.length]))
    return x, density(model, x), np.concatenate(([0.0], state.v[::-1], [0.0]))


def density(model, x):
    """The density nodes at ascending nodes ``x`` of shape (..., n+1): each
    cell's m/(n * width) at its lower node, the ghost cell's repeated at L;
    the widths are those of ``gaps_from_interior``, reversed, to the bit."""
    widths = np.diff(x)
    rho = model.m / (widths.shape[-1] * widths)
    return np.concatenate((rho, rho[..., -1:]), axis=-1)


def total_mass(x, rho):
    """Exact integral of the piecewise-linear density with ascending nodes
    ``x`` and ``rho`` of shape (..., n+1): trapezoid per cell.  A float for
    one field, an array over the leading axes otherwise."""
    return np.sum((x[..., 1:] - x[..., :-1]) * 0.5 * (rho[..., :-1] + rho[..., 1:]),
                  axis=-1)


# rows per block of the passes over stacked snapshot rows (diagnostics,
# energies, residuals): one stack of every snapshot's Gauss cells would
# raise the peak memory of a long series
BLOCK = 32


def row_blocks(count):
    """Slices of at most ``BLOCK`` rows that cover ``count`` rows in order."""
    return [slice(start, start + BLOCK) for start in range(0, count, BLOCK)]


def gauss_cells(x, rho, v, order):
    """Gauss-Legendre sampling of every cell of the fields with ascending
    nodes ``x``, ``rho`` and ``v``, each of shape (..., n+1).

    Returns the points and weights, shape (..., n, order), and the density
    and velocity interpolated linearly within each point's own cell, at the
    rule's fixed fractions ``(1 + nodes) / 2`` of the cell.
    """
    nodes, weights = GAUSS_RULES[order]
    left, right = x[..., :-1, None], x[..., 1:, None]
    half = 0.5 * (right - left)
    pts = 0.5 * (left + right) + half * nodes
    fractions = 0.5 * (1.0 + nodes)

    def interp(values):
        lo = values[..., :-1, None]
        return lo + fractions * (values[..., 1:, None] - lo)

    return pts, half * weights, interp(rho), interp(v)


def energies(model, x, rho, v):
    """The continuous energies ``(E, W)`` of the fields with ascending nodes
    ``x``, ``rho`` and ``v`` of shape (..., n+1), from one order-5 sampling,
    each of the shape of the leading axes: kinetic plus compression energy,
    with ``v`` in ``E`` and ``v + mu(rho) * rho_x / rho^2`` (exact cell
    slope) in ``W``."""
    _, wts, rho_pts, vel = gauss_cells(x, rho, v, 5)
    q = np.asarray(model.compression_energy(rho_pts))
    slope = (rho[..., 1:] - rho[..., :-1]) / (x[..., 1:] - x[..., :-1])
    mu = np.asarray(model.viscosity(rho_pts))
    shifted = vel + mu * slope[..., None] / rho_pts ** 2

    def energy(u):
        total = np.sum(np.sum((0.5 * rho_pts * u ** 2 + q) * wts, axis=-1), axis=-1)
        return np.where(total < 0.0, 0.0, total)     # max(total, 0.0), NaN kept

    return energy(vel), energy(shifted)

