"""Continuous density/velocity fields rebuilt from a particle state.

Each cell between adjacent packets carries the density m/(n * width) at its
lower node; both fields are piecewise linear between node values, with the
ghost cell taking the same density at both ends and the velocity pinned to
zero at the walls.  The energies and residuals that need a spatial
derivative take the exact piecewise-constant cell slope.
"""

from typing import NamedTuple

import numpy as np

from .dynamics import ParticleState, gaps_from_interior, ordered_sum
from .model import GAUSS_RULES, FluidModel


def _in_cell(lo, hi, left, right, x):
    """The line through ``(left, lo)`` and ``(right, hi)`` at ``x``, fraction
    first: it is exactly 0 or 1 at a node, so a wall's 0 is exact."""
    return lo + (x - left) / (right - left) * (hi - lo)


class ReconstructedField(NamedTuple):
    """Piecewise-linear density/velocity over [0, L], held as its n+1 nodes
    in ascending position order (wall first, ghost end last)."""

    n: int
    length: float
    asc_x: np.ndarray        # asc_x[0] = 0, asc_x[n] = L
    asc_rho: np.ndarray      # asc_rho[n] == asc_rho[n-1]
    asc_v: np.ndarray        # zero at both ends

    def _interp(self, values, x):
        xq = np.asarray(x, dtype=float)
        if np.any(xq < -1e-12) or np.any(xq > self.length * (1.0 + 1e-12)):
            raise ValueError("query point outside [0, L]")
        k = np.clip(np.searchsorted(self.asc_x, xq, side="left") - 1, 0, self.n - 1)
        out = _in_cell(values[k], values[k + 1], self.asc_x[k], self.asc_x[k + 1], xq)
        return out if np.ndim(x) else float(out)

    def rho(self, x):
        return self._interp(self.asc_rho, x)

    def v(self, x):
        return self._interp(self.asc_v, x)


def reconstruct(model: FluidModel, state: ParticleState) -> ReconstructedField:
    """Build the piecewise-linear fields for a state; DomainError unless it
    is ordered."""
    n = state.n
    gaps = gaps_from_interior(model.length, state.x)
    asc_x = np.empty(n + 1)
    asc_x[0] = 0.0
    asc_x[1:-1] = state.x[::-1]
    asc_x[-1] = model.length
    asc_rho = np.empty(n + 1)
    asc_rho[:-1] = (model.m / (n * gaps))[::-1]
    asc_rho[-1] = asc_rho[-2]
    asc_v = np.concatenate(([0.0], state.v[::-1], [0.0]))
    return ReconstructedField(n=n, length=model.length,
                              asc_x=asc_x, asc_rho=asc_rho, asc_v=asc_v)


def total_mass(field: ReconstructedField) -> float:
    """Exact integral of the piecewise-linear density (trapezoid per cell,
    summed ghost-end first for run-to-run determinism)."""
    x, rho = field.asc_x, field.asc_rho
    return ordered_sum(((x[1:] - x[:-1]) * 0.5 * (rho[:-1] + rho[1:]))[::-1])


def gauss_cells(x, rho, v, order):
    """Gauss-Legendre sampling of every cell of the fields with ascending
    nodes ``x``, ``rho`` and ``v``, each of shape (..., n+1).

    Returns the points and weights, shape (..., n, order), and the density
    and velocity interpolated linearly within each point's own cell.
    """
    nodes, weights = GAUSS_RULES[order]
    left, right = x[..., :-1, None], x[..., 1:, None]
    half = 0.5 * (right - left)
    pts = 0.5 * (left + right) + half * nodes

    def interp(values):
        return _in_cell(values[..., :-1, None], values[..., 1:, None], left, right, pts)

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
        cells = np.sum((0.5 * rho_pts * u ** 2 + q) * wts, axis=-1)
        total = ordered_sum(cells[..., ::-1])    # ghost-end first, as in total_mass
        return np.where(total < 0.0, 0.0, total)     # max(total, 0.0), NaN kept

    return energy(vel), energy(shifted)

