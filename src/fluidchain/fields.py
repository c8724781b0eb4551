"""Continuous density/velocity fields rebuilt from a particle state.

Each cell between adjacent packets carries the density m/(n * width) at its
lower node; both fields are piecewise linear between node values, with the
ghost cell taking the same density at both ends and the velocity pinned to
zero at the walls.  The energies and residuals that need a spatial
derivative take the exact piecewise-constant cell slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ParticleState, gaps_from_interior, ordered_sum
from .model import FluidModel

# Gauss-Legendre rules: order 5 for the energies, 3 for the weak residuals
_GAUSS = {order: np.polynomial.legendre.leggauss(order) for order in (3, 5)}


@dataclass(frozen=True)
class ReconstructedField:
    """Piecewise-linear density/velocity over [0, L].

    ``edges``, ``rho_nodes`` and ``v_nodes`` are in descending position
    order (ghost end first); ascending copies are kept for fast lookup.
    """

    n: int
    length: float
    edges: np.ndarray        # length n+1, edges[0] = L, edges[n] = 0
    rho_nodes: np.ndarray    # length n+1, rho_nodes[0] == rho_nodes[1]
    v_nodes: np.ndarray      # length n+1, zero at both ends
    asc_x: np.ndarray
    asc_rho: np.ndarray
    asc_v: np.ndarray

    def _interp(self, values, x):
        xq = np.asarray(x, dtype=float)
        if np.any(xq < -1e-12) or np.any(xq > self.length * (1.0 + 1e-12)):
            raise ValueError("query point outside [0, L]")
        k = np.clip(np.searchsorted(self.asc_x, xq, side="left") - 1, 0, self.n - 1)
        x0 = self.asc_x[k]
        width = self.asc_x[k + 1] - x0
        out = values[k] + (values[k + 1] - values[k]) * (xq - x0) / width
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
    edges = np.empty(n + 1)
    edges[0] = model.length
    edges[1:-1] = state.x
    edges[-1] = 0.0
    rho_nodes = np.empty(n + 1)
    rho_nodes[1:] = model.m / (n * gaps)
    rho_nodes[0] = rho_nodes[1]
    v_nodes = np.concatenate(([0.0], state.v, [0.0]))
    return ReconstructedField(
        n=n, length=model.length,
        edges=edges, rho_nodes=rho_nodes, v_nodes=v_nodes,
        asc_x=edges[::-1].copy(), asc_rho=rho_nodes[::-1].copy(),
        asc_v=v_nodes[::-1].copy())


def total_mass(field: ReconstructedField) -> float:
    """Exact integral of the piecewise-linear density (trapezoid per cell,
    summed ghost-end first for run-to-run determinism)."""
    widths = field.edges[:-1] - field.edges[1:]
    rho = field.rho_nodes
    return ordered_sum(widths * 0.5 * (rho[:-1] + rho[1:]))


def gauss_cells(field: ReconstructedField, order: int):
    """Gauss-Legendre sampling of every cell, ascending cells.

    Returns the points and weights, shape (n, order), and the density and
    velocity fields at the points.
    """
    nodes, weights = _GAUSS[order]
    left = field.asc_x[:-1][:, None]
    right = field.asc_x[1:][:, None]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts = mid + half * nodes[None, :]
    rho = np.asarray(field.rho(pts.ravel())).reshape(pts.shape)
    vel = np.asarray(field.v(pts.ravel())).reshape(pts.shape)
    return pts, half * weights[None, :], rho, vel


def energies(model, field):
    """``(continuous_energy, continuous_energy_mod)`` of a field from one
    order-5 sampling."""
    _, wts, rho, vel = gauss_cells(field, 5)
    q = np.asarray(model.compression_energy(rho))
    slope = (field.asc_rho[1:] - field.asc_rho[:-1]) / (field.asc_x[1:] - field.asc_x[:-1])
    mu = np.asarray(model.viscosity(rho))
    shifted = vel + mu * slope[:, None] / rho ** 2

    def energy(u):
        cells = np.sum((0.5 * rho * u ** 2 + q) * wts, axis=1)
        return max(ordered_sum(cells[::-1]), 0.0)    # ghost-end first, as in total_mass

    return energy(vel), energy(shifted)


def continuous_energy(model: FluidModel, field: ReconstructedField) -> float:
    """Kinetic plus compression energy of the rebuilt fields."""
    return energies(model, field)[0]


def continuous_energy_mod(model: FluidModel, field: ReconstructedField) -> float:
    """Energy of the viscosity-transformed momentum plus compression energy.

    The transformed velocity is v + mu(rho) * rho_x / rho^2 with the exact
    cell slope for rho_x.
    """
    return energies(model, field)[1]
