"""The array sums equal the per-cell loops they replaced, bit for bit.

Each loop reference builds its per-cell terms one cell at a time and adds
them with one ``np.sum`` per state or snapshot, the sum the package uses;
so the vectorised terms equal the per-cell ones, and the stacked passes
over blocks of snapshots equal one pass per snapshot, exactly.  The sums
themselves are pairwise, within a few ulps times log2 n of exact.
"""

import math
import struct

import numpy as np
import pytest

import fluidchain as fc
from fluidchain import checks, fields
from fluidchain.dynamics import gaps_from_interior, spacing_bounds, sqrt_budget

from conftest import perturbed_initial, random_state


def bits(value):
    return struct.pack("<d", value)


# -- loop references: the per-cell loops the array code replaced ---------------

def loop_functionals(model, state):
    n, m = state.n, model.m
    gaps = gaps_from_interior(model.length, state.x)
    pot = np.asarray(model.spacing_potential(n * gaps), dtype=float)
    damp = np.asarray(model.damping_potential(n * gaps), dtype=float)
    full_v = np.concatenate(([0.0], state.v, [0.0]))
    dvel = full_v[:-1] - full_v[1:]
    pot_sum = np.sum(pot)
    kin_sum = np.sum([value * value for value in state.v])
    v_tr = state.v - n * damp[:-1] + n * damp[1:]
    w_sum = np.sum([value * value for value in v_tr])
    z_sum = np.sum([dvel[i] * dvel[i] / gaps[i] for i in range(n)])
    h_n = 0.0
    for i in range(n - 1):
        jump = n * abs(damp[i] - damp[i + 1])
        if jump > h_n:
            h_n = jump
    return ((m / (2.0 * n)) * kin_sum + (m / n) * pot_sum,
            (m / (2.0 * n)) * w_sum + (m / n) * pot_sum, 0.5 * z_sum, h_n)


def loop_total_mass(x, rho):
    return np.sum([(x[i + 1] - x[i]) * 0.5 * (rho[i] + rho[i + 1])
                   for i in range(x.size - 1)])


def loop_cells(nodes, order):
    """Gauss points and weights of the cells of one field with ascending
    nodes ``(x, rho, v)``, shape (n, order), with the fields interpolated
    cell by cell at the rule's fractions ``(1 + gauss) / 2``."""
    x, rho_nodes, v = nodes
    gauss, weights = np.polynomial.legendre.leggauss(order)
    left = x[:-1][:, None]
    right = x[1:][:, None]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts, wts = mid + half * gauss[None, :], half * weights[None, :]
    fractions = 0.5 * (1.0 + gauss)
    rho = np.array([lo + fractions * (hi - lo)
                    for lo, hi in zip(rho_nodes[:-1], rho_nodes[1:])])
    vel = np.array([lo + fractions * (hi - lo) for lo, hi in zip(v[:-1], v[1:])])
    return pts, wts, rho, vel


def row(series, j):
    """The ascending nodes ``(x, rho, v)`` of snapshot ``j``."""
    return series.x[j], series.rho[j], series.v[j]


def loop_energy(model, nodes, transformed):
    pts, wts, rho, vel = loop_cells(nodes, 5)
    if transformed:
        x, rho_nodes, _ = nodes
        slope = (rho_nodes[1:] - rho_nodes[:-1]) / (x[1:] - x[:-1])
        vel = vel + np.asarray(model.viscosity(rho)) * slope[:, None] / rho ** 2
    q = np.asarray(model.compression_energy(rho))
    cells = np.sum((0.5 * rho * vel ** 2 + q) * wts, axis=1)
    return max(np.sum(cells), 0.0)


@pytest.mark.parametrize("n", [2, 3, 17])
def test_array_sums_match_loop_references(any_model, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        state = random_state(any_model, n, rng, v_scale=0.3)
        f = fc.functionals(any_model, state)
        assert (f.e_n, f.w_n, f.z_n, f.h_n) == loop_functionals(any_model, state)
        nodes = fc.reconstruct(any_model, state)
        assert fc.total_mass(*nodes[:2]) == loop_total_mass(*nodes[:2])
        e, w = fields.energies(any_model, *nodes)
        assert bits(e) == bits(loop_energy(any_model, nodes, False))
        assert bits(w) == bits(loop_energy(any_model, nodes, True))


def within_log_n_ulps(value, groups):
    """Whether ``value``, a sum over ``groups`` of (coefficient, terms), is
    within 4 (log2 n + 1) ulps of the same sum with exact (``math.fsum``)
    term sums, relative to the magnitude of the terms."""
    n = max(len(terms) for _, terms in groups)
    exact = sum(c * math.fsum(terms) for c, terms in groups)
    scale = sum(abs(c) * math.fsum(np.abs(terms)) for c, terms in groups)
    return abs(value - exact) <= 4.0 * (math.log2(n) + 1.0) * np.finfo(float).eps * scale


@pytest.mark.parametrize("n", [2, 17, 129, 1000])
def test_sums_are_within_log_n_ulps_of_fsum(any_model, n):
    rng = np.random.default_rng(n)
    m = any_model.m
    for _ in range(3):
        state = random_state(any_model, n, rng, v_scale=0.3)
        gaps = gaps_from_interior(any_model.length, state.x)
        pot = np.asarray(any_model.spacing_potential(n * gaps), dtype=float)
        damp = np.asarray(any_model.damping_potential(n * gaps), dtype=float)
        v_tr = state.v - n * damp[:-1] + n * damp[1:]
        dvel = np.diff(state.v, prepend=0.0, append=0.0)
        f = fc.functionals(any_model, state)
        assert within_log_n_ulps(f.e_n, [(m / (2.0 * n), state.v ** 2), (m / n, pot)])
        assert within_log_n_ulps(f.w_n, [(m / (2.0 * n), v_tr ** 2), (m / n, pot)])
        assert within_log_n_ulps(f.z_n, [(0.5, dvel ** 2 / gaps)])
        x, rho, _ = fc.reconstruct(any_model, state)
        cells = (x[1:] - x[:-1]) * 0.5 * (rho[:-1] + rho[1:])
        assert within_log_n_ulps(fc.total_mass(x, rho), [(1.0, cells)])


def loop_residual(model, series, init, tf):
    """(value, quad_error) of one test function from the per-snapshot loop
    the stacked residual evaluation replaced: each snapshot's cells sampled
    and summed on their own."""
    horizon = series.times[-1]

    def space_integral(values, wts):
        return np.sum(np.sum(values * wts, axis=1))

    pts0, wts0, _, _ = loop_cells(row(series, 0), 3)
    initial = tf.shape(pts0) * init.rho0(pts0)
    if tf.kind == "momentum":
        initial = initial * np.asarray(init.v0(pts0.ravel()), float).reshape(pts0.shape)
    term0 = space_integral(initial, wts0)
    g = np.empty(len(series))
    for j in range(len(series)):
        x, _, v = row(series, j)
        pts, wts, rho, vel = loop_cells(row(series, j), 3)
        phi_t, phi_x = tf.derivatives(series.times[j], horizon, pts)
        if tf.kind == "continuity":
            values = rho * (phi_t + vel * phi_x)
        else:
            slope_v = ((v[1:] - v[:-1]) / (x[1:] - x[:-1]))[:, None]
            flux = rho * vel ** 2 + np.asarray(model.pressure(rho)) \
                - np.asarray(model.viscosity(rho)) * slope_v
            values = phi_t * rho * vel + phi_x * flux
        g[j] = space_integral(values, wts)
    value = term0 + checks._simpson(series.times, g)
    n_int = len(series) - 1
    if n_int >= 4 and n_int % 2 == 0:
        return value, abs(value - (term0 + checks._simpson(series.times[::2], g[::2])))
    return value, math.nan


# 4 snapshot intervals take the Simpson rule, 5 its 3/8 branch; the last
# count spans three blocks of the stacked evaluation, the last one partial
@pytest.mark.parametrize("intervals", [4, 5, 2 * fields.BLOCK + 1])
@pytest.mark.parametrize("n", [2, 3, 17])
def test_series_checks_match_loop_references(any_model, n, intervals):
    init = perturbed_initial(any_model, 0.1)
    series = fc.simulate(any_model, fc.build_particles(any_model, init, n),
                         0.002 * intervals, fc.IntegratorConfig(snapshot_dt=0.002))
    assert len(series) == intervals + 1
    library = checks.test_function_library(any_model.length)
    for report, tf in zip(checks.residuals(any_model, series, init), library, strict=True):
        value, quad_error = loop_residual(any_model, series, init, tf)
        assert bits(report.value) == bits(value), tf.name
        assert bits(report.quad_error) == bits(quad_error), tf.name
    decay = checks.decay_report(series)
    for j, e, w in zip(range(len(series)), decay.e_cont, decay.w_cont, strict=True):
        assert bits(e) == bits(loop_energy(any_model, row(series, j), False))
        assert bits(w) == bits(loop_energy(any_model, row(series, j), True))
    envelope = checks.envelope_check(any_model, series)
    assert [bits(v) for v in (envelope.budget, envelope.a, envelope.b,
                              envelope.max_envelope_excess)] \
        == [bits(v) for v in loop_envelope(any_model, series)]


def loop_envelope(model, series):
    """(budget, a, b, max_envelope_excess) of envelope_check from a loop over
    the snapshots, each field's cell densities enveloped on their own."""
    e0, w0 = max(series.diagnostics.e_n[0], 0.0), max(series.diagnostics.w_n[0], 0.0)
    budget = sqrt_budget(e0, w0)
    excess = -math.inf
    for asc_rho in series.rho:
        env = np.asarray(model.energy_envelope(asc_rho[:-1]))
        excess = max(excess, float(np.max(env) - budget), float(-np.min(env) - budget))
    return (budget, *spacing_bounds(model, e0, w0), excess)


@pytest.mark.parametrize("n", [2, 17])
def test_stacked_gauss_cells_rows_are_each_fields_own(any_model, n):
    init = perturbed_initial(any_model, 0.1)
    series = fc.simulate(any_model, fc.build_particles(any_model, init, n),
                         0.01, fc.IntegratorConfig(snapshot_dt=0.002))
    stacked = fields.gauss_cells(series.x, series.rho, series.v, 3)
    for j in range(len(series)):
        own = fields.gauss_cells(*row(series, j), 3)
        for whole, part in zip(stacked, own, strict=True):
            assert whole[j].tobytes() == part.tobytes()
