"""The array sums equal the left-to-right loops they replaced, bit for bit."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluidchain as fc
from fluidchain import checks, fields
from fluidchain.dynamics import gaps_from_interior, ordered_sum, spacing_bounds, sqrt_budget

from conftest import perturbed_initial, random_state


def loop_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def bits(value):
    return struct.pack("<d", value)


magnitudes = st.builds(lambda mag, negative: -mag if negative else mag,
                       st.floats(min_value=1e-12, max_value=1e12), st.booleans())
entries = st.one_of(magnitudes, st.sampled_from([0.0, -0.0]))


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, min_size=0, max_size=600))
def test_ordered_sum_is_the_loop(values):
    assert bits(ordered_sum(np.array(values, dtype=float))) == bits(loop_sum(values))


def test_ordered_sum_edge_cases():
    assert bits(ordered_sum([])) == bits(0.0)
    assert bits(ordered_sum([-0.0, -0.0])) == bits(loop_sum([-0.0, -0.0])) == bits(0.0)
    # in order, 1e16 absorbs each 1.0; the reordering np.sum gives 8.0
    values = [1e16] + [1.0] * 8 + [-1e16]
    assert ordered_sum(values) == loop_sum(values) == 0.0


def test_ordered_sum_over_the_last_axis():
    rng = np.random.default_rng(0)
    values = rng.standard_normal((4, 3, 50)) * 10.0 ** rng.integers(-8, 9, (4, 3, 50))
    values[0, 0] = -0.0
    totals = ordered_sum(values)
    assert totals.shape == (4, 3)
    assert all(bits(totals[i, j]) == bits(loop_sum(values[i, j]))
               for i in range(4) for j in range(3))
    assert np.array_equal(ordered_sum(np.empty((2, 0))), np.zeros(2))


# -- loop references: the per-cell loops the array code replaced ---------------

def loop_functionals(model, state):
    n, m = state.n, model.m
    gaps = gaps_from_interior(model.length, state.x)
    pot = np.asarray(model.spacing_potential(n * gaps), dtype=float)
    damp = np.asarray(model.damping_potential(n * gaps), dtype=float)
    full_v = np.concatenate(([0.0], state.v, [0.0]))
    dvel = full_v[:-1] - full_v[1:]
    pot_sum = loop_sum(pot)
    kin_sum = 0.0
    for value in state.v:
        kin_sum += value * value
    v_tr = state.v - n * damp[:-1] + n * damp[1:]
    w_sum = 0.0
    for value in v_tr:
        w_sum += value * value
    z_sum = 0.0
    for i in range(n):
        z_sum += dvel[i] * dvel[i] / gaps[i]
    h_n = 0.0
    for i in range(n - 1):
        jump = n * abs(damp[i] - damp[i + 1])
        if jump > h_n:
            h_n = jump
    return ((m / (2.0 * n)) * kin_sum + (m / n) * pot_sum,
            (m / (2.0 * n)) * w_sum + (m / n) * pot_sum, 0.5 * z_sum, h_n)


def loop_total_mass(field):
    edges, rho_nodes = field.asc_x[::-1], field.asc_rho[::-1]
    widths = edges[:-1] - edges[1:]
    total = 0.0
    for i in range(field.n):
        total += widths[i] * 0.5 * (rho_nodes[i] + rho_nodes[i + 1])
    return total


def loop_cells(field, order):
    """Gauss points and weights of one field's cells, shape (n, order), with
    the fields sampled point by point through ``field.rho`` and ``field.v``."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    left = field.asc_x[:-1][:, None]
    right = field.asc_x[1:][:, None]
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts, wts = mid + half * nodes[None, :], half * weights[None, :]
    rho = np.asarray(field.rho(pts.ravel())).reshape(pts.shape)
    vel = np.asarray(field.v(pts.ravel())).reshape(pts.shape)
    return pts, wts, rho, vel


def loop_energy(model, field, transformed):
    pts, wts, rho, vel = loop_cells(field, 5)
    if transformed:
        slope = (field.asc_rho[1:] - field.asc_rho[:-1]) / (field.asc_x[1:] - field.asc_x[:-1])
        vel = vel + np.asarray(model.viscosity(rho)) * slope[:, None] / rho ** 2
    q = np.asarray(model.compression_energy(rho))
    cells = np.sum((0.5 * rho * vel ** 2 + q) * wts, axis=1)
    return max(loop_sum(cells[::-1]), 0.0)


@pytest.mark.parametrize("n", [2, 3, 17])
def test_array_sums_match_loop_references(any_model, n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        state = random_state(any_model, n, rng, v_scale=0.3)
        f = fc.functionals(any_model, state)
        assert (f.e_n, f.w_n, f.z_n, f.h_n) == loop_functionals(any_model, state)
        field = fc.reconstruct(any_model, state)
        assert fc.total_mass(field) == loop_total_mass(field)
        assert fc.continuous_energy(any_model, field) == loop_energy(any_model, field, False)
        assert fc.continuous_energy_mod(any_model, field) == loop_energy(any_model, field, True)


def loop_residual(model, series, init, tf):
    """(value, quad_error) of one test function from the per-snapshot loop
    the stacked residual evaluation replaced: each snapshot's cells sampled
    on their own and summed ghost-end first."""
    horizon = series.times[-1]

    def space_integral(values, wts):
        return loop_sum(np.sum(values * wts, axis=1)[::-1])

    pts0, wts0, _, _ = loop_cells(series.reconstructed[0], 3)
    initial = tf.shape(pts0) * init.rho0(pts0)
    if tf.kind == "momentum":
        initial = initial * np.asarray(init.v0(pts0.ravel()), float).reshape(pts0.shape)
    term0 = space_integral(initial, wts0)
    g = np.empty(len(series))
    for j, field in enumerate(series.reconstructed):
        pts, wts, rho, vel = loop_cells(field, 3)
        phi_t, phi_x = tf.derivatives(series.times[j], horizon, pts)
        if tf.kind == "continuity":
            values = rho * (phi_t + vel * phi_x)
        else:
            slope_v = ((field.asc_v[1:] - field.asc_v[:-1])
                       / (field.asc_x[1:] - field.asc_x[:-1]))[:, None]
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
@pytest.mark.parametrize("intervals", [4, 5, 2 * checks._BLOCK + 1])
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
    for field, e, w in zip(series.reconstructed, decay.e_cont, decay.w_cont, strict=True):
        assert bits(e) == bits(loop_energy(any_model, field, False))
        assert bits(w) == bits(loop_energy(any_model, field, True))
    envelope = checks.envelope_check(any_model, series)
    assert [bits(v) for v in (envelope.budget, envelope.a, envelope.b,
                              envelope.max_envelope_excess)] \
        == [bits(v) for v in loop_envelope(any_model, series)]


def loop_envelope(model, series):
    """(budget, a, b, max_envelope_excess) of envelope_check from a loop over
    the snapshots, each field's cell densities enveloped on their own."""
    d0 = series.diagnostics[0]
    e0, w0 = max(d0.e_n, 0.0), max(d0.w_n, 0.0)
    budget = sqrt_budget(e0, w0)
    excess = -math.inf
    for field in series.reconstructed:
        env = np.asarray(model.energy_envelope(field.asc_rho[:-1]))
        excess = max(excess, float(np.max(env) - budget), float(-np.min(env) - budget))
    return (budget, *spacing_bounds(model, e0, w0), excess)


@pytest.mark.parametrize("n", [2, 17])
def test_stacked_gauss_cells_rows_are_each_fields_own(any_model, n):
    init = perturbed_initial(any_model, 0.1)
    series = fc.simulate(any_model, fc.build_particles(any_model, init, n),
                         0.01, fc.IntegratorConfig(snapshot_dt=0.002))
    stacked = fields.gauss_cells(*series.nodes(), 3)
    for j, field in enumerate(series.reconstructed):
        own = fields.gauss_cells(field.asc_x, field.asc_rho, field.asc_v, 3)
        for whole, part in zip(stacked, own, strict=True):
            assert whole[j].tobytes() == part.tobytes()
