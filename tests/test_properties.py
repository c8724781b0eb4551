"""Structural invariants of the scheme, tested over drawn inputs rather than
hand-picked points: exact mass, nonincreasing E_n and W_n, strict ordering,
spacings inside the admissibility band [a, b], and reproducible runs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fluidchain as fc
from fluidchain.dynamics import gaps_from_interior, ordered_sum
from fluidchain.integrate import decay_slack, decay_violations

from conftest import perturbed_initial


# the three presets, and the ideal-gas laws as callables, whose derived
# functions all come from Gauss tables
@settings(derandomize=True, deadline=None, max_examples=12)
@given(kind=st.sampled_from(["ideal_gas_entropy", "isentropic_gas", "saint_venant",
                             "custom"]),
       amplitude=st.floats(-0.3, 0.3),
       mode=st.integers(1, 3),
       n=st.integers(2, 12),
       horizon=st.sampled_from([0.02, 0.04]))
def test_structure_holds_for_admissible_draws(sv, isentropic, ideal, ideal_callable,
                                              kind, amplitude, mode, n, horizon):
    model = {"saint_venant": sv, "isentropic_gas": isentropic,
             "ideal_gas_entropy": ideal, "custom": ideal_callable}[kind]
    init = perturbed_initial(model, amplitude, mode)
    report = fc.admissibility(model, init)
    assume(report.admissible)

    cfg = fc.IntegratorConfig(snapshot_dt=0.01)
    state0 = fc.build_particles(model, init, n)
    series = fc.simulate(model, state0, horizon, cfg)

    # each cell of the rebuilt field holds m/n exactly (the trapezoid mass of
    # the piecewise-linear density in the diagnostics is only first-order)
    for field in series.reconstructed:
        edges, rho_nodes = field.asc_x[::-1], field.asc_rho[::-1]
        cell_mass = rho_nodes[1:] * (edges[:-1] - edges[1:])
        assert abs(ordered_sum(cell_mass) - model.m) <= 1e-13 * model.m
    diag = series.diagnostics
    for name in ("e_n", "w_n"):
        values = [getattr(rec, name) for rec in diag]
        assert decay_violations(series.times, values, decay_slack(values[0])) == []
    assert series.warnings == []
    for state in series.states:
        assert np.all(gaps_from_interior(model.length, state.x) > 0.0)
    slack = 1e-9 * max(1.0, report.b)
    assert series.stats.spacing_min_seen >= report.a - slack
    assert series.stats.spacing_max_seen <= report.b + slack
    assert all(report.a - slack <= d.spacing_min and d.spacing_max <= report.b + slack
               for d in diag)

    again = fc.simulate(model, state0, horizon, cfg)
    assert again.times == series.times
    assert again.diagnostics == series.diagnostics
    for a, b in zip(again.states, series.states):
        assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(log_rho=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=40),
       widths=st.lists(st.floats(0.1, 1.0), min_size=39, max_size=39),
       log_m=st.floats(-1.0, 1.0), log_length=st.floats(-1.0, 1.0),
       n=st.integers(2, 400), defect=st.floats(-0.999e-8, 0.999e-8))
def test_partition_is_equal_mass_over_drawn_tables(log_rho, widths, log_m,
                                                   log_length, n, defect):
    # densities over two decades on 2-40 uneven nodes, scaled to a mass
    # off m by a relative defect inside the 1e-8 band make_initial accepts
    # (held clear of the band's edge, where rounding can cross it)
    m, length = 10.0 ** log_m, 10.0 ** log_length
    model = fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=m, length=length)
    steps = np.asarray(widths[:len(log_rho) - 1])
    xt = np.concatenate(([0.0], length * np.cumsum(steps)[:-1] / steps.sum(), [length]))
    rt = 10.0 ** np.asarray(log_rho)
    rt *= m * (1.0 + defect) / np.sum(np.diff(xt) * 0.5 * (rt[:-1] + rt[1:]))
    init = fc.make_initial(model, (xt, rt),
                           lambda x: 0.0 * np.asarray(x, dtype=float), 0.0)
    x = fc.build_particles(model, init, n).x
    assert np.all(gaps_from_interior(length, x) > 0.0)

    # exact cell masses of the piecewise-linear density: trapezoids on the
    # merged grid of nodes and particles, binned by the cell they lie in
    grid = np.union1d(xt, x)
    rho = np.interp(grid, xt, rt)
    pieces = np.diff(grid) * 0.5 * (rho[:-1] + rho[1:])
    cell = np.searchsorted(x[::-1], grid[:-1], side="right")
    cell_mass = np.bincount(cell, weights=pieces, minlength=n)
    mass = np.sum(np.diff(xt) * 0.5 * (rt[:-1] + rt[1:]))
    assert np.max(np.abs(cell_mass - mass / n)) <= 1e-13 * m
