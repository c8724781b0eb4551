"""Structural invariants of the scheme, tested over drawn inputs rather than
hand-picked points: exact mass, nonincreasing E_n and W_n, strict ordering,
spacings inside the admissibility band [a, b], and reproducible runs."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fluidchain as fc
from fluidchain.dynamics import gaps_from_interior
from fluidchain.integrate import decay_slack, decay_violations

from conftest import perturbed_initial, snapshot_states


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
    for asc_x, asc_rho in zip(series.x, series.rho):
        edges, rho_nodes = asc_x[::-1], asc_rho[::-1]
        cell_mass = rho_nodes[1:] * (edges[:-1] - edges[1:])
        assert abs(np.sum(cell_mass) - model.m) <= 1e-13 * model.m
    diag = series.diagnostics
    for name in ("e_n", "w_n"):
        values = getattr(diag, name).tolist()
        assert decay_violations(series.times, values, decay_slack(values[0])) == []
    assert series.warnings == []
    for state in snapshot_states(series):
        assert np.all(gaps_from_interior(model.length, state.x) > 0.0)
    slack = 1e-9 * max(1.0, report.b)
    assert series.stats.spacing_min_seen >= report.a - slack
    assert series.stats.spacing_max_seen <= report.b + slack
    assert np.all(report.a - slack <= diag.spacing_min)
    assert np.all(diag.spacing_max <= report.b + slack)

    again = fc.simulate(model, state0, horizon, cfg)
    assert again.times == series.times
    for column, same in zip(again.diagnostics, series.diagnostics, strict=True):
        assert np.array_equal(column, same)
    for name in ("x", "rho", "v"):
        assert np.array_equal(getattr(again, name), getattr(series, name))


# the phrase naming each check a construction can refuse drawn parameters
# by: the reach of m/L, the laws on the probe grid, the growth condition
# (and the closed spacing potential's overflow) and the presets' exponents
CONSTRUCTION_CHECKS = ("out of range", "positive and finite", "strictly increasing",
                       "growth condition", "overflowed", "gamma > 1", "gamma in (1, 2)")


# (c, gamma, a, beta, m, L) over ranges where about a third of the power
# laws overflow or underflow on the probe grid; a preset takes the
# parameters of its own laws, saint_venant (g, nu) = (c, a), and the ideal
# gas draws gamma from [1, 2], its range and both its ends
DRAWN_MODELS = given(
    kind=st.sampled_from(["power_law", "isentropic_gas", "ideal_gas_entropy", "saint_venant"]),
    log_c=st.floats(-6.0, 6.0), log_a=st.floats(-6.0, 6.0), beta=st.floats(-10.0, 20.0),
    log_m=st.floats(-8.0, 8.0), log_length=st.floats(-8.0, 8.0), data=st.data())


def _drawn_model(kind, log_c, log_a, beta, log_m, log_length, data):
    """The exponent of the drawn pressure law and a function building the
    drawn model."""
    gamma = data.draw(st.floats(1.0, 2.0) if kind == "ideal_gas_entropy"
                      else st.floats(0.01, 40.0), label="gamma")
    c, a, m, length = 10.0 ** log_c, 10.0 ** log_a, 10.0 ** log_m, 10.0 ** log_length
    build = {
        "power_law": lambda: fc.FluidModel.power_law(c, gamma, a, beta, m, length),
        "isentropic_gas": lambda: fc.FluidModel.isentropic_gas(c, gamma, m, length, mu=a),
        "ideal_gas_entropy": lambda: fc.FluidModel.ideal_gas_entropy(c, gamma, a, m, length),
        "saint_venant": lambda: fc.FluidModel.saint_venant(c, a, m, length),
    }[kind]
    return (2.0 if kind == "saint_venant" else gamma), build


@settings(derandomize=True, deadline=None, max_examples=200)
@DRAWN_MODELS
def test_construction_over_drawn_parameters(kind, log_c, log_a, beta, log_m, log_length,
                                            data):
    exponent, build = _drawn_model(kind, log_c, log_a, beta, log_m, log_length, data)
    try:
        model = build()
    except fc.FluidchainError as err:
        message = str(err)
        assert any(check in message for check in CONSTRUCTION_CHECKS), message
        # the growth test refuses no exponent above 1 - log10(0.9) = 1.0458
        assert not (exponent >= 1.05 and "growth condition" in message), message
        assert kind != "power_law" or exponent > 1.0 or "growth condition" in message, message
        return
    assert exponent > 1.0

    # a side whose envelope moves by less than 1e-9 relative from the probe
    # grid's edge to the tables' reach has a finite limit
    try:
        with np.errstate(over="ignore"):
            edge, reach = model.rho_star * 10.0 ** np.array(
                [[fc.model.PROBE_DECADES, -fc.model.PROBE_DECADES],
                 [fc.model.REACH_DECADES, -fc.model.REACH_DECADES]])
            f_edge, f_reach = model.energy_envelope(edge), model.energy_envelope(reach)
    except fc.QuadratureError:
        # an envelope table that overflows within the reach
        return
    for limit, at_edge, at_reach in zip(model.energy_envelope_limits(), f_edge.tolist(),
                                        f_reach.tolist()):
        if abs(at_reach - at_edge) < 1e-9 * abs(at_edge):
            assert math.isfinite(limit), (limit, at_edge, at_reach)


@settings(derandomize=True, deadline=None, max_examples=200)
@DRAWN_MODELS
def test_certified_bands_bracket_the_budget_over_drawn_models(kind, log_c, log_a, beta, log_m,
                                                              log_length, data):
    # budgets from 1e-9 to 10 times the smaller envelope magnitude at the
    # probe grid's edges, so that some need the bracket widened and some
    # lie beyond the reach
    try:
        model = _drawn_model(kind, log_c, log_a, beta, log_m, log_length, data)[1]()
        with np.errstate(over="ignore"):
            edges = model.rho_star * 10.0 ** np.array(
                [fc.model.PROBE_DECADES, -fc.model.PROBE_DECADES])
        scale = float(np.min(np.abs(model.energy_envelope(edges))))
        w_bar = (scale * 10.0 ** data.draw(st.floats(-9.0, 1.0), label="log_fraction")) ** 2
        budget = math.sqrt(w_bar)
        a, b = fc.spacing_bounds(model, 0.0, w_bar)
    except fc.AdmissibilityError as err:
        # refused: the envelope does not reach the budget at the reach
        sign = 1.0 if err.side == "high" else -1.0
        reach = model.rho_star * 10.0 ** (sign * fc.model.REACH_DECADES)
        assert not sign * model.energy_envelope(reach) >= budget, err
        return
    except fc.FluidchainError:
        # a law refused at construction, or an envelope table that
        # overflows within the reach
        return
    tol = fc.model.ENVELOPE_INVERSE_REL_TOL
    for width, sign in ((a, 1.0), (b, -1.0)):
        below, above = model.energy_envelope(model.m / width * np.array([1.0 - tol, 1.0 + tol]))
        assert below <= sign * budget <= above, (kind, width, budget, below, above)


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
