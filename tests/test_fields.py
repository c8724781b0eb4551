import numpy as np
import pytest

import fluidchain as fc

from conftest import multiharmonic_initial, random_state


def test_equilibrium_fields(sv):
    field = fc.reconstruct(sv, fc.equilibrium_state(sv, 4))
    grid = np.linspace(0.0, 1.0, 41)
    assert np.asarray(field.rho(grid)) == pytest.approx(np.ones(41))
    assert np.asarray(field.v(grid)) == pytest.approx(np.zeros(41))
    assert fc.total_mass(field) == sv.m


def test_two_packet_reconstruction(sv):
    state = fc.ParticleState(n=2, t=0.0, x=np.array([0.4]), v=np.array([0.3]))
    field = fc.reconstruct(sv, state)
    assert field.asc_rho[::-1] == pytest.approx([1 / 1.2, 1 / 1.2, 1.25])
    assert field.rho(0.2) == pytest.approx(1.25 + (1 / 1.2 - 1.25) * 0.5)
    assert field.rho(0.2) == pytest.approx(1.0416666666666667)
    # ghost cell carries the same density at both ends
    for xq in (0.41, 0.7, 0.99):
        assert field.rho(xq) == pytest.approx(1 / 1.2)
    assert field.v(1.0) == 0.0
    assert field.v(0.0) == 0.0
    assert fc.total_mass(field) == pytest.approx(11.0 / 12.0)


def test_left_cell_edge_convention(sv):
    state = fc.ParticleState(n=2, t=0.0, x=np.array([0.4]), v=np.array([0.3]))
    field = fc.reconstruct(sv, state)
    # the cell below the interior node interpolates the wall value up to
    # the node value, which a query at the node returns
    assert field.rho(0.4) == pytest.approx(1 / 1.2)
    assert field.v(0.4) == pytest.approx(0.3)
    assert field.v(np.array([0.0, 0.1, 0.4])) == pytest.approx([0.0, 0.075, 0.3])


def test_field_rejects_outside_queries(sv):
    field = fc.reconstruct(sv, fc.equilibrium_state(sv, 4))
    with pytest.raises(ValueError):
        field.rho(1.5)
    with pytest.raises(ValueError):
        field.v(-0.2)


def test_velocity_bounded_by_node_values(sv):
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 257)
    for _ in range(10):
        state = random_state(sv, 12, rng)
        field = fc.reconstruct(sv, state)
        assert np.max(np.abs(np.asarray(field.v(grid)))) <= np.max(np.abs(state.v)) + 1e-15


def test_density_within_spacing_bound_band(sv):
    init = multiharmonic_initial(sv)
    state0 = fc.build_particles(sv, init, 16)
    series = fc.simulate(sv, state0, 0.2, fc.IntegratorConfig(snapshot_dt=0.05))
    d0 = series.diagnostics[0]
    a, b = fc.spacing_bounds(sv, d0.e_n, d0.w_n)
    grid = np.linspace(0.0, 1.0, 257)
    for state in series.states:
        rho = np.asarray(fc.reconstruct(sv, state).rho(grid))
        assert np.all(rho >= sv.m / b - 1e-12)
        assert np.all(rho <= sv.m / a + 1e-12)


def test_total_mass_refinement_rate(sv):
    # static check on a fixed smooth profile: the trapezoid-mass defect of
    # the equal-mass reconstruction halves with n-doubling
    init = multiharmonic_initial(sv)
    errs = []
    for n in (8, 16, 32, 64):
        field = fc.reconstruct(sv, fc.build_particles(sv, init, n))
        errs.append(abs(fc.total_mass(field) - sv.m))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 3.0


def test_continuous_functionals(sv):
    eq = fc.reconstruct(sv, fc.equilibrium_state(sv, 8))
    assert fc.continuous_energy(sv, eq) == pytest.approx(0.0, abs=1e-14)
    assert fc.continuous_energy_mod(sv, eq) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(9)
    for _ in range(10):
        field = fc.reconstruct(sv, random_state(sv, 10, rng))
        assert fc.continuous_energy(sv, field) >= 0.0
        assert fc.continuous_energy_mod(sv, field) >= 0.0


def test_continuous_energy_against_fine_sampling(sv):
    # independent oracle: dense trapezoid of the same integrand
    rng = np.random.default_rng(21)
    state = random_state(sv, 6, rng, v_scale=0.3)
    field = fc.reconstruct(sv, state)
    grid = np.linspace(0.0, 1.0, 200001)
    rho = np.asarray(field.rho(grid))
    vel = np.asarray(field.v(grid))
    q = np.asarray(sv.compression_energy(rho))
    oracle = np.trapezoid(0.5 * rho * vel ** 2 + q, grid)
    assert fc.continuous_energy(sv, field) == pytest.approx(oracle, rel=1e-8)


def test_grid_export(sv):
    field = fc.reconstruct(sv, fc.equilibrium_state(sv, 4))
    grid = np.linspace(0.0, sv.length, 64)
    rho, vel = field.rho(grid), field.v(grid)
    # both walls are queried: the grid includes x = 0 and x = L
    assert rho.shape == vel.shape == (64,)
    assert np.allclose(rho, sv.m / sv.length, rtol=1e-13, atol=0.0)
    assert np.all(vel == 0.0)
