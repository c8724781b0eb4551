import numpy as np
import pytest

import fluidchain as fc
from fluidchain import fields
from fluidchain.dynamics import gaps_from_interior

from conftest import equilibrium_state, multiharmonic_initial, random_state


def test_equilibrium_fields(sv):
    x, rho, v = fc.reconstruct(sv, equilibrium_state(sv, 4))
    grid = np.linspace(0.0, 1.0, 41)
    assert fields.sample(x, rho, grid) == pytest.approx(np.ones(41))
    assert fields.sample(x, v, grid) == pytest.approx(np.zeros(41))
    assert fc.total_mass(x, rho) == sv.m


def test_two_packet_reconstruction(sv):
    state = fc.ParticleState(n=2, t=0.0, x=np.array([0.4]), v=np.array([0.3]))
    x, rho, v = fc.reconstruct(sv, state)
    assert x.tolist() == [0.0, 0.4, 1.0]
    assert rho[::-1] == pytest.approx([1 / 1.2, 1 / 1.2, 1.25])
    assert fields.sample(x, rho, 0.2) == pytest.approx(1.25 + (1 / 1.2 - 1.25) * 0.5)
    assert fields.sample(x, rho, 0.2) == pytest.approx(1.0416666666666667)
    # ghost cell carries the same density at both ends
    for xq in (0.41, 0.7, 0.99):
        assert fields.sample(x, rho, xq) == pytest.approx(1 / 1.2)
    assert fields.sample(x, v, 1.0) == 0.0
    assert fields.sample(x, v, 0.0) == 0.0
    assert type(fields.sample(x, v, 0.5)) is float
    assert fc.total_mass(x, rho) == pytest.approx(11.0 / 12.0)


def test_left_cell_edge_convention(sv):
    state = fc.ParticleState(n=2, t=0.0, x=np.array([0.4]), v=np.array([0.3]))
    x, rho, v = fc.reconstruct(sv, state)
    # the cell below the interior node interpolates the wall value up to
    # the node value, which a query at the node returns
    assert fields.sample(x, rho, 0.4) == pytest.approx(1 / 1.2)
    assert fields.sample(x, v, 0.4) == pytest.approx(0.3)
    assert fields.sample(x, v, np.array([0.0, 0.1, 0.4])) == pytest.approx([0.0, 0.075, 0.3])


def test_field_rejects_outside_queries(sv):
    x, rho, v = fc.reconstruct(sv, equilibrium_state(sv, 4))
    with pytest.raises(ValueError):
        fields.sample(x, rho, 1.5)
    with pytest.raises(ValueError):
        fields.sample(x, v, -0.2)
    with pytest.raises(ValueError):
        fields.sample(x, v, np.array([0.5, 1.0 + 1e-9]))


def test_total_mass_of_stacked_rows_is_each_rows_own(sv):
    rng = np.random.default_rng(2)
    rows = [fc.reconstruct(sv, random_state(sv, 9, rng)) for _ in range(5)]
    x, rho = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    assert fc.total_mass(x, rho).tolist() == [fc.total_mass(*r[:2]) for r in rows]


def test_density_of_stacked_rows_blocks_and_one_row_is_reconstructs(any_model):
    # each row's density, whether of every row at once, of row_blocks
    # slices or of the row alone, is bit for bit reconstruct's rho and
    # m / (n * width) of the state's gaps, reversed, the ghost cell's at L
    rng = np.random.default_rng(3)
    count = fields.BLOCK + 3
    states = [random_state(any_model, 9, rng) for _ in range(count)]
    nodes = [fc.reconstruct(any_model, state) for state in states]
    x = np.array([node[0] for node in nodes])
    rho = np.array([node[1] for node in nodes])
    cells = [(any_model.m / (9 * gaps_from_interior(any_model.length, state.x)))[::-1]
             for state in states]
    by_formula = np.array([np.append(cell, cell[-1]) for cell in cells])
    assert rho.tobytes() == by_formula.tobytes()
    blocks = [fields.density(any_model, x[rows]) for rows in fields.row_blocks(count)]
    assert len(blocks) == 2
    for density in (fields.density(any_model, x), np.concatenate(blocks),
                    np.array([fields.density(any_model, row) for row in x])):
        assert density.tobytes() == rho.tobytes()


def test_velocity_bounded_by_node_values(sv):
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 257)
    for _ in range(10):
        state = random_state(sv, 12, rng)
        x, _, v = fc.reconstruct(sv, state)
        assert np.max(np.abs(fields.sample(x, v, grid))) <= np.max(np.abs(state.v)) + 1e-15


@pytest.mark.parametrize("length", [1.0, 3.7])
def test_velocity_is_exactly_zero_at_both_walls(length):
    # the in-cell fraction at a wall is exactly 0 or 1, so no rounding of
    # the node value survives there
    model = fc.FluidModel.saint_venant(g=9.81, nu=1.0, m=1.0, length=length)
    rng = np.random.default_rng(11)
    grid = np.linspace(0.0, length, 65)
    for n in (2, 5, 12, 33):
        for _ in range(50):
            x, _, v = fc.reconstruct(model, random_state(model, n, rng))
            assert fields.sample(x, v, 0.0) == 0.0
            assert fields.sample(x, v, length) == 0.0
            assert fields.sample(x, v, grid)[-1] == 0.0


def test_density_within_spacing_bound_band(sv):
    init = multiharmonic_initial(sv)
    state0 = fc.build_particles(sv, init, 16)
    series = fc.simulate(sv, state0, 0.2, fc.IntegratorConfig(snapshot_dt=0.05))
    a, b = fc.spacing_bounds(sv, series.diagnostics.e_n[0], series.diagnostics.w_n[0])
    grid = np.linspace(0.0, 1.0, 257)
    for x, rho_nodes in zip(series.x, series.rho):
        rho = fields.sample(x, rho_nodes, grid)
        assert np.all(rho >= sv.m / b - 1e-12)
        assert np.all(rho <= sv.m / a + 1e-12)


def test_total_mass_refinement_rate(sv):
    # static check on a fixed smooth profile: the trapezoid-mass defect of
    # the equal-mass reconstruction halves with n-doubling
    init = multiharmonic_initial(sv)
    errs = []
    for n in (8, 16, 32, 64):
        x, rho, _ = fc.reconstruct(sv, fc.build_particles(sv, init, n))
        errs.append(abs(fc.total_mass(x, rho) - sv.m))
    for a, b in zip(errs, errs[1:]):
        assert 1.5 <= a / b <= 3.0


def field_energies(model, nodes):
    """``fields.energies`` of one rebuilt field's nodes, as two floats."""
    return tuple(map(float, fields.energies(model, *nodes)))


def test_continuous_functionals(sv):
    eq = fc.reconstruct(sv, equilibrium_state(sv, 8))
    assert field_energies(sv, eq) == pytest.approx((0.0, 0.0), abs=1e-14)
    rng = np.random.default_rng(9)
    for _ in range(10):
        e, w = field_energies(sv, fc.reconstruct(sv, random_state(sv, 10, rng)))
        assert e >= 0.0 and w >= 0.0


def test_energies_against_fine_sampling(sv):
    # independent oracle: dense trapezoid of the same integrand
    rng = np.random.default_rng(21)
    state = random_state(sv, 6, rng, v_scale=0.3)
    nodes = fc.reconstruct(sv, state)
    grid = np.linspace(0.0, 1.0, 200001)
    rho = fields.sample(nodes[0], nodes[1], grid)
    vel = fields.sample(nodes[0], nodes[2], grid)
    q = np.asarray(sv.compression_energy(rho))
    oracle = np.trapezoid(0.5 * rho * vel ** 2 + q, grid)
    assert field_energies(sv, nodes)[0] == pytest.approx(oracle, rel=1e-8)


def test_grid_export(sv):
    x, rho_nodes, v = fc.reconstruct(sv, equilibrium_state(sv, 4))
    grid = np.linspace(0.0, sv.length, 64)
    rho, vel = fields.sample(x, rho_nodes, grid), fields.sample(x, v, grid)
    # both walls are queried: the grid includes x = 0 and x = L
    assert rho.shape == vel.shape == (64,)
    assert np.allclose(rho, sv.m / sv.length, rtol=1e-13, atol=0.0)
    assert np.all(vel == 0.0)
