import math

import numpy as np
import pytest
from scipy.integrate import quad

import fluidchain as fc
from fluidchain.errors import InitialDataError
from fluidchain.fields import gauss_cells

from conftest import equilibrium_initial, multiharmonic_initial, perturbed_initial


def test_uniform_partition(sv):
    init = equilibrium_initial(sv)
    for n in (2, 5, 32):
        state = fc.build_particles(sv, init, n)
        expect = sv.length * (n - np.arange(1, n)) / n
        assert np.max(np.abs(state.x - expect)) <= 1e-13
        assert np.all(state.v == 0.0)


def test_linear_profile_partition_against_bisection_oracle(sv):
    # near-linear density 2x with a positive floor (the pure 2x profile has
    # zero density at the wall); cumulative mass is (1-eps)x^2 + eps*x
    eps = 1e-6
    xt = np.array([0.0, 1.0])
    rt = np.array([eps, 2.0 - eps])

    def v0(x):
        return 0.0 * np.asarray(x, dtype=float)

    init = fc.make_initial(sv, (xt, rt), v0, 0.0)
    state = fc.build_particles(sv, init, 2)

    def cumulative(x):
        return (1.0 - eps) * x * x + eps * x

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if cumulative(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert state.x[0] == pytest.approx(oracle, abs=1e-12)
    assert state.x[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-5)


def test_velocity_sampling_at_uniform_nodes(sv):
    v0, deriv = fc.sine_velocity(sv, 1.0, 1)
    init = fc.make_initial(sv, fc.constant_density(sv), v0, deriv)
    state = fc.build_particles(sv, init, 4)
    assert state.v == pytest.approx([math.sin(3 * math.pi / 4),
                                     math.sin(math.pi / 2),
                                     math.sin(math.pi / 4)])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_partition_exactness(sv):
    # every cell of the equal-mass partition carries m/n of the profile;
    # quad warns about roundoff on the many-kink table integrand, harmlessly
    for init in (equilibrium_initial(sv), multiharmonic_initial(sv)):
        for n in (4, 16, 64):
            state = fc.build_particles(sv, init, n)
            edges = np.concatenate(([sv.length], state.x, [0.0]))
            for i in range(n):
                cell, _ = quad(lambda x: float(init.rho0(x)), edges[i + 1], edges[i],
                               epsabs=1e-14, epsrel=1e-12, limit=200)
                assert abs(cell - sv.m / n) <= 1e-10 * sv.m


def test_refinement_nodes_interleave(sv):
    init = multiharmonic_initial(sv)
    for n in (4, 8, 32):
        coarse = fc.build_particles(sv, init, n)
        fine = fc.build_particles(sv, init, 2 * n)
        assert np.max(np.abs(fine.x[1::2] - coarse.x)) <= 1e-12
        # strict interleaving between successive coarse nodes
        assert np.all(fine.x[:-1] > fine.x[1:])


def test_budget_constants_equilibrium_all_zero(sv):
    consts = fc.budget_constants(sv, equilibrium_initial(sv))
    assert consts.e_bar == pytest.approx(0.0, abs=1e-14)
    assert consts.w_bar == pytest.approx(0.0, abs=1e-14)
    assert consts.z_bar == 0.0
    assert consts.a_bar == 0.0


def test_budget_constants_perturbed(sv):
    consts = fc.budget_constants(sv, perturbed_initial(sv, amplitude=0.1))
    # max damping gain over the singleton spacing interval [1, 1]
    assert consts.m_bar == pytest.approx(1.0)
    # 0.5 * ||v0'||_2^2 with ||v0'||_2^2 = (0.1*pi)^2 / 2
    assert consts.z_bar == pytest.approx(0.5 * (0.1 * math.pi) ** 2 / 2, rel=1e-12)
    assert consts.z_bar == pytest.approx(0.024674011, rel=1e-7)
    # constant density kills the potential and gradient terms, so with
    # m = L = 1: E_bar = z_bar and W_bar = 2*z_bar
    assert consts.e_bar == pytest.approx(consts.z_bar, rel=1e-12)
    assert consts.w_bar == pytest.approx(2 * consts.z_bar, rel=1e-12)


def test_sampled_norms_match_analytic(sv):
    init_mh = multiharmonic_initial(sv)
    assert init_mh.rho0_sup == pytest.approx(float(np.max(init_mh._nodes_rho)))
    assert init_mh.rho_min > 0.9


def test_initial_functionals_below_budgets(sv):
    init = perturbed_initial(sv, amplitude=0.1)
    consts = fc.budget_constants(sv, init)
    # slack covers last-ulp gap jitter of non-dyadic uniform partitions
    slack = 1e-10
    for n in range(2, 257):
        f = fc.functionals(sv, fc.build_particles(sv, init, n))
        assert f.e_n <= consts.e_bar + slack
        assert f.w_n <= consts.w_bar + slack
        assert f.z_n <= consts.z_bar + slack
        assert f.h_n <= consts.a_bar + slack


def test_initial_functionals_below_budgets_gradient_data(sv):
    init = multiharmonic_initial(sv)
    consts = fc.budget_constants(sv, init)
    assert consts.a_bar > 0.0
    for n in (2, 3, 8, 33, 128, 256):
        f = fc.functionals(sv, fc.build_particles(sv, init, n))
        assert f.e_n <= consts.e_bar
        assert f.w_n <= consts.w_bar
        assert f.z_n <= consts.z_bar
        assert f.h_n <= consts.a_bar


def test_admissibility_verdicts(sv, ideal):
    assert fc.admissibility(ideal, perturbed_initial(ideal, 0.1)).admissible
    report = fc.admissibility(sv, equilibrium_initial(sv))
    assert report.admissible
    assert report.lhs == pytest.approx(0.0, abs=1e-7)
    assert report.a == pytest.approx(sv.length, rel=1e-6)
    assert report.b == pytest.approx(sv.length, rel=1e-6)
    hot = fc.admissibility(sv, perturbed_initial(sv, 10.0))
    assert not hot.admissible
    assert hot.a is None and hot.b is None


def test_admissibility_report_serialises(ideal):
    d = fc.admissibility(ideal, perturbed_initial(ideal, 0.1)).to_dict()
    assert d["f_limit_high"] == "infinite"
    assert d["f_limit_low"] == "infinite"
    assert d["admissible"] is True


def test_mass_normalisation_rejected(sv):
    def v0(x):
        return 0.0 * np.asarray(x, dtype=float)

    with pytest.raises(InitialDataError):
        fc.make_initial(sv, ([0.0, 1.0], [1.1, 1.1]), v0, 0.0)


def test_velocity_endpoints_must_vanish(sv):
    def bad_v0(x):
        return 0.1 + 0.0 * np.asarray(x, dtype=float)

    with pytest.raises(InitialDataError):
        fc.make_initial(sv, fc.constant_density(sv), bad_v0, 0.0)


def test_scalar_profiles_are_rejected(sv):
    # the velocity profile must map float arrays of positions elementwise; a
    # scalar-only profile, or one that ignores the shape of its argument, is
    # rejected by make_initial
    for v0 in (lambda x: 0.1 * math.sin(math.pi * x), lambda x: 0.0):
        with pytest.raises(InitialDataError, match="elementwise"):
            fc.make_initial(sv, fc.constant_density(sv), v0, 0.0)


def test_density_is_the_interpolant_of_its_table(sv):
    # rho0 is np.interp on the node table, bitwise, at the nodes, between
    # them and on a reconstruction's Gauss points
    init = multiharmonic_initial(sv)
    x = np.concatenate((init._nodes_x, np.linspace(0.0, sv.length, 1001)))
    assert np.array_equal(init.rho0(x), np.interp(x, init._nodes_x, init._nodes_rho))
    # a constant table gives exactly its value, as value + 0.0*x does
    for value in (None, 1.0 + 2.0 ** -40):
        nodes = fc.constant_density(sv, value)
        v0, deriv_l2 = fc.sine_velocity(sv, 0.1, 2)
        init = fc.make_initial(sv, nodes, v0, deriv_l2)
        field = fc.reconstruct(sv, fc.build_particles(sv, init, 16))
        pts = gauss_cells(field.asc_x, field.asc_rho, field.asc_v, 3)[0].ravel()
        assert np.array_equal(init.rho0(pts), nodes[1][0] + 0.0 * pts)


def test_negative_density_samples_rejected(sv):
    xt = np.array([0.0, 0.5, 1.0])
    rt = np.array([2.0, -0.5, 2.5])
    with pytest.raises(InitialDataError):
        fc.make_initial(sv, (xt, rt), lambda x: 0.0 * np.asarray(x, dtype=float), 0.0)


@pytest.mark.parametrize("xt, rt, match", [
    ([0.0, 0.5], [2.0, 2.0], "span"),                       # stops short of L
    ([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0], "increasing"),
    ([0.0, 0.25, 0.75, 0.5, 1.0], [1.0] * 5, "increasing"),
    ([0.0, float("nan"), 1.0], [1.0, 1.0, 1.0], "increasing"),
    ([0.1, 1.0], [1.0, 1.0], "span"),
    ([0.0, 1.0 + 1e-9], [1.0, 1.0], "span"),
    ([0.0], [1.0], "matching"),
    ([0.0, 1.0], [1.0, 1.0, 1.0], "matching"),
    ([[0.0, 1.0]], [[1.0, 1.0]], "matching"),
])
def test_node_tables_are_checked(sv, xt, rt, match):
    # table_profile and the nodes of make_initial share one table check
    with pytest.raises(InitialDataError, match=match):
        fc.table_profile(xt, rt, sv.length, "rho0")
    with pytest.raises(InitialDataError, match=match):
        fc.make_initial(sv, (xt, rt), lambda x: 0.0 * np.asarray(x, dtype=float), 0.0)


def test_table_velocity_gets_exact_slope_norm(sv):
    xt = [0.0, 0.2, 0.7, 1.0]
    vt = [0.0, 0.05, -0.03, 0.0]
    block = {"rho0": {"kind": "constant"}, "v0": {"kind": "table", "x": xt, "v": vt}}
    exact = math.sqrt(sum((vt[k + 1] - vt[k]) ** 2 / (xt[k + 1] - xt[k])
                          for k in range(3)))
    assert fc.initial_from_config(sv, block).v0_deriv_l2 == pytest.approx(exact, rel=1e-15)


def test_initial_from_config_matches_factories(sv):
    block = {"rho0": {"kind": "constant", "value": 1.0},
             "v0": {"kind": "sine", "amplitude": 0.1, "mode": 1}}
    init = fc.initial_from_config(sv, block)
    direct = perturbed_initial(sv, 0.1)
    assert init.v0_deriv_l2 == pytest.approx(direct.v0_deriv_l2)
    state_a = fc.build_particles(sv, init, 8)
    state_b = fc.build_particles(sv, direct, 8)
    assert np.array_equal(state_a.x, state_b.x)
    assert np.array_equal(state_a.v, state_b.v)


def test_initial_from_config_table_and_zero(sv):
    block = {"rho0": {"kind": "table", "x": [0.0, 1.0], "rho": [0.96, 1.04]},
             "v0": {"kind": "zero"}}
    init = fc.initial_from_config(sv, block)
    assert init.rho0_deriv_sup == pytest.approx(0.08)
    assert init.rho_min == pytest.approx(0.96)
    with pytest.raises(InitialDataError):
        fc.initial_from_config(sv, {"rho0": {"kind": "mystery"}, "v0": {"kind": "zero"}})
