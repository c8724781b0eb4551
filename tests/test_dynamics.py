import numpy as np
import pytest

import fluidchain as fc
from fluidchain.errors import AdmissibilityError, DomainError

from conftest import equilibrium_state, random_state, rhs


def test_state_validation():
    with pytest.raises(DomainError):
        fc.ParticleState(n=1, t=0.0, x=np.array([]), v=np.array([]))
    with pytest.raises(DomainError):
        fc.ParticleState(n=4, t=0.0, x=np.array([0.5]), v=np.array([0.0]))
    with pytest.raises(DomainError):
        fc.ParticleState(n=2, t=0.0, x=np.array([np.nan]), v=np.array([0.0]))


def test_state_is_immutable_and_replace_keeps_the_checks():
    state = fc.ParticleState(n=3, t=0.0, x=[0.6, 0.3], v=[0.0, 0.1])
    assert repr(state) == ("ParticleState(n=3, t=0.0, x=array([0.6, 0.3]), "
                           "v=array([0. , 0.1]))")
    with pytest.raises(AttributeError):
        state.t = 1.0
    moved = state._replace(t=1.0, v=[0.2, 0.0])
    assert type(moved) is fc.ParticleState and moved.t == 1.0
    assert moved.v.dtype == float
    with pytest.raises(DomainError):
        state._replace(x=np.array([0.5]))
    with pytest.raises(DomainError):
        state._replace(v=np.array([0.0, np.inf]))


def test_rhs_zero_at_equilibrium(sv):
    state = equilibrium_state(sv, 4)
    dx, dv = rhs(sv, state.n, state.x, state.v)
    assert np.all(dx == 0.0)
    assert np.all(dv == 0.0)


def test_rhs_two_packet_pressure_imbalance(sv):
    dx, dv = rhs(sv, 2, np.array([0.4]), np.array([0.0]))
    # 2*(Phi'(1.2) - Phi'(0.8)) = g*(1/0.64 - 1/1.44)
    assert dv[0] == pytest.approx(9.81 * (1 / 0.64 - 1 / 1.44), rel=1e-14)
    assert dv[0] == pytest.approx(8.515625)


def test_rhs_two_packet_pure_damping(sv):
    dx, dv = rhs(sv, 2, np.array([0.5]), np.array([1.0]))
    assert dv[0] == pytest.approx(-8.0, rel=1e-14)
    assert dx[0] == 1.0


def test_rhs_rejects_disordered_state(sv):
    with pytest.raises(DomainError):
        rhs(sv, 3, np.array([0.2, 0.6]), np.zeros(2))


def _cell_terms(model, n, x, v):
    """Cell widths, velocity jumps v_{c-1} - v_c, pressures and viscosities
    of a chain, from the public laws."""
    gaps = fc.dynamics.gaps_from_interior(model.length, x)
    full_v = np.concatenate(([0.0], v, [0.0]))
    rho = (model.m / n) / gaps
    return gaps, full_v[:-1] - full_v[1:], model.pressure(rho), model.viscosity(rho)


def test_rhs_kernel_matches_checked_public_laws(any_model):
    # the equations of motion are, bit for bit, the difference of the cell
    # stresses mu(rho) dvel/gap - P(rho) built from the public laws; and,
    # to a few roundings of the stresses, the force/gain form
    # n*d(force) + n^2*d(gain*dvel) with force = -P(m/s)/m and the checked
    # public gain
    rng = np.random.default_rng(5)
    m = any_model.m
    for n in (2, 7, 32):
        state = random_state(any_model, n, rng)
        dx, dv = rhs(any_model, n, state.x, state.v)
        gaps, dvel, p, mu = _cell_terms(any_model, n, state.x, state.v)
        stress = mu * dvel / gaps - p
        assert np.array_equal(dv, (n / m) * (stress[:-1] - stress[1:]))
        assert np.array_equal(dx, state.v)
        s = n * gaps
        force = -any_model.pressure(m / s) / m
        flux = any_model.damping_gain(s) * dvel
        old = n * (force[:-1] - force[1:]) + n * n * (flux[:-1] - flux[1:])
        scale = (n / m) * np.max(p + mu * np.abs(dvel) / gaps)
        assert np.max(np.abs(dv - old)) <= 16 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n", [2, 7, 32, 128])
def test_rhs_semi_discrete_energy_balance(any_model, n):
    # summation by parts with v_0 = v_n = 0: the kinetic-energy rate minus
    # the pressure work is the viscous dissipation,
    # (m/n) sum_i v_i dv_i - sum_c P_c dvel_c = -sum_c mu_c dvel_c^2 / gap_c
    rng = np.random.default_rng(20 + n)
    for _ in range(10):
        state = random_state(any_model, n, rng)
        dv = rhs(any_model, n, state.x, state.v)[1]
        gaps, dvel, p, mu = _cell_terms(any_model, n, state.x, state.v)
        rate = (any_model.m / n) * np.sum(state.v * dv) - np.sum(p * dvel)
        dissipation = np.sum(mu * dvel ** 2 / gaps)
        assert abs(rate + dissipation) <= 1e-12 * max(abs(rate), dissipation)



@pytest.mark.parametrize("n", [2, 7, 32, 128])
def test_rhs_semi_discrete_transformed_energy_balance(any_model, n):
    # dW_n/dt by the chain rule through the equations of motion, with the
    # scaled widths s_c = n gap_c moving at n dvel_c, the damping potential
    # K moving at its gain and the spacing potential at -P(m/s)/m, equals
    # -B_n, the discrete Bresch-Desjardins dissipation
    # B_n = (n/m) sum_{c=1}^{n-1} (P(rho_{c+1}) - P(rho_c)) (k(rho_{c+1}) - k(rho_c))
    # with k the viscous potential; B_n >= 0 as P and k both increase.
    # The measured defect is below 3e-13 relative; the bound is 1e-11.
    rng = np.random.default_rng(40 + n)
    m = any_model.m
    for _ in range(10):
        state = random_state(any_model, n, rng)
        dv = rhs(any_model, n, state.x, state.v)[1]
        gaps, dvel, p, _ = _cell_terms(any_model, n, state.x, state.v)
        s, ds = n * gaps, n * dvel
        damp, gain = any_model.damping_potential(s), any_model.damping_gain(s)
        v_tr = state.v - n * damp[:-1] + n * damp[1:]
        dv_tr = dv - n * gain[:-1] * ds[:-1] + n * gain[1:] * ds[1:]
        rate = (m / n) * (np.sum(v_tr * dv_tr) + np.sum(-any_model.pressure(m / s) / m * ds))
        k = any_model.viscous_potential(m / s)
        dissipation = (n / m) * np.sum(np.diff(p) * np.diff(k))
        assert dissipation >= 0.0
        assert abs(rate + dissipation) <= 1e-11 * dissipation


def test_rhs_rejects_every_domain_exit(any_model):
    # every consumer of a state rejects each way out of the ordered domain:
    # rhs_arrays on the padded raw arrays, the others on a ParticleState
    # (whose own construction rejects the non-finite positions)
    L = any_model.length
    x = L * np.array([0.75, 0.5, 0.25])
    v = np.array([0.1, -0.2, 0.3])
    bad_positions = ([0.75, 0.5, 0.5],          # zero gap
                     [0.75, 0.25, 0.5],         # swapped pair
                     [1.0, 0.5, 0.25],          # x_1 = L
                     [0.75, 0.5, 0.0],          # x_{n-1} = 0
                     [1.25, 0.5, 0.25],         # x_1 > L
                     [0.75, np.nan, 0.25],
                     [0.75, np.inf, 0.25],
                     [0.75, 0.5, -np.inf],
                     [np.inf, 0.5, 0.25],
                     [0.75, 0.5, np.inf])
    consumers = (fc.functionals, fc.reconstruct,
                 lambda model, state: fc.simulate(model, state, 0.01))
    for bad in bad_positions:
        bad = L * np.array(bad)
        with pytest.raises(DomainError):
            rhs(any_model, 4, bad, v)
        for consume in consumers:
            with pytest.raises(DomainError):
                consume(any_model, fc.ParticleState(n=4, t=0.0, x=bad, v=v))
    rhs(any_model, 4, x, v)
    for consume in consumers:
        consume(any_model, fc.ParticleState(n=4, t=0.0, x=x, v=v))


def test_functionals_zero_at_equilibrium(sv):
    f = fc.functionals(sv, equilibrium_state(sv, 8))
    assert f.e_n == pytest.approx(0.0, abs=1e-15)
    assert f.w_n == pytest.approx(0.0, abs=1e-15)
    assert f.z_n == 0.0
    assert f.h_n == 0.0


def test_functionals_two_packet_values(sv):
    state = fc.ParticleState(n=2, t=0.0, x=np.array([0.5]), v=np.array([1.0]))
    f = fc.functionals(sv, state)
    assert f.e_n == pytest.approx(0.25)
    assert f.z_n == pytest.approx(2.0)
    # equal spacings make the transformed velocity coincide with v
    assert f.w_n == pytest.approx(0.25)
    assert f.h_n == 0.0


def test_functionals_nonnegative_parts(sv):
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = fc.functionals(sv, random_state(sv, 12, rng))
        assert f.z_n >= 0.0
        assert f.h_n >= 0.0
        assert f.e_n >= -1e-14
        assert f.w_n >= -1e-14


def test_energy_derivative_identity(sv):
    # <grad E_n, rhs> equals the negative damping dissipation; gradient by
    # central finite differences
    rng = np.random.default_rng(42)
    n = 8
    h = 1e-6
    for _ in range(20):
        state = random_state(sv, n, rng)
        x, v = state.x, state.v
        dx, dv = rhs(sv, n, x, v)

        def e_of(xx, vv):
            return fc.functionals(sv, fc.ParticleState(n=n, t=0.0, x=xx, v=vv)).e_n

        dot = 0.0
        for j in range(n - 1):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            dot += (e_of(xp, v) - e_of(xm, v)) / (2 * h) * dx[j]
            vp, vm = v.copy(), v.copy()
            vp[j] += h
            vm[j] -= h
            dot += (e_of(x, vp) - e_of(x, vm)) / (2 * h) * dv[j]

        gaps = fc.dynamics.gaps_from_interior(sv.length, x)
        gains = np.asarray(sv.damping_gain(n * gaps))
        full_v = np.concatenate(([0.0], v, [0.0]))
        dvel = full_v[:-1] - full_v[1:]
        closed = -sv.m * n * float(np.sum(gains * dvel ** 2))
        assert dot == pytest.approx(closed, rel=1e-6)


def test_transformed_velocity_jump_bound(sv):
    # n * sum of squared damping-potential jumps <= (2/m)(sqrt(W)+sqrt(E))^2
    rng = np.random.default_rng(11)
    for n in (4, 16, 64):
        for _ in range(10):
            state = random_state(sv, n, rng)
            f = fc.functionals(sv, state)
            gaps = fc.dynamics.gaps_from_interior(sv.length, state.x)
            damp = np.asarray(sv.damping_potential(n * gaps))
            jumps_sq = n * float(np.sum((damp[:-1] - damp[1:]) ** 2))
            budget = fc.dynamics.sqrt_budget(max(f.e_n, 0.0), max(f.w_n, 0.0))
            assert jumps_sq <= (2.0 / sv.m) * budget ** 2 * (1 + 1e-12)


def test_spacing_bounds_degenerate(sv):
    a, b = fc.spacing_bounds(sv, 0.0, 0.0)
    assert a == pytest.approx(sv.length)
    assert b == pytest.approx(sv.length)


def test_spacing_bounds_consistency(sv):
    a, b = fc.spacing_bounds(sv, 0.01, 0.01)
    assert 0.0 < a <= sv.length <= b
    target = np.sqrt(0.01) + np.sqrt(0.01)
    assert sv.energy_envelope(sv.m / a) == pytest.approx(target, abs=1e-8)
    assert sv.energy_envelope(sv.m / b) == pytest.approx(-target, abs=1e-8)


def test_spacing_bounds_ideal_gas_always_finite(ideal):
    for budget in (0.1, 1.0, 100.0):
        a, b = fc.spacing_bounds(ideal, budget, budget)
        assert 0.0 < a <= ideal.length <= b < np.inf


def test_spacing_bounds_inadmissible_energy(sv):
    with pytest.raises(AdmissibilityError) as err:
        fc.spacing_bounds(sv, 100.0, 100.0)
    assert err.value.side == "low"
