"""Initial-condition handling: equal-mass partitioning of a density profile,
velocity sampling, the derived energy budget constants, and the admissibility
verdict.

The density is given once, as a node table: the initial density is the
piecewise-linear interpolant of its nodes, and a constant profile is the
two-node table ``([0, L], [v, v])``.  The cumulative mass is piecewise
quadratic in the position, so each equal-mass cell edge is the exact root of
one quadratic.
"""

import math
from typing import NamedTuple

import numpy as np

from .dynamics import ParticleState, spacing_bounds, sqrt_budget
from .errors import AdmissibilityError, InitialDataError
from .model import FluidModel

GAIN_SAMPLES = 10_000


class InitialData(NamedTuple):
    """Validated initial profiles plus the norms the budget formulas need.
    The density is held as its node table ``(nodes_x, nodes_rho)`` with
    the exact cumulative mass ``nodes_cum`` at each node; ``v0`` maps a
    float array of positions elementwise."""

    v0: object                   # v0(0) = v0(L) = 0 exactly
    rho0_sup: float
    rho0_deriv_sup: float
    rho_min: float
    v0_deriv_l2: float
    nodes_x: np.ndarray
    nodes_rho: np.ndarray
    nodes_cum: np.ndarray

    def rho0(self, x):
        """The initial density at the positions ``x``: the linear interpolant
        of the node table, positive on [0, L]."""
        return np.interp(x, self.nodes_x, self.nodes_rho)


def _check_table(xs, values, length, name):
    """The node table ``(xs, values)`` as float arrays, after checking that
    they are matching 1-D arrays of at least two nodes and that ``xs``
    starts at 0, ends at L and is strictly increasing."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
        raise InitialDataError(f"{name} table needs matching 1-D x/value arrays", name)
    if xs[0] != 0.0 or not abs(xs[-1] - length) <= 1e-12 * length:
        raise InitialDataError(f"{name} table must span [0, L]", f"{name}.x")
    if not np.all(np.diff(xs) > 0.0):
        raise InitialDataError(f"{name} table x values must be strictly increasing",
                               f"{name}.x")
    return xs, values


def _sample(profile, name, xs):
    """``profile`` evaluated on the positions ``xs``, which it must map
    elementwise."""
    try:
        out = np.asarray(profile(xs), dtype=float)
    except Exception as exc:
        raise InitialDataError(f"{name} must map a float array of positions elementwise; "
                               f"it raised {type(exc).__name__}: {exc}") from exc
    if out.shape != xs.shape:
        raise InitialDataError(f"{name} must map a float array of positions elementwise; "
                               f"{xs.shape} positions gave shape {out.shape}")
    return out


def make_initial(model: FluidModel, nodes, v0, v0_deriv_l2) -> InitialData:
    """Validate the initial data and derive the density norms.

    ``nodes=(xs, rho_values)`` is the density's node table (its linear
    interpolant is the density; ``constant_density`` builds the two-node
    table of a constant): 1-D, from 0 to L, strictly increasing in ``xs``,
    with positive finite values integrating to the model's mass.  ``v0`` is
    evaluated on the walls ``[0, L]``, which checks that it maps arrays
    elementwise and vanishes there.  ``v0_deriv_l2`` is the exact L2 norm
    of ``v0'`` (``sine_velocity`` returns it with its profile), finite and
    nonnegative.
    """
    L = model.length
    m = model.m
    if not 0.0 <= v0_deriv_l2 < math.inf:
        raise InitialDataError(
            f"velocity derivative L2 norm must be finite and nonnegative, got {v0_deriv_l2!r}",
            "v0")

    nodes_x, nodes_rho = _check_table(*nodes, L, "rho0")
    if np.any(_sample(v0, "v0", np.array([0.0, L])) != 0.0):
        raise InitialDataError(
            "velocity profile must vanish exactly at both walls; "
            "it is rejected rather than projected", "v0")
    if not np.all(np.isfinite(nodes_rho)) or np.any(nodes_rho <= 0.0):
        raise InitialDataError(
            "density samples must be positive and finite "
            "(the cumulative mass must be strictly increasing)", "rho0")
    widths = np.diff(nodes_x)
    with np.errstate(over="ignore"):        # an overflowing mass fails the mass test
        cell_mass = widths * 0.5 * (nodes_rho[:-1] + nodes_rho[1:])
        nodes_cum = np.concatenate(([0.0], np.cumsum(cell_mass)))
    mass = float(nodes_cum[-1])

    if abs(mass - m) > 1e-8 * m:
        raise InitialDataError(
            f"density profile integrates to {mass:.12g}, expected total mass "
            f"{m:.12g} (relative error {abs(mass - m) / m:.3e} > 1e-8)", "rho0")

    return InitialData(
        v0=v0, rho0_sup=float(nodes_rho.max()),
        rho0_deriv_sup=float(np.max(np.abs(np.diff(nodes_rho) / widths))),
        rho_min=float(nodes_rho.min()), v0_deriv_l2=float(v0_deriv_l2),
        nodes_x=nodes_x, nodes_rho=nodes_rho, nodes_cum=nodes_cum)


# -- profile presets -----------------------------------------------------------

def constant_density(model, value=None):
    """The two-node table ``([0, L], [value, value])`` of a constant density
    (default: the reference density m/L)."""
    value = model.rho_star if value is None else float(value)
    return np.array([0.0, model.length]), np.array([value, value])


def sine_velocity(model, amplitude, mode=1):
    """v0(x) = amplitude * sin(mode*pi*x/L), clamped to exactly zero at the
    walls, with the analytic derivative L2 norm."""
    L = model.length
    if not (mode >= 1 and float(mode).is_integer()):     # NaN and inf fail too
        raise InitialDataError("sine mode must be a positive integer")
    mode = int(mode)

    def v0(x):
        x = np.asarray(x, dtype=float)
        inside = amplitude * np.sin(mode * np.pi * x / L)
        return np.where((x <= 0.0) | (x >= L), 0.0, inside)

    deriv_l2 = abs(amplitude) * (mode * math.pi / L) * math.sqrt(L / 2.0)
    return v0, deriv_l2


def table_profile(xs, values, length, name):
    """Linear interpolant through (xs, values); xs must start at 0, end at L,
    and be strictly increasing."""
    xs, values = _check_table(xs, values, length, name)

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, values)

    return f


# -- particle construction and budgets ------------------------------------------

def build_particles(model: FluidModel, init: InitialData, n: int) -> ParticleState:
    """Equal-mass partition of the density profile plus velocity sampling.

    Interior position i carries cumulative mass M*(n-i)/n from the wall,
    with M the table's own mass (within 1e-8 of m), so every cell holds M/n.
    On its table segment ``[x_j, x_{j+1}]`` the position is the exact root
    of the quadratic cumulative mass,
    ``x_j + 2r / (rho_j + sqrt(rho_j**2 + 2*slope*r))`` with ``r`` the mass
    past ``x_j``: the square root is the density at the root, so no digits
    cancel, and a zero slope gives exactly ``r/rho_j``.
    """
    if n < 2:
        raise InitialDataError(f"need n >= 2 packets, got {n}")
    xs, rho, cum = init.nodes_x, init.nodes_rho, init.nodes_cum
    target = cum[-1] * np.arange(n - 1, 0, -1) / n
    j = np.clip(np.searchsorted(cum, target, side="right") - 1, 0, xs.size - 2)
    slope = (rho[j + 1] - rho[j]) / (xs[j + 1] - xs[j])
    r = target - cum[j]
    x = xs[j] + 2.0 * r / (rho[j] + np.sqrt(rho[j] * rho[j] + 2.0 * slope * r))
    v = np.asarray(init.v0(x), dtype=float)
    return ParticleState(n=n, t=0.0, x=x, v=v)


class BudgetConstants(NamedTuple):
    """n-independent bounds on the initial discrete functionals."""

    e_bar: float
    w_bar: float
    z_bar: float
    a_bar: float
    m_bar: float


def budget_constants(model: FluidModel, init: InitialData) -> BudgetConstants:
    """Energy budget constants from the profile norms.

    ``m_bar`` is the max damping gain over scaled spacings between
    m/sup(rho0) and m/min(rho0), sampled on a dense grid.  A constant that
    does not fit in a float raises InitialDataError: no verdict can be
    drawn from it.
    """
    m = model.m
    L = model.length
    lo = m / init.rho0_sup
    hi = m / init.rho_min
    if hi > lo:
        grid = np.linspace(lo, hi, GAIN_SAMPLES)
        m_bar = float(np.max(model.damping_gain(grid)))
    else:
        m_bar = float(model.damping_gain(lo))
    pot_sup = max(float(model.spacing_potential(lo)), 0.0)
    try:
        dv2 = init.v0_deriv_l2 ** 2
        grad_term = 2.0 * m ** 5 * m_bar ** 2 * init.rho0_deriv_sup ** 2 / init.rho_min ** 6
        consts = BudgetConstants(
            e_bar=0.5 * m * L * dv2 + m * pot_sup,
            w_bar=m * L * dv2 + grad_term + m * pot_sup, z_bar=0.5 * dv2,
            a_bar=2.0 * m ** 2 * m_bar * init.rho0_deriv_sup / init.rho_min ** 3,
            m_bar=m_bar)
    except (OverflowError, ZeroDivisionError):
        consts = None
    if consts is None or not all(map(math.isfinite, consts)):
        raise InitialDataError("energy budget does not fit in a float (a profile "
                               "norm, m or 1/min(rho0) is too large)")
    return consts


class AdmissibilityReport(NamedTuple):
    e_bar: float
    w_bar: float
    z_bar: float
    a_bar: float
    m_bar: float
    rho_min: float
    f_limit_high: float
    f_limit_low: float
    lhs: float
    admissible: bool
    a: float | None = None
    b: float | None = None

    def to_dict(self):
        """Every field by name, each infinity written as ``"infinite"``."""
        return {key: "infinite" if isinstance(value, float) and math.isinf(value) else value
                for key, value in self._asdict().items()}


def admissibility(model: FluidModel, init: InitialData) -> AdmissibilityReport:
    """Compare the initial energy budget against the envelope limits.

    Inadmissibility is a verdict, not an error: the data are admissible when
    ``spacing_bounds`` certifies the band ``[a, b]`` (the budget below both
    limits, the inversion within the tables' reach), and only then are
    ``a`` and ``b`` attached.
    """
    consts = budget_constants(model, init)
    limit_high, limit_low = model.energy_envelope_limits()
    lhs = sqrt_budget(consts.e_bar, consts.w_bar)
    try:
        a, b = spacing_bounds(model, consts.e_bar, consts.w_bar)
        admissible = True
    except AdmissibilityError:
        a = b = None
        admissible = False
    return AdmissibilityReport(
        e_bar=consts.e_bar, w_bar=consts.w_bar, z_bar=consts.z_bar,
        a_bar=consts.a_bar, m_bar=consts.m_bar, rho_min=init.rho_min,
        f_limit_high=limit_high, f_limit_low=limit_low,
        lhs=lhs, admissible=admissible, a=a, b=b)
