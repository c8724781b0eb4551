"""Weak-form residuals, decay monitors, envelope containment, and the grid
refinement study.

Residuals integrate the rebuilt fields against admissible space-time test
functions ``(1 - t/T) * shape(x)``, with ``T`` the horizon of the series:
3-point Gauss per reconstruction cell in space, composite Simpson over the
snapshot times.  The temporal quadrature error is estimated by re-evaluating
at half cadence; a report whose estimate is not at least ten times smaller
than the residual is flagged inconclusive.  ``residuals`` evaluates every
member of ``test_function_library``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields
from .dynamics import ordered_sum, spacing_bounds, sqrt_budget
from .errors import FluidchainError
from .initial import build_particles
from .integrate import (IntegratorConfig, _snapshot_targets, decay_slack,
                        decay_violations, simulate)


# -- test functions -------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Separable space-time test function ``(1 - t/T) * shape(x)``, with
    ``T`` the horizon of the series it is tested against, so every member
    vanishes at the final time.  ``slope`` is ``shape'``; both map an array
    of x elementwise.  Momentum members also vanish at both walls, with zero
    slope at the ghost wall.
    """

    name: str
    kind: str                  # 'continuity' | 'momentum'
    shape: object
    slope: object

    def derivatives(self, t, horizon, x):
        """``(phi_t, phi_x)`` at time ``t`` for the horizon ``horizon``."""
        return -self.shape(x) / horizon, (1.0 - t / horizon) * self.slope(x)


def test_function_library(length):
    """The built-in residual test functions: sin(k*pi*x/L) for k = 1, 2, 3
    and x^2 of continuity kind, (x/L)(1 - x/L)^2 and
    sin^2(pi*x/L)(1 - x/L) of momentum kind."""
    L = length
    lib = []
    for mode in (1, 2, 3):
        w = mode * math.pi / L
        lib.append(TestFunction(f"continuity_sine{mode}", "continuity",
                                lambda x, w=w: np.sin(w * x),
                                lambda x, w=w: w * np.cos(w * x)))
    lib.append(TestFunction("continuity_parabola", "continuity",
                            lambda x: x ** 2, lambda x: 2.0 * x))
    lib.append(TestFunction("momentum_hump", "momentum",
                            lambda x: x / L * (1.0 - x / L) ** 2,
                            lambda x: (1.0 - x / L) * (1.0 - 3.0 * (x / L)) / L))
    w1 = math.pi / L

    def sine_sq_slope(x):
        s, c = np.sin(w1 * x), np.cos(w1 * x)
        return 2.0 * s * c * w1 * (1.0 - x / L) - s ** 2 / L

    lib.append(TestFunction("momentum_sine_sq", "momentum",
                            lambda x: np.sin(w1 * x) ** 2 * (1.0 - x / L), sine_sq_slope))
    return lib


# -- residual evaluation ---------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    value: float
    quad_error: float
    n: int
    test_function: str
    inconclusive: bool


def _equally_spaced(ts):
    steps = np.diff(ts)
    return not np.any(np.abs(steps - steps[0]) > 1e-9 * max(abs(steps[0]), 1e-300))


def uniform_cadence(T, snapshot_dt):
    """Whether a run to ``T`` emits equally spaced snapshots, as the
    residuals' Simpson rule needs."""
    return _equally_spaced([0.0, *_snapshot_targets(T, snapshot_dt)])


def _simpson(ts, gs):
    """Composite Simpson over uniformly spaced samples; an odd interval
    count uses the 3/8 rule on the last three intervals."""
    ts = np.asarray(ts, float)
    gs = np.asarray(gs, float)
    if not _equally_spaced(ts):
        raise ValueError("Simpson integration expects uniform snapshot cadence")
    h = ts[1] - ts[0]
    n_int = ts.size - 1
    if n_int == 1:
        return 0.5 * h * (gs[0] + gs[1])
    stop = n_int if n_int % 2 == 0 else n_int - 3
    total = ordered_sum((h / 3.0) * (gs[0:stop:2] + 4.0 * gs[1:stop:2] + gs[2:stop + 1:2]))
    if stop != n_int:
        j = n_int - 3
        total += (3.0 * h / 8.0) * (gs[j] + 3.0 * gs[j + 1] + 3.0 * gs[j + 2] + gs[j + 3])
    return total


# snapshots per block of the residual and energy evaluations: one stack of
# every snapshot's Gauss cells would raise the peak memory of a long series
_BLOCK = 32


def _weak_residual(series, tf, kind, initial, integrand):
    """Signed defect of a weak identity for ``phi = (1 - t/T) * shape(x)``
    with ``T`` the series horizon: the space integral of
    ``initial(pts, shape)`` at t = 0 plus the Simpson time integral of the
    space integrals of ``integrand(x, v, rho, vel, phi_t, phi_x)``, evaluated
    on the cells of up to ``_BLOCK`` snapshots at a time (``x`` and ``v``
    their node positions and velocities).  Space integrals are 3-point Gauss
    per reconstruction cell (``fields.gauss_cells``), summed ghost-end
    first."""
    if tf.kind != kind:
        raise ValueError(f"expected a {kind}-kind test function, got {tf.kind}")
    horizon = series.times[-1]
    x, rho_nodes, v = series.nodes()
    pts, wts, _, _ = fields.gauss_cells(x[0], rho_nodes[0], v[0], 3)
    term0 = ordered_sum(np.sum(initial(pts, tf.shape(pts)) * wts, axis=1)[::-1])
    times = np.asarray(series.times)[:, None, None]
    g = np.empty(len(series))
    for start in range(0, len(series), _BLOCK):
        j = slice(start, start + _BLOCK)
        pts, wts, rho, vel = fields.gauss_cells(x[j], rho_nodes[j], v[j], 3)
        phi_t, phi_x = tf.derivatives(times[j], horizon, pts)
        values = integrand(x[j], v[j], rho, vel, phi_t, phi_x)
        g[j] = ordered_sum(np.sum(values * wts, axis=2)[:, ::-1])

    value = term0 + _simpson(series.times, g)
    n_int = len(series.times) - 1
    if n_int >= 4 and n_int % 2 == 0:
        half = term0 + _simpson(series.times[::2], g[::2])
        quad_error = abs(value - half)
        inconclusive = not quad_error < abs(value) / 10.0
    else:
        quad_error = math.nan
        inconclusive = True
    return ResidualReport(value=value, quad_error=quad_error,
                          n=series.states[0].n, test_function=tf.name,
                          inconclusive=inconclusive)


def continuity_residual(model, series, init, tf) -> ResidualReport:
    """Signed defect of the mass-transport weak identity for the series."""

    def initial(pts, phi0):
        return phi0 * init.rho0(pts)

    def integrand(x, v, rho, vel, phi_t, phi_x):
        return rho * (phi_t + vel * phi_x)

    return _weak_residual(series, tf, "continuity", initial, integrand)


def momentum_residual(model, series, init, tf) -> ResidualReport:
    """Signed defect of the momentum weak identity, with flux
    rho*v^2 + P(rho) - mu(rho)*v_x."""

    def initial(pts, phi0):
        return phi0 * init.rho0(pts) * np.asarray(init.v0(pts.ravel()), float).reshape(pts.shape)

    def integrand(x, v, rho, vel, phi_t, phi_x):
        slope_v = ((v[:, 1:] - v[:, :-1]) / (x[:, 1:] - x[:, :-1]))[..., None]
        flux = rho * vel ** 2 + np.asarray(model.pressure(rho)) \
            - np.asarray(model.viscosity(rho)) * slope_v
        return phi_t * rho * vel + phi_x * flux

    return _weak_residual(series, tf, "momentum", initial, integrand)


def residuals(model, series, init) -> list:
    """One report per member of ``test_function_library``, in library
    order, each against the series' own horizon."""
    reports = []
    for tf in test_function_library(model.length):
        # module globals, read per call: a rebinding (perfbench's tracer) is seen
        fn = continuity_residual if tf.kind == "continuity" else momentum_residual
        reports.append(fn(model, series, init, tf))
    return reports


# -- decay and containment reports ----------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Per-snapshot monotonicity flags, the continuous energies of every
    snapshot, and the time-averaged transformed-energy budget check."""

    e_n_violations: list
    w_n_violations: list
    e_cont_violations: list
    w_avg_violations: list
    w_budget: float | None
    w_avg_max: float
    e_cont: list
    w_cont: list

    @property
    def discrete_ok(self):
        return not self.e_n_violations and not self.w_n_violations

    @property
    def ok(self):
        return self.discrete_ok and not self.w_avg_violations


_W_AVG_SLACK = 1e-6


def decay_report(series, w_budget=None) -> DecayReport:
    """Scan a snapshot series for decay violations.

    Discrete energies must be nonincreasing within 1e-8 * max(1, initial
    value).  The continuous energies of every snapshot (``fields.energies``,
    on blocks of up to ``_BLOCK`` snapshots) are reported as ``e_cont`` and
    ``w_cont``.  The continuous energy is monitored with the same slack but
    only reported (it may legitimately wiggle by the discrete-continuous
    gap).  When ``w_budget`` is given, the
    running time average of the continuous transformed energy must stay
    below it plus ``_W_AVG_SLACK`` (1e-6).
    """
    times = series.times
    e_n = [d.e_n for d in series.diagnostics]
    w_n = [d.w_n for d in series.diagnostics]
    x, rho, v = series.nodes()
    e_cont, w_cont = np.empty(len(series)), np.empty(len(series))
    for start in range(0, len(series), _BLOCK):
        j = slice(start, start + _BLOCK)
        e_cont[j], w_cont[j] = fields.energies(series.model, x[j], rho[j], v[j])
    # running trapezoid time average of w_cont, accumulated in time order
    t = np.asarray(times)
    steps = 0.5 * np.diff(t) * (w_cont[1:] + w_cont[:-1])
    avg = np.cumsum(np.concatenate(([0.0], steps)))[1:] / t[1:]
    w_avg_max = max([0.0, *avg.tolist()])
    w_avg_viol = []
    if w_budget is not None:
        over = avg > w_budget + _W_AVG_SLACK
        w_avg_viol = list(zip(t[1:][over].tolist(), (avg[over] - w_budget).tolist()))
    e_cont, w_cont = e_cont.tolist(), w_cont.tolist()
    slack_e = decay_slack(e_n[0])
    slack_w = decay_slack(w_n[0])
    return DecayReport(e_n_violations=decay_violations(times, e_n, slack_e),
                       w_n_violations=decay_violations(times, w_n, slack_w),
                       e_cont_violations=decay_violations(times, e_cont, slack_e),
                       w_avg_violations=w_avg_viol, w_budget=w_budget,
                       w_avg_max=w_avg_max, e_cont=e_cont, w_cont=w_cont)


@dataclass(frozen=True)
class EnvelopeReport:
    """Containment of the trajectory inside the envelope-derived bounds."""

    budget: float
    a: float
    b: float
    spacing_min_seen: float
    spacing_max_seen: float
    max_envelope_excess: float

    @property
    def ok(self):
        slack = 1e-9 * max(1.0, self.b)
        return (self.spacing_min_seen >= self.a - slack
                and self.spacing_max_seen <= self.b + slack
                and self.max_envelope_excess <= 1e-8)


def envelope_check(model, series) -> EnvelopeReport:
    """Check every snapshot's cell densities against the initial energy
    budget and every accepted step's spacing extrema against [a, b]."""
    d0 = series.diagnostics[0]
    e0, w0 = max(d0.e_n, 0.0), max(d0.w_n, 0.0)
    budget = sqrt_budget(e0, w0)
    a, b = spacing_bounds(model, e0, w0)
    rho_cells = series.nodes()[1][:, :-1]
    env = np.asarray(model.energy_envelope(rho_cells))
    excess = max(float(np.max(env) - budget), float(-np.min(env) - budget))
    return EnvelopeReport(budget=budget, a=a, b=b,
                          spacing_min_seen=series.stats.spacing_min_seen,
                          spacing_max_seen=series.stats.spacing_max_seen,
                          max_envelope_excess=excess)


# -- refinement study -------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    mass_error: float | None = None
    residual_max: float | None = None
    self_dist_rho: float | None = None
    self_dist_v: float | None = None
    holder_rho: float | None = None
    holder_v: float | None = None
    error: str | None = None


def _sampled_series(series, grid):
    rho = np.empty((len(series), grid.size))
    vel = np.empty((len(series), grid.size))
    for j, field in enumerate(series.reconstructed):
        rho[j] = np.asarray(field.rho(grid))
        vel[j] = np.asarray(field.v(grid))
    return rho, vel


def _holder_rate(samples, times, grid, exponent):
    worst = 0.0
    times = np.asarray(times)
    for j in range(len(times) - 1):
        diffs = samples[j + 1:] - samples[j]
        norms = np.sqrt(np.trapezoid(diffs ** 2, grid, axis=1))
        rates = norms / (times[j + 1:] - times[j]) ** exponent
        worst = max(worst, float(rates.max()))
    return worst


# uniform grid points of the refinement study's grid-L2 distances and rates
_STUDY_GRID_SIZE = 1024


def convergence_study(model, init, n_list, T, cfg=None):
    """Refinement table over ascending particle counts.

    Per n: worst reconstructed-mass error, worst residual magnitude over the
    test-function library, sup-over-time grid-L2 distance to the next (2n)
    run when present, and the measured time-regularity rates (exponent 1/2
    for density, 1/4 for velocity).  Failures are recorded per row and the
    remaining entries continue.
    """
    cfg = cfg or IntegratorConfig()
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    if not uniform_cadence(T, cfg.snapshot_dt):
        raise ValueError(f"T={T:g} is not a multiple of snapshot_dt={cfg.snapshot_dt:g}")
    grid = np.linspace(0.0, model.length, _STUDY_GRID_SIZE)

    runs = {}
    rows = []
    for n in n_list:
        try:
            state0 = build_particles(model, init, n)
            series = simulate(model, state0, T, cfg)
            runs[n] = (series, *_sampled_series(series, grid))
        except FluidchainError as exc:
            rows.append(ConvergenceRow(n=n, error=str(exc)))
            runs[n] = None

    for n in n_list:
        if runs.get(n) is None:
            continue
        series, rho_s, vel_s = runs[n]
        mass_error = max(abs(d.mass - model.m) for d in series.diagnostics)
        residual_max = max(0.0, *(abs(r.value) for r in residuals(model, series, init)))
        self_rho = self_v = None
        twin = runs.get(2 * n)
        if 2 * n in n_list and twin is not None:
            _, rho_t, vel_t = twin
            self_rho = float(np.max(np.sqrt(np.trapezoid((rho_t - rho_s) ** 2, grid, axis=1))))
            self_v = float(np.max(np.sqrt(np.trapezoid((vel_t - vel_s) ** 2, grid, axis=1))))
        rows.append(ConvergenceRow(
            n=n, mass_error=mass_error, residual_max=residual_max,
            self_dist_rho=self_rho, self_dist_v=self_v,
            holder_rho=_holder_rate(rho_s, series.times, grid, 0.5),
            holder_v=_holder_rate(vel_s, series.times, grid, 0.25)))
    rows.sort(key=lambda r: r.n)
    return rows
