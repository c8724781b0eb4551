"""Adaptive explicit time integration of the particle chain.

An embedded 5(4) Dormand-Prince pair advances the stacked (x, v) vector.  A
trial step is accepted only when the componentwise error passes the mixed
absolute/relative test *and* every stage plus the candidate state keeps the
strict particle ordering; otherwise the step is rejected and retried smaller.
Snapshot times are hit exactly by truncating the step, never by interpolation,
so identical inputs reproduce bit-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .dynamics import (ParticleState, functionals, gaps_from_interior,
                       rhs_arrays, spacing_bounds)
from .errors import AdmissibilityError, DomainError, ModelError, StiffnessError

# Dormand-Prince 5(4) tableau as float arrays built once; row 7 is the
# 5th-order solution weights.
_A = tuple(np.array(row, dtype=float) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
# 5th-order minus embedded 4th-order weights, applied to k_1..k_7.
_ERR = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40))

_SAFETY = 0.9
_SHRINK_MIN = 0.2
_GROW_MAX = 5.0
# E_n and W_n are nonnegative; a value in [-_NEGATIVE_SLACK, 0) is rounding
# and recorded as 0.0, anything lower is kept and reported
_NEGATIVE_SLACK = 1e-14


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    dt_init: float | None = None
    dt_max: float = math.inf
    max_steps: int = 2_000_000
    snapshot_dt: float = 0.01

    def __post_init__(self):
        # written as not (x > 0) so that NaN fails every test
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.snapshot_dt < math.inf:
            raise ValueError("snapshot_dt must be positive and finite")
        if self.dt_init is not None and not 0.0 < self.dt_init < math.inf:
            raise ValueError("dt_init must be positive and finite")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-snapshot functionals, reconstructed mass and scaled-spacing
    extrema."""

    e_n: float
    w_n: float
    z_n: float
    h_n: float
    mass: float
    spacing_min: float
    spacing_max: float


@dataclass
class IntegrationStats:
    accepted: int = 0
    rejected: int = 0
    dt_min: float = math.inf
    spacing_min_seen: float = math.inf
    spacing_max_seen: float = 0.0


@dataclass(frozen=True)
class MonitorWarning:
    """A structure monitor firing at snapshot time ``t`` (not fatal).

    ``monitor`` is ``"decay"`` when the diagnostics field ``functional``
    rose by ``amount`` over the previous snapshot, more than ``slack``, and
    ``"negative"`` when its value ``amount`` is below ``-slack``.
    """

    t: float
    functional: str
    monitor: str
    amount: float
    slack: float

    def __str__(self):
        what = (f"increased by {self.amount:.3e}" if self.monitor == "decay"
                else f"is negative ({self.amount:.3e})")
        return f"{self.functional} {what} at t={self.t:g} (slack {self.slack:.3e})"


@dataclass
class SnapshotSeries:
    """Snapshots in time order: each state, its reconstructed field (built
    once, when the snapshot is recorded) and its diagnostics, with the model
    they were integrated with."""

    model: object = None
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    reconstructed: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    stats: IntegrationStats = field(default_factory=IntegrationStats)
    warnings: list = field(default_factory=list)

    def __len__(self):
        return len(self.times)

    def nodes(self):
        """The ascending nodes of every snapshot's field, stacked to shape
        (snapshots, n+1): positions, densities and velocities, built anew
        on each call."""
        return tuple(np.stack([getattr(f, name) for f in self.reconstructed])
                     for name in ("asc_x", "asc_rho", "asc_v"))


def _error_ratio(err, y_old, y_new, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float((np.abs(err) / scale).max())


def _attempt(model, n, y, dt, cfg, k1=None):
    """One embedded-pair trial from y over dt.

    Returns (accepted, y_new, k_new_first_stage, dt_next_factor).  Domain
    exits at any stage or in the candidate count as rejections.
    """
    dim = y.size
    half = dim // 2
    k = np.empty((7, dim))
    try:
        if k1 is None:
            k[0, :half], k[0, half:] = rhs_arrays(model, n, y[:half], y[half:])
        else:
            k[0] = k1
        for stage in range(1, 7):
            yi = y + dt * np.dot(_A[stage], k[:stage])
            k[stage, :half], k[stage, half:] = rhs_arrays(model, n, yi[:half], yi[half:])
    except DomainError:
        return False, None, None, 0.5
    y_new = yi                      # row 7 of the tableau is the solution
    err = dt * np.dot(_ERR, k)
    ratio = _error_ratio(err, y, y_new, cfg)
    if not math.isfinite(ratio):
        return False, None, None, 0.5
    if ratio > 1.0:
        factor = max(_SHRINK_MIN, _SAFETY * ratio ** -0.2)
        return False, None, None, factor
    factor = _GROW_MAX if ratio == 0.0 else min(_GROW_MAX, max(
        _SHRINK_MIN, _SAFETY * ratio ** -0.2))
    return True, y_new, k[6].copy(), factor


def _default_dt(model, n, first, cfg, T):
    """Viscous-coupling-aware first step from the first snapshot's record;
    falls back to 1e-6 when the spacing bounds are unavailable."""
    if cfg.dt_init is not None:
        return min(cfg.dt_init, cfg.dt_max, T)
    try:
        a_est, b_est = spacing_bounds(model, max(first.e_n, 0.0), max(first.w_n, 0.0))
        grid = np.linspace(a_est, b_est, 101)
        gain_max = float(np.max(model.damping_gain(grid)))
        dt0 = min(1e-3, 0.1 * (a_est / n) ** 2 / (n * n * gain_max))
    except (AdmissibilityError, ModelError):
        dt0 = 1e-6
    return min(dt0, cfg.dt_max, T)


def _snapshot_targets(T, snapshot_dt):
    count = int(math.floor(T / snapshot_dt + 1e-9))
    targets = [k * snapshot_dt for k in range(1, count + 1)]
    if not targets or targets[-1] < T - 1e-12 * max(T, 1.0):
        targets.append(T)
    else:
        targets[-1] = T
    return targets


def decay_slack(initial):
    """Allowed rise per snapshot of a functional whose first value is
    ``initial``: 1e-8 * max(1, initial)."""
    return 1e-8 * max(1.0, initial)


def decay_violations(times, values, slack):
    """Decay monitor: (t, increase) at every snapshot where ``values`` rose
    by more than ``slack`` over the previous snapshot."""
    return [(times[j], values[j] - values[j - 1])
            for j in range(1, len(values)) if values[j] > values[j - 1] + slack]


def _record(model, state, series):
    diag_f = functionals(model, state)
    field_now = fields.reconstruct(model, state)
    gaps = state.n * gaps_from_interior(model.length, state.x)
    rec = DiagnosticsRecord(
        e_n=_clamp_tiny(diag_f.e_n), w_n=_clamp_tiny(diag_f.w_n),
        z_n=diag_f.z_n, h_n=diag_f.h_n,
        mass=fields.total_mass(field_now),
        spacing_min=float(gaps.min()), spacing_max=float(gaps.max()))
    series.times.append(state.t)
    series.states.append(state)
    series.reconstructed.append(field_now)
    series.diagnostics.append(rec)
    return rec


def _clamp_tiny(value):
    """A functional value with a rounding-sized negative part read as 0.0."""
    return 0.0 if -_NEGATIVE_SLACK <= value < 0.0 else value


def simulate(model, state0, T, cfg=None) -> SnapshotSeries:
    """Integrate a chain to time T, emitting snapshots every snapshot_dt.

    Snapshots carry the discrete functionals, the reconstructed mass and the
    spacing extrema (``checks.decay_report`` adds the continuous energies);
    the decay and negative-value monitors of E_n and W_n are collected as
    warnings on the series.  Recording the first snapshot raises DomainError
    unless ``state0`` is ordered.
    """
    cfg = cfg or IntegratorConfig()
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    model.require_growth()
    series = SnapshotSeries(model=model)
    state0 = ParticleState(n=state0.n, t=0.0, x=state0.x, v=state0.v)
    first = _record(model, state0, series)

    n = state0.n
    y = np.concatenate((state0.x, state0.v))
    half = y.size // 2
    t = 0.0
    dt_ctrl = _default_dt(model, n, first, cfg, T)
    k1 = None
    stats = series.stats
    stats.spacing_min_seen = first.spacing_min
    stats.spacing_max_seen = first.spacing_max
    dt_floor = 1e-14 * T

    for target in _snapshot_targets(T, cfg.snapshot_dt):
        while t < target:
            if stats.accepted + stats.rejected >= cfg.max_steps:
                raise StiffnessError(
                    f"exceeded max_steps={cfg.max_steps} at t={t:g}")
            dt = min(dt_ctrl, cfg.dt_max, target - t)
            if dt < dt_floor:
                raise StiffnessError(
                    f"step size underflow (dt={dt:.3e} < {dt_floor:.3e}) at "
                    f"t={t:g}; the viscous coupling is too stiff for the "
                    "explicit pair -- reduce n or use an implicit extension")
            accepted, y_new, k_last, factor = _attempt(model, n, y, dt, cfg, k1)
            if accepted:
                stats.accepted += 1
                stats.dt_min = min(stats.dt_min, dt)
                y = y_new
                k1 = k_last          # first stage of the next step (FSAL)
                t = target if dt >= target - t else t + dt
                gaps = n * gaps_from_interior(model.length, y[:half])
                stats.spacing_min_seen = min(stats.spacing_min_seen, float(gaps.min()))
                stats.spacing_max_seen = max(stats.spacing_max_seen, float(gaps.max()))
                dt_ctrl = dt * factor
            else:
                # y is unchanged, so a previously computed first stage stays valid
                stats.rejected += 1
                dt_ctrl = dt * factor
        state = ParticleState(n=n, t=t, x=y[:half].copy(), v=y[half:].copy())
        _record(model, state, series)

    for name in ("e_n", "w_n"):
        values = [getattr(rec, name) for rec in series.diagnostics]
        slack = decay_slack(values[0])
        series.warnings += [
            MonitorWarning(when, name, "decay", rise, slack)
            for when, rise in decay_violations(series.times, values, slack)]
        series.warnings += [
            MonitorWarning(when, name, "negative", value, _NEGATIVE_SLACK)
            for when, value in zip(series.times, values) if value < -_NEGATIVE_SLACK]
    series.warnings.sort(key=lambda w: w.t)     # stable: e_n before w_n at one t
    return series
