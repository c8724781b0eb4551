"""Adaptive explicit time integration of the particle chain.

An embedded 5(4) Dormand-Prince pair advances the stacked (x, v) vector.  A
trial step is accepted only when the componentwise error passes the mixed
absolute/relative test *and* every stage plus the candidate state keeps the
strict particle ordering; otherwise the step is rejected and retried smaller.
Snapshot times are hit exactly by truncating the step, never by interpolation,
so identical inputs reproduce bit-identical output on one numpy/BLAS build
and CPU (the stage sums' ``np.dot`` rounds by the BLAS kernel).
"""

import math
from typing import NamedTuple

import numpy as np

from . import fields
from .dynamics import ParticleState, chain_functionals, gaps_from_interior, rhs_arrays
from .errors import DomainError, InitialDataError, StiffnessError

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


class _IntegratorFields(NamedTuple):
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 2_000_000
    snapshot_dt: float = 0.01


class IntegratorConfig(_IntegratorFields):
    """Error-test tolerances, step budget and snapshot cadence; construction,
    ``_replace`` included, rejects a value the integrator cannot use."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # written as not (x > 0) so that NaN fails every test
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.snapshot_dt < math.inf:
            raise ValueError("snapshot_dt must be positive and finite")
        if not self.max_steps >= 1:
            raise ValueError("max_steps must be at least 1")
        return self

    # _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))


class DiagnosticsRecord(NamedTuple):
    """The functionals, reconstructed mass and scaled-spacing extrema of
    snapshots, each an array over the snapshots."""

    e_n: np.ndarray
    w_n: np.ndarray
    z_n: np.ndarray
    h_n: np.ndarray
    mass: np.ndarray
    spacing_min: np.ndarray
    spacing_max: np.ndarray


class IntegrationStats:
    """Accepted and rejected step counts, the rejections by cause
    (``"domain"``, ``"nonfinite"``, ``"error"``; they sum to ``rejected``)
    and the scaled-spacing extrema over every accepted step, updated as the
    integration runs."""

    def __init__(self):
        self.accepted = 0
        self.rejected = 0
        self.rejected_by = dict.fromkeys(("domain", "nonfinite", "error"), 0)
        self.spacing_min_seen = math.inf
        self.spacing_max_seen = 0.0


class MonitorWarning(NamedTuple):
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


class SnapshotSeries:
    """Snapshots in time order, each stored once: row ``j`` of ``x``,
    ``rho`` and ``v``, shape (snapshots, n+1), holds the ascending nodes of
    the field rebuilt at ``times[j]`` (``fields.reconstruct``).  Next to
    them: ``diagnostics``, one ``DiagnosticsRecord`` of columns over the
    snapshots, and the model the series was integrated with."""

    def __init__(self, model, n, count):
        self.model = model
        self.n = n
        self.times = []
        self.x, self.rho, self.v = np.empty((3, count, n + 1))
        self.diagnostics = None
        self.stats = IntegrationStats()
        self.warnings = []

    def __len__(self):
        return len(self.times)


def _error_ratio(err, y_old, y_new, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float((np.abs(err) / scale).max())


def _attempt(model, n, y, dt, cfg, k1):
    """One embedded-pair trial from y over dt; ``k1`` is the rhs at y.

    Returns (accepted, y_new, k_new_first_stage, dt_next_factor, cause),
    with ``cause`` None for an accepted trial, else why it was rejected:
    ``"domain"`` (a DomainError at any stage, the candidate included),
    ``"nonfinite"`` (a non-finite error ratio) or ``"error"`` (a ratio
    above 1).
    """
    dim = y.size
    half = dim // 2
    k = np.empty((7, dim))
    k[0] = k1
    try:
        for stage in range(1, 7):
            yi = y + dt * np.dot(_A[stage], k[:stage])
            k[stage, :half], k[stage, half:] = rhs_arrays(model, n, yi[:half], yi[half:])
    except DomainError:
        return False, None, None, 0.5, "domain"
    y_new = yi                      # row 7 of the tableau is the solution
    err = dt * np.dot(_ERR, k)
    ratio = _error_ratio(err, y, y_new, cfg)
    if not math.isfinite(ratio):
        return False, None, None, 0.5, "nonfinite"
    factor = _GROW_MAX if ratio == 0.0 else min(_GROW_MAX, max(
        _SHRINK_MIN, _SAFETY * ratio ** -0.2))
    if ratio > 1.0:
        return False, None, None, factor, "error"
    return True, y_new, k[6].copy(), factor, None


def first_step(model, n, x):
    """The first trial step: a tenth of the viscous time 1/(n^2 max gain)
    of the cells of the interior positions ``x``."""
    gaps = n * gaps_from_interior(model.length, x)
    return 0.1 / (n * n * float(np.max(model.damping_gain(gaps))))


def _snapshot_targets(T, snapshot_dt):
    if not 0.0 < T < math.inf:
        raise ValueError("horizon T must be positive and finite")
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


def _store(model, state, series):
    """Append the snapshot of ``state`` to ``series``: its time and its
    rebuilt nodes as the next row."""
    j = len(series)
    series.x[j], series.rho[j], series.v[j] = fields.reconstruct(model, state)
    series.times.append(state.t)


def _diagnostics(model, x, rho, v):
    """The ``DiagnosticsRecord`` of the snapshots with ascending node rows
    ``x``, ``rho`` and ``v`` of shape (..., n+1); an E_n or W_n in
    ``[-_NEGATIVE_SLACK, 0)`` is rounding and read as 0.0."""
    widths = np.diff(x)
    n = widths.shape[-1]
    # the widths of gaps_from_interior (ghost end first) and the interior
    # velocities, in descending position order
    f = chain_functionals(model, widths[..., ::-1], v[..., -2:0:-1])
    e_n, w_n = (np.where((-_NEGATIVE_SLACK <= value) & (value < 0.0), 0.0, value)
                for value in (f.e_n, f.w_n))
    return DiagnosticsRecord(e_n=e_n, w_n=w_n, z_n=f.z_n, h_n=f.h_n,
                             mass=fields.total_mass(x, rho),
                             spacing_min=n * widths.min(axis=-1),
                             spacing_max=n * widths.max(axis=-1))


def _diagnostic_columns(series):
    """The diagnostics of every snapshot of ``series``, one pass over its
    rows in blocks of ``fields.BLOCK``."""
    blocks = [_diagnostics(series.model, series.x[j], series.rho[j], series.v[j])
              for j in fields.row_blocks(len(series))]
    return DiagnosticsRecord(*map(np.concatenate, zip(*blocks)))


def simulate(model, state0, T, cfg=None) -> SnapshotSeries:
    """Integrate a chain to time T, emitting snapshots every snapshot_dt.

    Each snapshot is stored as its rebuilt node rows; after the last step
    one pass over the rows fills ``series.diagnostics`` with the columns of
    the discrete functionals, the reconstructed mass and the spacing extrema
    (``checks.decay_report`` adds the continuous energies), and the decay
    and negative-value monitors of E_n and W_n are collected as warnings on
    the series.  Before the first step, the first snapshot raises
    DomainError unless ``state0`` is ordered, and InitialDataError when its
    E_n, W_n or Z_n does not fit in a float; a ``T`` that is not positive
    and finite is a ValueError.
    """
    cfg = cfg or IntegratorConfig()
    targets = _snapshot_targets(T, cfg.snapshot_dt)
    model.require_growth()
    series = SnapshotSeries(model, state0.n, len(targets) + 1)
    _store(model, ParticleState(n=state0.n, t=0.0, x=state0.x, v=state0.v), series)
    with np.errstate(over="ignore"):
        first = _diagnostics(model, series.x[0], series.rho[0], series.v[0])
    if not np.isfinite((first.e_n, first.w_n, first.z_n)).all():
        raise InitialDataError("initial energy does not fit in a float")

    n = state0.n
    y = np.concatenate((state0.x, state0.v))
    half = y.size // 2
    t = 0.0
    dt_ctrl = first_step(model, n, state0.x)    # the first snapshot bounds it further
    k1 = np.concatenate(rhs_arrays(model, n, state0.x, state0.v))
    stats = series.stats
    stats.spacing_min_seen = float(first.spacing_min)
    stats.spacing_max_seen = float(first.spacing_max)
    dt_floor = 1e-14 * T

    for target in targets:
        while t < target:
            if stats.accepted + stats.rejected >= cfg.max_steps:
                raise StiffnessError(
                    f"exceeded max_steps={cfg.max_steps} at t={t:g}")
            dt = min(dt_ctrl, target - t)
            if dt < dt_floor:
                raise StiffnessError(
                    f"step size underflow (dt={dt:.3e} < {dt_floor:.3e}) at "
                    f"t={t:g}; the viscous coupling is too stiff for the "
                    "explicit pair -- reduce n or use an implicit extension")
            accepted, y_new, k_last, factor, cause = _attempt(model, n, y, dt, cfg, k1)
            dt_ctrl = dt * factor
            if not accepted:
                # y is unchanged, so its first stage k1 stays valid
                stats.rejected += 1
                stats.rejected_by[cause] += 1
                continue
            stats.accepted += 1
            y = y_new
            k1 = k_last          # first stage of the next step (FSAL)
            t = target if dt >= target - t else t + dt
            gaps = n * gaps_from_interior(model.length, y[:half])
            stats.spacing_min_seen = min(stats.spacing_min_seen, float(gaps.min()))
            stats.spacing_max_seen = max(stats.spacing_max_seen, float(gaps.max()))
        _store(model, ParticleState(n=n, t=t, x=y[:half], v=y[half:]), series)

    series.diagnostics = _diagnostic_columns(series)
    for name in ("e_n", "w_n"):
        values = getattr(series.diagnostics, name).tolist()
        slack = decay_slack(values[0])
        series.warnings.extend(
            MonitorWarning(when, name, "decay", rise, slack)
            for when, rise in decay_violations(series.times, values, slack))
        series.warnings.extend(
            MonitorWarning(when, name, "negative", value, _NEGATIVE_SLACK)
            for when, value in zip(series.times, values) if value < -_NEGATIVE_SLACK)
    series.warnings.sort(key=lambda w: w.t)     # stable: e_n before w_n at one t
    return series
