"""Command-line entry point: JSON configuration, CSV/JSON artifacts, and the
simulate / check / converge / validate workflows.

The config schema lives here alone, and each block is built in the pass that
checks it.  It is strict: unknown keys anywhere are fatal, and every
diagnostic names the offending field path.  Numeric CSV output uses 17
significant digits with a plain decimal point, so re-running a subcommand on
the same config byte-reproduces its artifacts on one numpy/BLAS build and CPU.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import checks, fields
from .dynamics import spacing_bounds
from .errors import AdmissibilityError, ConfigError, FluidchainError
from .initial import (admissibility, budget_constants, build_particles,
                      constant_density, make_initial, sine_velocity, table_profile)
from .integrate import IntegratorConfig, simulate
from .model import FluidModel

# kind -> (required keys, optional keys) of the model block, besides "kind";
# a preset's keys are the keyword arguments of its FluidModel constructor
MODEL_KEYS = {
    "isentropic_gas": ({"c", "gamma"}, {"mu"}),
    "ideal_gas_entropy": ({"c", "gamma", "visc_amp"}, set()),
    "saint_venant": ({"g", "nu"}, set()),
    "custom": ({"pressure", "viscosity"}, set()),
}
# profile -> kind -> (required keys, optional keys) of its initial block,
# besides "kind"
PROFILE_KEYS = {
    "rho0": {"constant": ((), ("value",)), "table": (("x", "rho"), ())},
    "v0": {"zero": ((), ()), "sine": (("amplitude",), ("mode",)),
           "table": (("x", "v"), ())},
}
# the key holding a profile's values, named when those values are at fault
VALUES_KEY = {("rho0", "constant"): "rho0.value", ("rho0", "table"): "rho0.rho",
              ("v0", "sine"): "v0.amplitude", ("v0", "table"): "v0.v"}
# the convergence.txt label of each metric of checks.ORDER_METRICS
ORDER_LABELS = {"mass_error": "mass_err", "residual_max": "max_residual",
                "self_dist_rho": "|rho_2n-rho_n|", "self_dist_v": "|v_2n-v_n|",
                "self_dist_v_late": "|v_2n-v_n| over t>0"}
# largest particle count, grid size and snapshot count a config may ask for
MAX_COUNT = 10 ** 6


class SimulationConfig(NamedTuple):
    model: object
    initial: object
    integrator: IntegratorConfig
    horizon: float
    n: int | None
    n_list: list | None
    grid_size: int


def _field(path, key):
    return f"{path}.{key}" if path else key


def _check_keys(block, path, required, optional=frozenset()):
    if not isinstance(block, dict):
        raise ConfigError(path or "<root>", "must be a JSON object")
    for key in block:
        if key not in required and key not in optional:
            raise ConfigError(_field(path, key), "unknown key (strict mode)")
    for key in required:
        if key not in block:
            raise ConfigError(_field(path, key), "missing required key")


def _finite(value):
    """Whether ``value`` is a JSON number (no boolean) that is a finite
    float; an integer too large for a float is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(block, path, key, default=None, positive=False):
    if key not in block:
        if default is None:
            raise ConfigError(_field(path, key), "missing required number")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_field(path, key), f"expected a number, got {value!r}")
    if not _finite(value):
        raise ConfigError(_field(path, key), f"must be finite, got {value!r}")
    value = float(value)
    if positive and not value > 0.0:
        raise ConfigError(_field(path, key), f"must be positive, got {value!r}")
    return value


def _number_list(block, path, key):
    """Required list of finite numbers ``block[key]``."""
    if key not in block:
        raise ConfigError(_field(path, key), "missing required key")
    values = block[key]
    if not isinstance(values, list) or not all(map(_finite, values)):
        raise ConfigError(_field(path, key), f"expected a list of finite numbers, got {values!r}")


def _integer(block, path, key, default=None, minimum=None, maximum=None):
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(_field(path, key), f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(_field(path, key), f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(_field(path, key), f"must be <= {maximum}, got {value}")
    return value


def _parse_model(raw):
    block = raw["model"]
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("model.kind", "missing model kind")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in MODEL_KEYS:
        raise ConfigError("model.kind", f"unknown kind {kind!r}")
    required, optional = MODEL_KEYS[kind]
    _check_keys(block, "model", required | {"kind"}, optional)
    params = {k: v for k, v in block.items() if k != "kind"}
    if kind == "custom":
        for side in ("pressure", "viscosity"):
            _check_keys(params[side], f"model.{side}", {"coeff", "exponent"})
            params[side] = (_number(params[side], f"model.{side}", "coeff", positive=True),
                            _number(params[side], f"model.{side}", "exponent"))
    else:
        for key in params:
            _number(params, "model", key)
    m = _number(raw, "", "m", positive=True)
    length = _number(raw, "", "L", positive=True)
    try:
        if kind == "custom":
            return FluidModel.power_law(*params["pressure"], *params["viscosity"],
                                        m=m, length=length)
        return getattr(FluidModel, kind)(**params, m=m, length=length)
    except FluidchainError as exc:
        raise ConfigError("model", str(exc)) from exc


def _parse_profile(block, name):
    """Check the profile ``block[name]`` against the keys of its own kind:
    the keys of a ``table`` are lists of numbers, all others numbers.
    Returns the kind."""
    path = f"initial.{name}"
    profile = block[name]
    if not isinstance(profile, dict):
        raise ConfigError(path, "must be a JSON object")
    if "kind" not in profile:
        raise ConfigError(_field(path, "kind"), "missing required key")
    kind = profile["kind"]
    if not isinstance(kind, str) or kind not in PROFILE_KEYS[name]:
        raise ConfigError(_field(path, "kind"), f"unknown kind {kind!r}")
    required, optional = PROFILE_KEYS[name][kind]
    _check_keys(profile, path, ("kind", *required), optional)
    check = _number_list if kind == "table" else _number
    for key in (*required, *optional):
        if key in profile:
            check(profile, path, key)
    return kind


def _parse_initial(model, raw):
    block = raw["initial"]
    _check_keys(block, "initial", {"rho0", "v0"})
    rho_kind = _parse_profile(block, "rho0")
    v_kind = _parse_profile(block, "v0")
    rho_block, v_block = block["rho0"], block["v0"]
    try:
        if rho_kind == "constant":
            nodes = constant_density(model, rho_block.get("value"))
        else:
            nodes = (rho_block["x"], rho_block["rho"])
        if v_kind == "zero":
            v0, deriv_l2 = (lambda x: 0.0 * np.asarray(x, dtype=float)), 0.0
        elif v_kind == "sine":
            v0, deriv_l2 = sine_velocity(model, v_block["amplitude"],
                                         v_block.get("mode", 1))
        else:
            v0 = table_profile(v_block["x"], v_block["v"], model.length, "v0")
            # the exact slope norm of the interpolant, sqrt(sum(dv**2 / dx))
            with np.errstate(over="ignore"):     # an overflow is rejected as infinite
                deriv_l2 = math.sqrt(np.sum(np.diff(v_block["v"]) ** 2
                                            / np.diff(v_block["x"])))
        return make_initial(model, nodes, v0, deriv_l2)
    except FluidchainError as exc:
        part = getattr(exc, "part", None)
        kind = {"rho0": rho_kind, "v0": v_kind}.get(part)
        part = VALUES_KEY.get((part, kind), part)
        raise ConfigError(f"initial.{part}" if part else "initial", str(exc)) from exc


def _parse_integrator(raw):
    block = raw.get("integrator", {})
    _check_keys(block, "integrator", set(),
                {"rel_tol", "abs_tol", "max_steps", "snapshot_dt", "T"})
    default = IntegratorConfig()
    cfg = IntegratorConfig(
        rel_tol=_number(block, "integrator", "rel_tol", default=default.rel_tol,
                        positive=True),
        abs_tol=_number(block, "integrator", "abs_tol", default=default.abs_tol,
                        positive=True),
        max_steps=_integer(block, "integrator", "max_steps", default=default.max_steps,
                           minimum=1),
        snapshot_dt=_number(block, "integrator", "snapshot_dt", default=default.snapshot_dt,
                            positive=True))
    horizon = _number(block, "integrator", "T", default=1.0, positive=True)
    # a ratio in float, so that a subnormal snapshot_dt (ratio inf) fails too
    if not horizon / cfg.snapshot_dt <= MAX_COUNT:
        raise ConfigError("integrator.snapshot_dt", f"gives more than {MAX_COUNT} snapshots "
                          f"over T={horizon:g}, got {cfg.snapshot_dt!r}")
    return cfg, horizon


def parse_config(path) -> SimulationConfig:
    """Load and strictly validate a JSON configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(str(path), "config file not found")
    try:
        raw = json.loads(path.read_text())
    except ValueError as exc:
        # bad JSON, bytes that are not UTF-8, or an integer of over 4300 digits
        raise ConfigError(str(path), f"malformed JSON: {exc}") from exc
    _check_keys(raw, "", {"model", "m", "L", "initial"},
                {"integrator", "n", "n_list", "grid_size"})
    model = _parse_model(raw)
    init = _parse_initial(model, raw)
    integ, horizon = _parse_integrator(raw)
    n = _integer(raw, "", "n", default=None, minimum=2, maximum=MAX_COUNT)
    n_list = raw.get("n_list")
    if n_list is not None:
        _check_n_list(n_list, "n_list")
    grid_size = _integer(raw, "", "grid_size", default=512, minimum=2, maximum=MAX_COUNT)
    return SimulationConfig(model=model, initial=init, integrator=integ,
                            horizon=horizon, n=n, n_list=n_list,
                            grid_size=grid_size)


def _check_n_list(n_list, field):
    """Particle counts for a refinement study: integers from 2 to
    ``MAX_COUNT``, ascending."""
    if (not isinstance(n_list, list) or not n_list
            or any(isinstance(v, bool) or not isinstance(v, int) for v in n_list)):
        raise ConfigError(field, "must be a non-empty list of integers")
    if any(v < 2 for v in n_list):
        raise ConfigError(field, "entries must be >= 2")
    if any(v > MAX_COUNT for v in n_list):
        raise ConfigError(field, f"entries must be <= {MAX_COUNT}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(field, "entries must be strictly ascending")


# -- artifact writers --------------------------------------------------------------

# every finite float in a CSV; infinities are written as "infinite"
_FLOAT = "%.17g"
# the fields.csv values (rho and v at each grid point of each snapshot) from
# which simulate forks a second writer; below, the fork costs more than it saves
FORK_VALUES = 1 << 14


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    return _FLOAT % float(value)


def _write_snapshot(fh, t_text, rows, *columns):
    """Write one snapshot's rows in one call: ``t_text`` starts every row and
    ``rows`` holds each row's rest, with one ``_FLOAT`` per column filled
    from ``columns``.  A snapshot holding an infinity is formatted value by
    value through ``_fmt``."""
    template = t_text + t_text.join(rows)
    values = np.column_stack(columns).ravel()
    if np.isinf(values).any():
        fh.write(template.replace(_FLOAT, "%s") % tuple(map(_fmt, values.tolist())))
    else:
        fh.write(template % tuple(values.tolist()))


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_fields(fh, series, grid, rows, snapshots):
    """Write the ``fields.csv`` rows of the snapshots in the range
    ``snapshots``, each field sampled on ``grid`` by ``fields.sample``."""
    for j in snapshots:
        x = series.x[j]
        _write_snapshot(fh, _fmt(series.times[j]), rows, fields.sample(x, series.rho[j], grid),
                        fields.sample(x, series.v[j], grid))


def _child_writer(write, fd):
    """The body of the forked writer: ``write`` on a text file over ``fd``,
    then ``os._exit``, which flushes none of the buffers the child shares
    with its parent (``sys.stdout`` among them) and runs no atexit handler.
    A failure replaces the text by its reason and exits with status 1."""
    status = 1
    try:
        with open(fd, "w", newline="\n", closefd=False) as fh:
            write(fh)
        status = 0
    except BaseException as exc:  # the process ends here, whatever was raised
        reason = getattr(exc, "strerror", None) or f"{type(exc).__name__}: {exc}"
        os.ftruncate(fd, 0)
        os.pwrite(fd, reason.encode(errors="replace"), 0)
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked_writer(write, fork):
    """Run ``write(fh)`` on a text file while the with block runs, in a
    forked child process that writes into an anonymous temporary file opened
    before the fork.  The block gets ``append(target)``, which waits for the
    child and appends its text to the open text file ``target``; a failed
    child raises an OSError with its reason, on ``target``.  The child is
    reaped on every path, and killed first if the block fails before
    ``append`` reaped it.  Where ``fork`` is false, ``os`` has no ``fork`` or
    it raises an OSError, ``append`` is ``write`` itself, run in this process."""
    with contextlib.ExitStack() as stack:
        pid = None
        if fork and hasattr(os, "fork"):
            tail = stack.enter_context(tempfile.TemporaryFile())
            with contextlib.suppress(OSError), warnings.catch_warnings():
                # From Python 3.12 on, fork warns in a process with threads, and numpy's
                # BLAS pool starts some.  The child is safe all the same: it calls no BLAS
                # routine, takes no lock another thread may hold, and ends in os._exit.  A
                # fork that fails (EAGAIN at the process limit, ENOMEM) leaves pid None.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        if pid is None:
            yield write
            return
        if pid == 0:
            _child_writer(write, tail.fileno())
        code = None

        def append(target):
            nonlocal code
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            tail.seek(0)
            if code:
                reason = tail.read().decode() if code == 1 else f"exit status {code}"
                raise OSError(None, f"writer process failed: {reason}", target.name)
            target.flush()
            shutil.copyfileobj(tail, target.buffer)

        try:
            yield append
        finally:
            if code is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _write_simulation_artifacts(model, series, out_dir, grid_size):
    """Write ``particles.csv``, ``fields.csv`` and ``diagnostics.csv``.  From
    ``FORK_VALUES`` values in ``fields.csv`` on, a forked writer formats its
    second half meanwhile, which this process then appends (``_forked_writer``)."""
    out = Path(out_dir)
    # one uniform grid of grid_size points, the same for every snapshot
    grid = np.linspace(0.0, model.length, grid_size)
    particle_rows = [f",{i},{_FLOAT},{_FLOAT},{_FLOAT}\n"
                     for i in range(series.n + 1)]
    field_rows = [f",{_fmt(x)},{_FLOAT},{_FLOAT}\n" for x in grid.tolist()]
    half = len(series) // 2
    fork = 2 * len(series) * grid_size >= FORK_VALUES
    with (_forked_writer(lambda fh: _write_fields(fh, series, grid, field_rows,
                                                  range(half, len(series))), fork) as append,
          open(out / "particles.csv", "w", newline="\n") as particles,
          open(out / "fields.csv", "w", newline="\n") as sampled):
        particles.write("t,i,x_i,v_i,rho_i\n")
        for t, x, rho, v in zip(series.times, series.x, series.rho, series.v):
            # the nodes reversed: i = 0 is the ghost end, x = L
            _write_snapshot(particles, _fmt(t), particle_rows, x[::-1], v[::-1], rho[::-1])
        sampled.write("t,x,rho,v\n")
        _write_fields(sampled, series, grid, field_rows, range(half))
        _write_csv(out / "diagnostics.csv",
                   ("t", "E_n", "W_n", "Z_n", "H_n", "mass", "min_spacing", "max_spacing"),
                   zip(series.times, *(column.tolist() for column in series.diagnostics)))
        append(sampled)


@contextlib.contextmanager
def _writing(out):
    """Report an OSError raised in the block, which creates or writes
    under the output directory ``out``, as a ConfigError on --out."""
    try:
        yield
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {str(exc.filename or out)!r}: "
                          f"{exc.strerror or exc}") from None


def _make_out(out_dir):
    """Create the output directory before any work; a path that cannot be
    one (an existing file, a path under a file) is a ConfigError on --out."""
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _error_record(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["field"] = exc.field
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


# -- subcommands -------------------------------------------------------------------

def _cmd_simulate(cfg, out_dir):
    if cfg.n is None:
        raise ConfigError("n", "simulate requires a particle count")
    out = _make_out(out_dir)
    state0 = build_particles(cfg.model, cfg.initial, cfg.n)
    series = simulate(cfg.model, state0, cfg.horizon, cfg.integrator)
    with _writing(out):
        _write_simulation_artifacts(cfg.model, series, out, cfg.grid_size)
    for warning in series.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"simulate: wrote {len(series)} snapshots to {out_dir} "
          f"(accepted {series.stats.accepted}, rejected {series.stats.rejected})")
    return 0


def _cmd_check(cfg):
    report = admissibility(cfg.model, cfg.initial)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.admissible else 2


def _prepare_study(cfg, out_dir):
    """What validate and converge need before simulating: equally spaced
    snapshots (for the residuals' Simpson rule), the output directory and
    admissible initial data, decided by the one ``spacing_bounds`` verdict.
    Returns the directory and the budget constants."""
    if not checks.uniform_cadence(cfg.horizon, cfg.integrator.snapshot_dt):
        raise ConfigError("integrator.T", f"T={cfg.horizon:g} is not a multiple of "
                          f"snapshot_dt={cfg.integrator.snapshot_dt:g}")
    out = _make_out(out_dir)
    consts = budget_constants(cfg.model, cfg.initial)
    try:
        spacing_bounds(cfg.model, consts.e_bar, consts.w_bar)
    except AdmissibilityError as exc:
        raise AdmissibilityError(f"initial data inadmissible: {exc}", side=exc.side) from None
    return out, consts


def _write_study(out, csv_name, rows, text_name, lines):
    """Write a study's CSV of (n, metric, value, error_estimate) rows and
    its text report under ``out``."""
    with _writing(out):
        _write_csv(out / csv_name, ("n", "metric", "value", "error_estimate"), rows)
        (out / text_name).write_text("\n".join(lines) + "\n")


def _cmd_converge(cfg, out_dir, n_override):
    n_list = n_override or cfg.n_list
    if not n_list:
        raise ConfigError("n_list", "converge requires n_list (or --n)")
    out, _ = _prepare_study(cfg, out_dir)
    rows = checks.convergence_study(cfg.model, cfg.initial, n_list,
                                    cfg.horizon, cfg.integrator)
    long_rows = []
    for row in rows:
        if row.error is not None:
            long_rows.append((row.n, "error", math.nan, None))
            continue
        for metric in ("mass_error", "residual_max", "self_dist_rho",
                       "self_dist_v", "self_dist_v_late", "holder_rho", "holder_v"):
            value = getattr(row, metric)
            if value is not None:
                long_rows.append((row.n, metric, value, None))
    orders = checks.observed_orders(rows)
    long_rows += [(n, f"order_{metric}", value, None)
                  for n, by_metric in orders for metric, value in by_metric.items()]
    lines = ["refinement study",
             "mass_err is the trapezoid error of the rebuilt density, not a conservation error",
             ""]
    for row in rows:
        if row.error is not None:
            lines.append(f"n={row.n}: FAILED ({row.error})")
        else:
            dist = ("" if row.self_dist_rho is None else
                    f", |rho_2n-rho_n|={row.self_dist_rho:.6e}, "
                    f"|v_2n-v_n|={row.self_dist_v:.6e}")
            lines.append(f"n={row.n}: mass_err={row.mass_error:.6e}, "
                         f"max_residual={row.residual_max:.6e}{dist}")
    lines += [f"n={row.n}: |v_2n-v_n| over t>0={row.self_dist_v_late:.6e}"
              for row in rows if row.self_dist_v_late is not None]
    for n, by_metric in orders:
        lines.append(f"observed order n={n} to {2 * n}: " + ", ".join(
            f"{ORDER_LABELS[metric]}={value:.3f}" for metric, value in by_metric.items()))
    _write_study(out, "convergence.csv", long_rows, "convergence.txt", lines)
    print("\n".join(lines))
    return 0


def _cmd_validate(cfg, out_dir):
    if cfg.n is None:
        raise ConfigError("n", "validate requires a particle count")
    out, consts = _prepare_study(cfg, out_dir)
    w_bar = consts.w_bar
    model, init = cfg.model, cfg.initial
    state0 = build_particles(model, init, cfg.n)
    series = simulate(model, state0, cfg.horizon, cfg.integrator)

    reports = checks.residuals(model, series, init)
    decay = checks.decay_report(series, w_budget=w_bar)
    envelope = checks.envelope_check(model, series)

    rows = [(r.n, f"residual[{r.test_function}]", r.value, r.quad_error)
            for r in reports]
    rows.append((cfg.n, "w_avg_max", decay.w_avg_max, None))
    rows.append((cfg.n, "envelope_excess", envelope.max_envelope_excess, None))
    lines = [f"validation at n={cfg.n}, T={cfg.horizon:g}", ""]
    for r in reports:
        flag = " (inconclusive)" if r.inconclusive else ""
        lines.append(f"{r.test_function}: residual={r.value:.6e} "
                     f"quad_err={r.quad_error:.3e}{flag}")
    lines.append(f"discrete decay ok: {decay.discrete_ok} "
                 f"(E violations {len(decay.e_n_violations)}, "
                 f"W violations {len(decay.w_n_violations)})")
    lines.append(f"time-averaged transformed energy max {decay.w_avg_max:.6e} "
                 f"vs budget {w_bar:.6e}")
    lines.append(f"spacing containment ok: {envelope.ok} "
                 f"(seen [{envelope.spacing_min_seen:.6f}, "
                 f"{envelope.spacing_max_seen:.6f}] within "
                 f"[{envelope.a:.6f}, {envelope.b:.6f}])")
    _write_study(out, "residuals.csv", rows, "validate.txt", lines)
    print("\n".join(lines))
    return 0


def run(subcommand, cfg, out_dir=None, n_override=None):
    """Dispatch a subcommand; returns the process exit status."""
    if subcommand == "simulate":
        return _cmd_simulate(cfg, out_dir)
    if subcommand == "check":
        return _cmd_check(cfg)
    if subcommand == "converge":
        return _cmd_converge(cfg, out_dir, n_override)
    if subcommand == "validate":
        return _cmd_validate(cfg, out_dir)
    raise ValueError(f"unknown subcommand {subcommand!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fluidchain",
        description="Particle-chain engine for 1-D viscous compressible flow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out in (("simulate", True), ("check", False),
                            ("converge", True), ("validate", True)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        if name == "converge":
            p.add_argument("--n", help="comma-separated particle counts, e.g. 8,16,32,64")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        n_override = None
        if getattr(args, "n", None) is not None:
            try:
                n_override = [int(v) for v in args.n.split(",")]
            except ValueError:
                raise ConfigError("--n", f"expected integers, got {args.n!r}") from None
            _check_n_list(n_override, "--n")
        return run(args.command, cfg, out_dir=getattr(args, "out", None),
                   n_override=n_override)
    except AdmissibilityError as exc:
        _error_record(exc)
        return 2
    except FluidchainError as exc:
        _error_record(exc)
        return 1
    except MemoryError as exc:
        # an allocation beyond the available memory; numpy raises a private
        # subclass, named here as the builtin
        _error_record(MemoryError(str(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
