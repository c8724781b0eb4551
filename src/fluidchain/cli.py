"""Command-line entry point: JSON configuration, CSV/JSON artifacts, and the
simulate / check / converge / validate workflows.

The config schema is strict: unknown keys anywhere are fatal, and every
diagnostic names the offending field path.  Numeric CSV output uses 17
significant digits with a plain decimal point, so re-running a subcommand on
the same config byte-reproduces its artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks
from .errors import AdmissibilityError, ConfigError, FluidchainError
from .initial import (PROFILE_KEYS, admissibility, build_particles,
                      initial_from_config)
from .integrate import IntegratorConfig, simulate
from .model import PRESET_PARAMS, make_preset


@dataclass(frozen=True)
class SimulationConfig:
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


def _number(block, path, key, default=None, positive=False):
    if key not in block:
        if default is None:
            raise ConfigError(_field(path, key), "missing required number")
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_field(path, key), f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(_field(path, key), f"must be finite, got {value!r}")
    if positive and not value > 0.0:
        raise ConfigError(_field(path, key), f"must be positive, got {value!r}")
    return value


def _number_list(block, path, key):
    """Required list of finite numbers ``block[key]``."""
    if key not in block:
        raise ConfigError(_field(path, key), "missing required key")
    values = block[key]
    if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
            for v in values):
        raise ConfigError(_field(path, key), f"expected a list of finite numbers, got {values!r}")


def _env_number(name, default):
    """Positive number from environment variable ``name``, else ``default``."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return _number({name: float(text)}, "", name, positive=True)
    except ValueError:
        raise ConfigError(name, f"expected a number, got {text!r}") from None


def _integer(block, path, key, default=None, minimum=None):
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(_field(path, key), f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(_field(path, key), f"must be >= {minimum}, got {value}")
    return value


def _parse_model(raw):
    block = raw["model"]
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("model.kind", "missing model kind")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in PRESET_PARAMS:
        raise ConfigError("model.kind", f"unknown kind {kind!r}")
    required, optional = PRESET_PARAMS[kind]
    _check_keys(block, "model", required | {"kind"}, optional)
    params = {k: v for k, v in block.items() if k != "kind"}
    if kind == "custom":
        for side in ("pressure", "viscosity"):
            _check_keys(params[side], f"model.{side}", {"coeff", "exponent"})
            _number(params[side], f"model.{side}", "coeff", positive=True)
            _number(params[side], f"model.{side}", "exponent")
    else:
        for key in params:
            _number(params, "model", key)
    m = _number(raw, "", "m", positive=True)
    length = _number(raw, "", "L", positive=True)
    try:
        return make_preset(kind, params, m=m, length=length)
    except FluidchainError as exc:
        raise ConfigError("model", str(exc)) from exc


def _parse_profile(block, name):
    """Check the profile ``block[name]`` against the keys of its own kind:
    the keys of a ``table`` are lists of numbers, all others numbers."""
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


def _parse_initial(model, raw):
    block = raw["initial"]
    _check_keys(block, "initial", {"rho0", "v0"})
    _parse_profile(block, "rho0")
    _parse_profile(block, "v0")
    try:
        return initial_from_config(model, block)
    except FluidchainError as exc:
        raise ConfigError("initial", str(exc)) from exc


def _parse_integrator(raw):
    block = raw.get("integrator", {})
    _check_keys(block, "integrator", set(),
                {"rel_tol", "abs_tol", "dt_init", "dt_max", "max_steps",
                 "snapshot_dt", "T"})
    default = IntegratorConfig()
    rel_tol = _env_number("FLUIDCHAIN_REL_TOL", _number(
        block, "integrator", "rel_tol", default=default.rel_tol, positive=True))
    abs_tol = _env_number("FLUIDCHAIN_ABS_TOL", _number(
        block, "integrator", "abs_tol", default=default.abs_tol, positive=True))
    dt_init = block.get("dt_init")
    if dt_init is not None:
        dt_init = _number(block, "integrator", "dt_init", positive=True)
    cfg = IntegratorConfig(
        rel_tol=rel_tol, abs_tol=abs_tol, dt_init=dt_init,
        dt_max=_number(block, "integrator", "dt_max", default=default.dt_max, positive=True),
        max_steps=_integer(block, "integrator", "max_steps", default=default.max_steps,
                           minimum=1),
        snapshot_dt=_number(block, "integrator", "snapshot_dt", default=default.snapshot_dt,
                            positive=True))
    horizon = _number(block, "integrator", "T", default=1.0, positive=True)
    return cfg, horizon


def parse_config(path) -> SimulationConfig:
    """Load and strictly validate a JSON configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(str(path), "config file not found")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"malformed JSON: {exc}") from exc
    _check_keys(raw, "", {"model", "m", "L", "initial"},
                {"integrator", "n", "n_list", "grid_size"})
    model = _parse_model(raw)
    init = _parse_initial(model, raw)
    integ, horizon = _parse_integrator(raw)
    n = _integer(raw, "", "n", default=None, minimum=2)
    n_list = raw.get("n_list")
    if n_list is not None:
        _check_n_list(n_list, "n_list")
    grid_size = _integer(raw, "", "grid_size", default=512, minimum=2)
    return SimulationConfig(model=model, initial=init, integrator=integ,
                            horizon=horizon, n=n, n_list=n_list,
                            grid_size=grid_size)


def _check_n_list(n_list, field):
    """Particle counts for a refinement study: integers >= 2, ascending."""
    if (not isinstance(n_list, list) or not n_list
            or any(isinstance(v, bool) or not isinstance(v, int) for v in n_list)):
        raise ConfigError(field, "must be a non-empty list of integers")
    if any(v < 2 for v in n_list):
        raise ConfigError(field, "entries must be >= 2")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError(field, "entries must be strictly ascending")


# -- artifact writers --------------------------------------------------------------

# every finite float in a CSV; infinities are written as "infinite"
_FLOAT = "%.17g"


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


def _write_simulation_artifacts(model, series, out_dir, grid_size):
    out = Path(out_dir)
    # one uniform grid of grid_size points, the same for every snapshot
    grid = np.linspace(0.0, model.length, grid_size)
    particle_rows = [f",{i},{_FLOAT},{_FLOAT},{_FLOAT}\n"
                     for i in range(series.states[0].n + 1)]
    field_rows = [f",{_fmt(x)},{_FLOAT},{_FLOAT}\n" for x in grid.tolist()]
    with (open(out / "particles.csv", "w", newline="\n") as particles,
          open(out / "fields.csv", "w", newline="\n") as sampled):
        particles.write("t,i,x_i,v_i,rho_i\n")
        sampled.write("t,x,rho,v\n")
        for t, field in zip(series.times, series.reconstructed):
            t_text = _fmt(t)
            # the nodes reversed: i = 0 is the ghost end, x = L
            _write_snapshot(particles, t_text, particle_rows,
                            field.asc_x[::-1], field.asc_v[::-1], field.asc_rho[::-1])
            _write_snapshot(sampled, t_text, field_rows, field.rho(grid), field.v(grid))
    _write_csv(out / "diagnostics.csv",
               ("t", "E_n", "W_n", "Z_n", "H_n", "mass", "min_spacing", "max_spacing"),
               [(t, d.e_n, d.w_n, d.z_n, d.h_n, d.mass, d.spacing_min, d.spacing_max)
                for t, d in zip(series.times, series.diagnostics)])


def _make_out(out_dir):
    """Create the output directory before any work; a path that cannot be
    one (an existing file, a path under a file) is a ConfigError on --out."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot create directory {str(out)!r}: "
                          f"{exc.strerror or exc}") from None
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
    admissible initial data.  Returns the directory and the admissibility
    report."""
    if not checks.uniform_cadence(cfg.horizon, cfg.integrator.snapshot_dt):
        raise ConfigError("integrator.T", f"T={cfg.horizon:g} is not a multiple of "
                          f"snapshot_dt={cfg.integrator.snapshot_dt:g}")
    out = _make_out(out_dir)
    report = admissibility(cfg.model, cfg.initial)
    if not report.admissible:
        raise AdmissibilityError(
            f"initial data inadmissible: budget {report.lhs:g} >= envelope "
            f"limit {min(report.f_limit_high, report.f_limit_low):g}")
    return out, report


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
                       "self_dist_v", "holder_rho", "holder_v"):
            value = getattr(row, metric)
            if value is not None:
                long_rows.append((row.n, metric, value, None))
    _write_csv(out / "convergence.csv", ("n", "metric", "value", "error_estimate"),
               long_rows)
    lines = ["refinement study", ""]
    for row in rows:
        if row.error is not None:
            lines.append(f"n={row.n}: FAILED ({row.error})")
        else:
            dist = ("" if row.self_dist_rho is None else
                    f", |rho_2n-rho_n|={row.self_dist_rho:.6e}, "
                    f"|v_2n-v_n|={row.self_dist_v:.6e}")
            lines.append(f"n={row.n}: mass_err={row.mass_error:.6e}, "
                         f"max_residual={row.residual_max:.6e}{dist}")
    (out / "convergence.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_validate(cfg, out_dir):
    if cfg.n is None:
        raise ConfigError("n", "validate requires a particle count")
    out, report = _prepare_study(cfg, out_dir)
    w_bar = report.w_bar
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
    _write_csv(out / "residuals.csv", ("n", "metric", "value", "error_estimate"), rows)

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
    (out / "validate.txt").write_text("\n".join(lines) + "\n")
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


if __name__ == "__main__":
    sys.exit(main())
