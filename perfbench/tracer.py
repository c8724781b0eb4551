"""Outside-in tracer for the fluidchain benchmark.

The tracer wraps the package's public functions from the outside: it patches
every binding a fluidchain module holds to a traced function (the definition
and each consumer's ``from .x import f`` copy alike) and the traced methods
on ``FluidModel``.  Nothing under ``src/`` is changed.

A span records name, start, end and the index of its parent span.  Spans are
kept in memory and written once when the child finishes; a span's self time
is its duration minus the durations of its child spans.  Counters that need
no timing (integrator attempts, ``FluidModel._quad`` failures) are recorded at
the same boundaries without a span.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# Module functions to trace, as (span name, defining module, attribute).
SPANNED_FUNCTIONS = (
    ("cli.parse_config", "fluidchain.cli", "parse_config"),
    ("cli.run", "fluidchain.cli", "run"),
    ("initial.admissibility", "fluidchain.initial", "admissibility"),
    ("initial.build_particles", "fluidchain.initial", "build_particles"),
    ("integrate.simulate", "fluidchain.integrate", "simulate"),
    ("dynamics.rhs_arrays", "fluidchain.dynamics", "rhs_arrays"),
    ("dynamics.functionals", "fluidchain.dynamics", "functionals"),
    ("fields.reconstruct", "fluidchain.fields", "reconstruct"),
    ("fields.continuous_energy", "fluidchain.fields", "continuous_energy"),
    ("fields.continuous_energy_mod", "fluidchain.fields", "continuous_energy_mod"),
    ("checks.continuity_residual", "fluidchain.checks", "continuity_residual"),
    ("checks.momentum_residual", "fluidchain.checks", "momentum_residual"),
    ("checks.decay_report", "fluidchain.checks", "decay_report"),
    ("checks.envelope_check", "fluidchain.checks", "envelope_check"),
    # scipy's quad as bound inside the model module
    ("model.quad", "fluidchain.model", "quad"),
)
# FluidModel methods to trace, patched on the class.
SPANNED_METHODS = (
    ("model.energy_envelope", "energy_envelope"),
    ("model.energy_envelope_inverse", "energy_envelope_inverse"),
    ("model.energy_envelope_limits", "energy_envelope_limits"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.calls = {}
        self.raised = {}         # "name:ExceptionType" -> count
        self.accepted = 0
        self.rejected = 0
        self.dt_min = math.inf
        self.missing = []

    # -- wrappers -------------------------------------------------------------

    def _count(self, name, exc):
        key = f"{name}:{type(exc).__name__}"
        self.raised[key] = self.raised.get(key, 0) + 1

    def spanned(self, name, fn):
        spans, stack, clock, calls = self.spans, self._stack, time.perf_counter, self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._count(name, exc)
                raise
            finally:
                record[2] = clock()
                stack.pop()
        return traced

    def counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._count(name, exc)
                raise
        return traced

    def attempts(self, _name, fn):
        """Counts integrator trial steps from the (accepted, ...) tuple each
        returns; the step size is the fourth argument."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out[0]:
                self.accepted += 1
                dt = args[3] if len(args) > 3 else kwargs["dt"]
                self.dt_min = min(self.dt_min, dt)
            else:
                self.rejected += 1
            return out
        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch every fluidchain binding of each traced function, and the
        traced methods on the FluidModel class; names not found are listed
        in ``missing``."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fluidchain" or name.startswith("fluidchain."))]
        targets = [(span, mod, attr, self.spanned) for span, mod, attr in SPANNED_FUNCTIONS]
        targets.append(("integrate._attempt", "fluidchain.integrate", "_attempt", self.attempts))
        for span, mod, attr, make in targets:
            original = getattr(sys.modules.get(mod), attr, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = make(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        model_cls = getattr(sys.modules.get("fluidchain.model"), "FluidModel", None)
        methods = [(span, attr, self.spanned) for span, attr in SPANNED_METHODS]
        methods.append(("model._quad", "_quad", self.counted))
        for span, attr, make in methods:
            original = getattr(model_cls, attr, None)
            if original is None:
                self.missing.append(span)
                continue
            setattr(model_cls, attr, make(span, original))

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Step counters so far, to attribute integrator steps to operations."""
        return {"accepted": self.accepted, "rejected": self.rejected}

    def summary(self):
        """Per-name totals: calls, inclusive seconds and self seconds."""
        total, child = {}, {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
        return {
            "calls": dict(self.calls),
            "raised": dict(self.raised),
            "total_s": total,
            "self_s": {k: total[k] - child.get(k, 0.0) for k in total},
            "accepted": self.accepted,
            "rejected": self.rejected,
            "dt_min": self.dt_min if math.isfinite(self.dt_min) else None,
            "missing": self.missing,
        }

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], a, b, p] for n, a, b, p in self.spans]}, fh)


# -- per-layer metrics ----------------------------------------------------------

# name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "dynamics.rhs_calls": "count",
    "dynamics.rhs_us": "us",
    "dynamics.rhs_domain_exits": "count",
    "integrate.steps_accepted": "count",
    "integrate.steps_rejected": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.rhs_per_step": "ratio",
    "integrate.us_per_step": "us",
    "integrate.self_s": "s",
    "integrate.dt_min": "s",
    "model.quad_calls": "count",
    "model.quad_self_s": "s",
    "model.quad_failures": "count",
    "model.envelope_calls": "count",
    "model.envelope_us": "us",
    "model.envelope_inverse_ms": "ms",
    "model.envelope_limits_ms": "ms",
    "model.quad_per_envelope": "ratio",
    "initial.admissibility_s": "s",
    "checks.envelope_check_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "fields.reconstruct_calls": "count",
    "fields.reconstruct_us": "us",
    "fields.energy_calls": "count",
    "fields.energy_us": "us",
    "dynamics.functionals_calls": "count",
    "dynamics.functionals_us": "us",
    "checks.residual_calls": "count",
    "checks.residual_ms": "ms",
    "checks.decay_report_ms": "ms",
    "cli.parse_config_ms": "ms",
    "initial.build_particles_ms": "ms",
    "trace.overhead_s": "s",
    "probe.known_defect_failures": "count",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, bytes_written):
    """Derive the named per-layer metrics from one traced child's summary.

    ``*_us`` and ``*_ms`` are means per call; ``*_s`` are totals over the
    child's operations.
    """
    calls = summary["calls"]
    total = summary["total_s"]
    self_s = summary["self_s"]
    raised = summary["raised"]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def mean(scale, *names):
        return _ratio(sum(t(x) for x in names) * scale, sum(n(x) for x in names))

    attempts = summary["accepted"] + summary["rejected"]
    energy = ("fields.continuous_energy", "fields.continuous_energy_mod")
    residual = ("checks.continuity_residual", "checks.momentum_residual")
    cli_self = self_s.get("cli.run", 0.0)
    return {
        "dynamics.rhs_calls": n("dynamics.rhs_arrays"),
        "dynamics.rhs_us": mean(1e6, "dynamics.rhs_arrays"),
        "dynamics.rhs_domain_exits": raised.get("dynamics.rhs_arrays:DomainError", 0),
        "integrate.steps_accepted": summary["accepted"],
        "integrate.steps_rejected": summary["rejected"],
        "integrate.accept_ratio": _ratio(summary["accepted"], attempts),
        "integrate.rhs_per_step": _ratio(n("dynamics.rhs_arrays"), attempts),
        "integrate.us_per_step": _ratio(t("integrate.simulate") * 1e6, attempts),
        "integrate.self_s": self_s.get("integrate.simulate", 0.0),
        "integrate.dt_min": summary["dt_min"] or 0.0,
        "model.quad_calls": n("model.quad"),
        "model.quad_self_s": self_s.get("model.quad", 0.0),
        "model.quad_failures": raised.get("model._quad:QuadratureError", 0),
        "model.envelope_calls": n("model.energy_envelope"),
        "model.envelope_us": mean(1e6, "model.energy_envelope"),
        "model.envelope_inverse_ms": mean(1e3, "model.energy_envelope_inverse"),
        "model.envelope_limits_ms": mean(1e3, "model.energy_envelope_limits"),
        "model.quad_per_envelope": _ratio(n("model.quad"), n("model.energy_envelope")),
        "initial.admissibility_s": t("initial.admissibility"),
        "checks.envelope_check_s": t("checks.envelope_check"),
        "cli.self_s": cli_self,
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": _ratio(bytes_written / 1e6, cli_self),
        "fields.reconstruct_calls": n("fields.reconstruct"),
        "fields.reconstruct_us": mean(1e6, "fields.reconstruct"),
        "fields.energy_calls": sum(n(x) for x in energy),
        "fields.energy_us": mean(1e6, *energy),
        "dynamics.functionals_calls": n("dynamics.functionals"),
        "dynamics.functionals_us": mean(1e6, "dynamics.functionals"),
        "checks.residual_calls": sum(n(x) for x in residual),
        "checks.residual_ms": mean(1e3, *residual),
        "checks.decay_report_ms": mean(1e3, "checks.decay_report"),
        "cli.parse_config_ms": mean(1e3, "cli.parse_config"),
        "initial.build_particles_ms": mean(1e3, "initial.build_particles"),
    }


# Metrics that count work; each must repeat exactly across runs of one seed.
EXACT_COUNTS = tuple(k for k, unit in PER_LAYER_UNITS.items()
                     if unit in ("count", "bytes"))
