"""fluidchain benchmark: end-to-end metrics per workload, and per-layer
metrics from a separate traced run.

Run from the root of a fluidchain checkout:

    python3 perfbench/run.py --workload stiff_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload run is one fresh child process (``child.py``) that imports the
package from the checkout's ``src/`` and executes the workload's operations
through ``fluidchain.cli.main`` in order: a closed loop with one client.
Children run in series until ``--seconds`` is used up, with at least
``MIN_CHILDREN`` of them.  Before them an untimed child runs ``check`` on
every config a ``simulate`` uses (the spacing bounds the output checks need)
and, on quadrature_model, the known-defect probe.

The speed of the shared 2-core machine the benchmark was tuned on drifts by
up to 30% within minutes, and single children scatter by about 15%.  So a
calibration child (``calib.py``, which uses nothing from fluidchain) runs
before the first workload child and after each one, and ``wall_s`` (spawn
to exit of a workload child) and ``setup_s`` (spawn until the first
operation is ready: interpreter start, imports, the first ``parse_config``)
are trimmed means over the run's children in reference seconds: scaled by
``CALIBRATION_REF_S`` over the trimmed mean of the calibrations.  Means
rather than medians: with ten-odd children whose scatter is bounded, the
mean spreads less from run to run.  ``peak_rss_mb`` (from ``wait4``) and
``residual_max`` (the largest |weak-form residual| in the validate output)
are medians over the children.  Per-child raw values are printed too.

With ``--trace 1`` the run makes two untraced and two traced children in
turn and prints the per-layer metrics (``tracer.py``); the spans of the first
traced child are kept in ``.perfbench/spans-<workload>.json``.  Its
self-test checks that the step counts the tracer sees match simulate's own
stats line, that every count repeats exactly across the two traced
children, and that the closed-form workloads make no quadrature call.

Every operation's outputs are checked (see ``outputs.py``), and artifacts
must be byte-identical across the children of one run.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a results file with the environment record goes
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import outputs  # noqa: E402
import tracer  # noqa: E402

MIN_CHILDREN = 3
# numpy links OpenBLAS; the children are single-threaded, well under nproc
BLAS_THREADS = 1
# The calibration child's duration that defines a reference second: about
# its median on the 2-core Xeon VM the benchmark was tuned on.
CALIBRATION_REF_S = 0.8
RUN_LIMIT_S = 170.0          # cap on one invocation, children included
WORK_DIR = ".perfbench"      # under the checkout root
# A shipped config whose `validate` exits 1 with a QuadratureError near the
# reference density (a known defect).  It runs untimed, once per
# quadrature_model run, and is reported by name and as
# probe.known_defect_failures, but kept out of attempted/failed: a timed
# operation that dies halfway would make its fix read as a slowdown, and the
# workloads are ones on which no operation fails.
PROBE_CONFIG = Path("configs") / "ideal_gas.json"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "residual_max": "1"}


class BenchError(Exception):
    """The benchmark cannot go on (time limit, crashed preparation child)."""


# -- environment ---------------------------------------------------------------

def child_env(src):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FLUIDCHAIN_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": _git_commit(root),
            "blas_threads": BLAS_THREADS}


# -- children ------------------------------------------------------------------

@dataclass
class Child:
    """One finished child process and what it reported."""

    label: str
    wall: float              # spawn to exit, seconds
    rss_mb: float            # peak resident set size from wait4
    status: int
    result: dict | None      # child.py's result file, plus "setup" seconds
    log: str


def spawn(ctx, label, ops, trace=False):
    """Run one child to completion; ``ops`` are (subcommand, stem) pairs.

    Paths in the plan are relative to the child's directory, so stdout is
    the same in every child and can be compared byte for byte.
    """
    cwd = ctx["work"] / label
    cwd.mkdir()
    plan = {
        "package": str(ctx["src"] / "fluidchain"),
        "setup_config": f"../configs/{ctx['ops'][0][1]}.json",
        "trace": trace,
        "spans": "spans.json",
        "ops": [{"dir": f"op{i}",
                 "argv": [sub, "--config", f"../configs/{stem}.json"]
                 + ([] if sub == "check" else ["--out", f"op{i}/out"])}
                for i, (sub, stem) in enumerate(ops)],
    }
    (cwd / "plan.json").write_text(json.dumps(plan))
    start, wall, status, usage = _run(ctx, [HERE / "child.py", "plan.json", "result.json"], cwd)
    result = None
    if status == 0 and (cwd / "result.json").is_file():
        result = json.loads((cwd / "result.json").read_text())
        result["setup"] = result["ready"] - start
    return Child(label, wall, usage.ru_maxrss / 1024.0, status, result,
                 (cwd / "child.log").read_text().strip())


def _run(ctx, args, cwd):
    """Run ``python3 *args`` in ``cwd`` under the run's time limit, output to
    ``child.log``.  Returns (start, wall seconds, exit status, rusage)."""
    timeout = ctx["deadline"] - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time limit of {RUN_LIMIT_S:g} s reached in {cwd.name}")
    with open(cwd / "child.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=cwd, env=ctx["env"],
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, proc.returncode, usage


def calibrate(ctx):
    """Wall seconds of one calibration child."""
    cwd = ctx["work"] / "calibration"
    cwd.mkdir(exist_ok=True)
    _, wall, status, _ = _run(ctx, [HERE / "calib.py"], cwd)
    if status != 0:
        raise BenchError(f"calibration child exited {status}:\n{(cwd / 'child.log').read_text()}")
    return wall


class Tally:
    """Attempted and failed operations, problems found, and the residuals."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}          # op index -> artifacts of the first child
        self.residuals = []      # worst residual per child

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def child(self, child):
        """Check every operation of a workload child."""
        ops = self.ctx["ops"]
        if child.result is None:
            for sub, stem in ops:
                self.add(f"{child.label} {sub} {stem}", [f"child exited {child.status}"])
            self.problems.append(f"{child.label} log:\n{child.log}")
            return
        worst = None
        for i, ((sub, stem), rec) in enumerate(zip(ops, child.result["ops"])):
            op_dir = self.ctx["work"] / child.label / f"op{i}"
            problems, residual = outputs.check_op(sub, op_dir, rec["status"],
                                                  self.ctx["bounds"].get(stem))
            if not problems:
                digest = outputs.artifacts(op_dir)
                if self.first.setdefault(i, digest) != digest:
                    problems.append("artifacts differ from the first run of this seed")
            if residual is not None:
                worst = residual if worst is None else max(worst, residual)
            self.add(f"{child.label} op{i} {sub} {stem}", problems)
        if worst is not None:
            self.residuals.append(worst)


# -- one workload run ----------------------------------------------------------

def prepare(ctx, tally):
    """Untimed child: `check` every config a `simulate` uses (for the
    spacing bounds) and, on quadrature_model, the known-defect probe.
    Returns the known defects seen."""
    stems = sorted({stem for sub, stem in ctx["ops"] if sub == "simulate"})
    ops = [("check", stem) for stem in stems]
    probe = ctx["workload"] == "quadrature_model"
    if probe:
        shutil.copy(ctx["root"] / PROBE_CONFIG, ctx["work"] / "configs" / "shipped_ideal_gas.json")
        ops.append(("validate", "shipped_ideal_gas"))
    child = spawn(ctx, "prepare", ops)
    if child.result is None:
        raise BenchError(f"preparation child exited {child.status}:\n{child.log}")
    for i, stem in enumerate(stems):
        op_dir = ctx["work"] / "prepare" / f"op{i}"
        problems, _ = outputs.check_op("check", op_dir, child.result["ops"][i]["status"])
        tally.add(f"prepare check {stem}", problems)
        if not problems:
            report = json.loads((op_dir / "stdout.txt").read_text())
            ctx["bounds"][stem] = (report["a"], report["b"])
    known = []
    if probe and child.result["ops"][-1]["status"] != 0:
        op_dir = ctx["work"] / "prepare" / f"op{len(stems)}"
        err = (op_dir / "stderr.txt").read_text().strip()
        known.append(f"validate {PROBE_CONFIG} exited {child.result['ops'][-1]['status']} "
                     f"(expected 0): {err}")
    return known


def run_untraced(ctx, tally, seconds):
    """Workload children until ``seconds`` is used up, each between two
    calibration children.  Returns (end-to-end metrics, per-child samples)."""
    start = time.monotonic()
    cals = [calibrate(ctx)]
    children = []
    while True:
        child = spawn(ctx, f"timed{len(children)}", ctx["ops"])
        tally.child(child)
        shutil.rmtree(ctx["work"] / child.label, ignore_errors=True)
        if child.result is None:
            break
        children.append(child)
        cals.append(calibrate(ctx))
        pair = statistics.median(c.wall for c in children) + statistics.median(cals)
        if len(children) >= MIN_CHILDREN and time.monotonic() - start + pair > seconds:
            break
        if time.monotonic() + 2 * pair > ctx["deadline"]:
            break
    samples = {"wall_s": [c.wall for c in children],
               "setup_s": [c.result["setup"] for c in children],
               "calibration_s": cals,
               "peak_rss_mb": [c.rss_mb for c in children],
               "residual_max": tally.residuals}
    metrics = {}
    if children:
        # reference seconds per measured second over the whole run
        speed = CALIBRATION_REF_S / trimmed_mean(cals)
        metrics["wall_s"] = trimmed_mean(samples["wall_s"]) * speed
        metrics["setup_s"] = trimmed_mean(samples["setup_s"]) * speed
        metrics["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    if tally.residuals:
        metrics["residual_max"] = statistics.median(tally.residuals)
    return metrics, samples


def trimmed_mean(values):
    """Mean without the largest and the smallest value (from five values
    on), so one stalled or lucky child does not move the result."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 5 else values)


def _written(ctx, label):
    """Bytes of the artifacts a child's operations wrote (stdout excluded)."""
    return sum(size for i in range(len(ctx["ops"]))
               for name, (size, _) in outputs.artifacts(ctx["work"] / label / f"op{i}").items()
               if name != "stdout.txt")


def run_traced(ctx, tally):
    """Untraced and traced children in turn, two of each: the traced ones
    give the metrics and the repeat check, the difference of the medians the
    tracing overhead.  Returns (metrics, self-test problems)."""
    plain, traced = [], []
    for k in range(2):
        plain.append(spawn(ctx, f"untraced{k}", ctx["ops"]))
        tally.child(plain[-1])
        child = spawn(ctx, f"traced{k}", ctx["ops"], trace=True)
        tally.child(child)
        if child.result is None:
            return {}, [f"{child.label}: traced child exited {child.status}"]
        traced.append((child, tracer.layer_metrics(child.result["trace"],
                                                   _written(ctx, child.label))))
    shutil.copy(ctx["work"] / "traced0" / "spans.json",
                ctx["root"] / WORK_DIR / f"spans-{ctx['workload']}.json")

    problems = []
    for name in traced[0][0].result["trace"]["missing"]:
        print(f"  trace: {name} not found in the package; its metrics read 0")
    for child, _ in traced:
        for i, ((sub, _), rec) in enumerate(zip(ctx["ops"], child.result["ops"])):
            if sub != "simulate":
                continue
            stdout = (ctx["work"] / child.label / f"op{i}" / "stdout.txt").read_text()
            printed = outputs.stats_line(stdout)
            seen = (rec["after"]["accepted"] - rec["before"]["accepted"],
                    rec["after"]["rejected"] - rec["before"]["rejected"])
            if printed != seen:
                problems.append(f"{child.label} op{i}: simulate prints accepted/rejected "
                                f"{printed}, the tracer counted {seen}")
    (child_a, first), (child_b, second) = traced
    for name in tracer.EXACT_COUNTS:
        if name in first and first[name] != second[name]:
            problems.append(f"{name} differs between two runs of one seed: "
                            f"{first[name]} vs {second[name]}")
    if child_a.result["trace"]["calls"] != child_b.result["trace"]["calls"]:
        problems.append("per-function call counts differ between two runs of one seed")
    if ctx["quad_free"] and first["model.quad_calls"] != 0:
        problems.append(f"model.quad_calls is {first['model.quad_calls']} on a "
                        "closed-form workload, expected 0")

    metrics = {name: first[name] if name in tracer.EXACT_COUNTS
               else statistics.median([first[name], second[name]]) for name in first}
    metrics["trace.overhead_s"] = (statistics.median([child_a.wall, child_b.wall])
                                   - statistics.median(c.wall for c in plain))
    return metrics, problems


def run_workload(root, workload, seed, seconds, trace):
    spec = gen.WORKLOADS[workload]
    started = time.monotonic()
    work = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    gen.write_configs(workload, seed, work / "configs")
    ctx = {"root": root, "src": root / "src", "work": work, "workload": workload,
           "ops": spec["ops"], "quad_free": spec["quad_free"], "bounds": {},
           "env": child_env(root / "src"), "deadline": started + RUN_LIMIT_S}
    tally = Tally(ctx)
    metrics, samples, selftest = {}, {}, []
    try:
        known = prepare(ctx, tally)
        if trace:
            metrics, selftest = run_traced(ctx, tally)
            metrics["probe.known_defect_failures"] = len(known)
        else:
            metrics, samples = run_untraced(ctx, tally, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "elapsed_s": time.monotonic() - started,
        "metrics": metrics, "samples": samples, "selftest": selftest,
        "known_defects": known, "attempted": tally.attempted,
        "failed": tally.failed, "problems": tally.problems,
    }


# -- reporting -----------------------------------------------------------------

def _spread(values, unit):
    """median, quartiles and sample count of per-child values"""
    if len(values) < 2:
        return f"{values[0]:.6g} {unit} (n=1)"
    q = statistics.quantiles(values, n=4)
    return (f"median {statistics.median(values):.6g} {unit} "
            f"(q1 {q[0]:.6g}, q3 {q[2]:.6g}, n={len(values)})")


def report(run):
    """Print one run's lines; returns (contract metrics, all present)."""
    ops = ", ".join(f"{sub} {stem}" for sub, stem in gen.WORKLOADS[run["workload"]]["ops"])
    print(f"workload {run['workload']} seed {run['seed']} trace {run['trace']}: "
          f"[{ops}] in {run['elapsed_s']:.1f} s")
    expected = tracer.PER_LAYER_UNITS if run["trace"] else END_TO_END_UNITS
    metrics = {name: {"value": run["metrics"][name], "unit": unit}
               for name, unit in expected.items() if name in run["metrics"]}
    if run["trace"]:
        for name, metric in metrics.items():
            print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
        for problem in run["selftest"]:
            print(f"  trace self-test FAILED: {problem}")
        if not run["selftest"]:
            print("  trace self-test passed")
    else:
        samples = run["samples"]
        print(f"  {len(samples['wall_s'])} workload children in series (closed loop, one "
              f"client), {len(samples['calibration_s'])} calibration children around them")
        for name, metric in metrics.items():
            print(f"  {name:<13} {metric['value']:.6g} {metric['unit']}")
        print(f"  wall_s and setup_s are trimmed means over the children, in reference "
              f"seconds (calibration child = {CALIBRATION_REF_S:g} s); per child, raw:")
        for name in ("wall_s", "setup_s", "calibration_s", "peak_rss_mb"):
            if samples[name]:
                print(f"    {name:<13} " + _spread(samples[name], "MB" if name == "peak_rss_mb" else "s"))
    rate = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    print(f"  {'fail_rate':<13} {rate:.6g} ratio ({run['failed']} of {run['attempted']} operations)")
    for defect in run["known_defects"]:
        print(f"  known defect (untimed probe, not in fail_rate): {defect}")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    return metrics, set(metrics) == set(expected)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fluidchain" / "__init__.py").is_file():
        print("perfbench: run from the root of a fluidchain checkout "
              "(src/fluidchain not found)", file=sys.stderr)
        return 2
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    if "quadrature_model" in workloads and not (root / PROBE_CONFIG).is_file():
        print(f"perfbench: {PROBE_CONFIG} not found", file=sys.stderr)
        return 2

    env = environment(root)
    print("environment: " + json.dumps(env, sort_keys=True))
    results, metrics = [], {}
    try:
        for workload in workloads:
            run = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            found, complete = report(run)
            run["correct"] = complete and not run["problems"] and not run["selftest"]
            results.append({**run, "environment": env})
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update({prefix + name: value for name, value in found.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    (root / WORK_DIR / f"results-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
