"""Byte-identity sweep: run the fluidchain CLI from two source trees on the
same configs and report every difference in exit status, stdout, stderr or
output files.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  The
configs are the shipped ``configs/*.json`` and every config the benchmark's
generator (``perfbench/gen.py``) writes at seeds 301 and 302, which include
its fixed-seed ``-reference`` configs.  Every config runs ``check``,
``simulate`` and ``validate``, and saint_venant_perturbed also runs
``converge --n 8,16``.  Both trees run the same relative paths, so output
that names a path reads the same on both sides.  Prints every difference and
exits 1 on any, 0 when everything is identical.  Where two outputs differ only
in their numbers, it also prints the worst relative difference over values of
magnitude at least ``FLOOR`` and the largest absolute difference between
smaller values: per column for a CSV, and over the whole text otherwise.  A
rounding-sized value next to an exact 0 thus reads as its size, not as a
relative difference of 1.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

SEEDS = (301, 302)
SUBCOMMANDS = ("check", "simulate", "validate")
CONVERGE = ("saint_venant_perturbed", "8,16")
RUN_TIMEOUT_S = 900
# values smaller than this in magnitude are compared absolutely
FLOOR = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def write_configs(directory):
    """Write every config of the sweep into ``directory``; returns the stems."""
    directory.mkdir(parents=True)
    for path in (ROOT / "configs").glob("*.json"):
        (directory / path.name).write_bytes(path.read_bytes())
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                gen.write_configs(workload, seed, Path(tmp))
                for path in Path(tmp).glob("*.json"):
                    seeded = not path.stem.endswith(f"-{gen.REFERENCE_SEED}")
                    name = f"{path.stem}-{seed}.json" if seeded else path.name
                    (directory / name).write_bytes(path.read_bytes())
    return sorted(path.stem for path in directory.glob("*.json"))


def sweep(stems):
    """(run name, CLI arguments) of every run, outputs under out/<name>."""
    runs = []
    for stem in stems:
        for sub in SUBCOMMANDS:
            argv = [sub, "--config", f"configs/{stem}.json"]
            if sub != "check":
                argv += ["--out", f"out/{stem}-{sub}"]
            runs.append((f"{stem}-{sub}", argv))
    stem, n_list = CONVERGE
    runs.append((f"{stem}-converge", ["converge", "--config", f"configs/{stem}.json",
                                      "--out", f"out/{stem}-converge", "--n", n_list]))
    return runs


def run_cli(src, cwd, argv):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "fluidchain.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def first_difference(a, b):
    """Where two byte strings first differ, by line."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {k}: {x[:120]!r} vs {y[:120]!r}"
    return f"{len(lines_a)} vs {len(lines_b)} lines"


def worst_differences(pairs):
    """(worst relative, worst absolute) difference, each by key, over (key,
    text_a, text_b) pairs whose texts differ only in their numbers; a pair of
    numbers counts as relative when either is at least ``FLOOR`` in magnitude,
    else as absolute.  None if any text differs otherwise."""
    relative, absolute = {}, {}
    for key, x, y in pairs:
        parts_x, parts_y = NUMBER.split(x), NUMBER.split(y)
        if len(parts_x) != len(parts_y) or parts_x[::2] != parts_y[::2]:
            return None
        for u, v in zip(map(float, parts_x[1::2]), map(float, parts_y[1::2])):
            if u == v:
                continue
            size = max(abs(u), abs(v))
            if size >= FLOOR:
                relative[key] = max(relative.get(key, 0.0), abs(u - v) / size)
            else:
                absolute[key] = max(absolute.get(key, 0.0), abs(u - v))
    return relative, absolute


def number_differences(a, b, csv):
    """How two differing outputs differ in their numbers, as printable text:
    the worst relative and absolute differences (see ``worst_differences``)
    per column of a CSV (by its header), or over every number of other text."""
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    worst = None
    if len(lines_a) == len(lines_b) and not csv:
        worst = worst_differences(("numbers", x, y) for x, y in zip(lines_a, lines_b))
    elif len(lines_a) == len(lines_b) and lines_a[:1] == lines_b[:1]:
        header = lines_a[0].split(",")
        rows = [(x.split(","), y.split(",")) for x, y in zip(lines_a[1:], lines_b[1:])]
        if all(len(x) == len(y) == len(header) for x, y in rows):
            worst = worst_differences(cell for x, y in rows for cell in zip(header, x, y))
    if worst is None:
        return "differs in more than its numbers"
    relative, absolute = (", ".join(f"{key} {value:.2g}" for key, value in side.items())
                          or "none" for side in worst)
    return (f"worst relative difference {relative}; "
            f"largest absolute difference below {FLOOR:g}: {absolute}")


def output_files(directory):
    if not directory.is_dir():
        return {}
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def compare(name, result_a, result_b, out_a, out_b):
    """Every difference of one run, as printable lines; and the file count."""
    diffs = []
    if result_a[0] != result_b[0]:
        diffs.append(f"{name}: exit status {result_a[0]} vs {result_b[0]}")
    for label, a, b in (("stdout", result_a[1], result_b[1]),
                        ("stderr", result_a[2], result_b[2])):
        if a != b:
            diffs.append(f"{name}: {label} differs at {first_difference(a, b)}\n"
                         f"  {number_differences(a, b, csv=False)}")
    files_a, files_b = output_files(out_a), output_files(out_b)
    for path in sorted(files_a.keys() | files_b.keys()):
        if path not in files_b:
            diffs.append(f"{name}: {path} only in the parent's output")
        elif path not in files_a:
            diffs.append(f"{name}: {path} only in the change's output")
        elif files_a[path] != files_b[path]:
            diffs.append(f"{name}: {path} differs at "
                         f"{first_difference(files_a[path], files_b[path])}\n  "
                         + number_differences(files_a[path], files_b[path],
                                              csv=path.endswith(".csv")))
    return diffs, len(files_a.keys() | files_b.keys())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    args = parser.parse_args(argv)
    sources = (args.parent_src.resolve(), args.change_src.resolve())
    for src in sources:
        if not (src / "fluidchain" / "cli.py").is_file():
            parser.error(f"{src} holds no fluidchain package")

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        sides = (Path(tmp) / "parent", Path(tmp) / "change")
        for side in sides:
            stems = write_configs(side / "configs")
        runs = sweep(stems)
        print(f"{len(runs)} runs on {len(stems)} configs")
        differences, files = [], 0
        # the two sides of one run at a time, one process each
        with ThreadPoolExecutor(max_workers=2) as pool:
            for name, cli_args in runs:
                futures = [pool.submit(run_cli, src, side, cli_args)
                           for src, side in zip(sources, sides)]
                results = [f.result() for f in futures]
                diffs, count = compare(name, *results,
                                       *(side / "out" / name for side in sides))
                files += count
                status = "DIFFERS" if diffs else "identical"
                print(f"{name}: exit {results[0][0]}, {count} files, {status}", flush=True)
                differences += diffs

    for line in differences:
        print(line)
    print(f"{len(runs)} runs, {files} output files compared: "
          + (f"{len(differences)} differences" if differences else "all identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
