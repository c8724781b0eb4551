"""Checks on the artifacts of one fluidchain CLI operation.

An operation is correct when it exits 0 and:

* ``check``: the report rates the generated data admissible;
* ``simulate``: stdout carries the ``accepted N, rejected M`` line,
  ``E_n`` and ``W_n`` in ``diagnostics.csv`` are nonincreasing within the
  program's own slack ``1e-8 * max(1, initial)``, and every recorded spacing
  lies inside the ``[a, b]`` that ``check`` reports for the same config;
* ``validate``: ``validate.txt`` reports ``discrete decay ok: True`` and
  ``spacing containment ok: True``, and ``residuals.csv`` has residual rows.

The reconstructed mass is not compared with ``m``: it differs at O(1/n) by
design.  Byte-identity of artifacts across runs is checked by the caller
with :func:`artifacts`.
"""

from __future__ import annotations

import hashlib
import json


def artifacts(op_dir):
    """{relative path: [size, sha256]} of an operation's stdout and files."""
    files = [op_dir / "stdout.txt"]
    out = op_dir / "out"
    if out.is_dir():
        files += sorted(p for p in out.rglob("*") if p.is_file())
    digest = {}
    for path in files:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digest[str(path.relative_to(op_dir))] = [path.stat().st_size, h.hexdigest()]
    return digest


def stats_line(stdout):
    """(accepted, rejected) from simulate's summary line, or None."""
    for line in stdout.splitlines():
        if line.startswith("simulate:") and "(accepted " in line:
            accepted, rejected = line.rsplit("(accepted ", 1)[1].rstrip(")").split(", rejected ")
            return int(accepted), int(rejected)
    return None


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _check_simulate(stdout, out, bounds):
    problems = []
    if stats_line(stdout) is None:
        problems.append("no 'accepted N, rejected M' line on stdout")
    header, rows = _rows(out / "diagnostics.csv")
    col = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    for name in ("E_n", "W_n"):
        values = col[name]
        slack = 1e-8 * max(1.0, values[0])
        if any(b > a + slack for a, b in zip(values, values[1:])):
            problems.append(f"{name} increases by more than {slack:.3g}")
    if bounds is None:
        problems.append("no [a, b] to compare spacings with: check failed")
    else:
        a, b = bounds
        slack = 1e-9 * max(1.0, b)
        lo, hi = min(col["min_spacing"]), max(col["max_spacing"])
        if lo < a - slack or hi > b + slack:
            problems.append(f"spacings [{lo:.9g}, {hi:.9g}] leave check's [{a:.9g}, {b:.9g}]")
    return problems


def _check_validate(out):
    problems = []
    text = (out / "validate.txt").read_text()
    for flag in ("discrete decay ok: True", "spacing containment ok: True"):
        if flag not in text:
            problems.append(f"validate.txt lacks '{flag}'")
    _, rows = _rows(out / "residuals.csv")
    values = [abs(float(r[2])) for r in rows if r[1].startswith("residual[")]
    if not values:
        problems.append("residuals.csv has no residual rows")
    return problems, max(values, default=None)


def check_op(sub, op_dir, status, bounds=None):
    """Check one operation; returns (problems, residual_max or None).

    ``bounds`` is the ``(a, b)`` spacing interval for a ``simulate``.
    """
    if status != 0:
        err = (op_dir / "stderr.txt").read_text().strip().splitlines()
        return [f"exit status {status}, expected 0: {err[-1] if err else ''}"], None
    out = op_dir / "out"
    try:
        stdout = (op_dir / "stdout.txt").read_text()
        if sub == "check":
            if json.loads(stdout).get("admissible") is not True:
                return ["check rates the generated data inadmissible"], None
        elif sub == "simulate":
            return _check_simulate(stdout, out, bounds), None
        elif sub == "validate":
            return _check_validate(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
    return [], None
