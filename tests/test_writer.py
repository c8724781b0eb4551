"""The column-streaming simulation writer, with its forked second writer
from ``cli.FORK_VALUES`` fields.csv values on and in one process below,
produces the bytes of the row writer it replaced."""

import copy
import errno
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fluidchain as fc
from fluidchain import cli, fields

from conftest import perturbed_initial, snapshot_states

CONFIG = {
    "model": {"kind": "saint_venant", "g": 9.81, "nu": 1.0},
    "m": 1.0,
    "L": 1.0,
    "initial": {"rho0": {"kind": "constant", "value": 1.0},
                "v0": {"kind": "sine", "amplitude": 0.1, "mode": 1}},
    "integrator": {"snapshot_dt": 0.05, "T": 0.1},
    "n": 8,
}

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "saint_venant_perturbed.json"

SPECIALS = [math.inf, -math.inf, math.nan, -0.0, 5e-324,
            1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5]


def reference_fmt(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and math.isinf(value):
        return "infinite"
    return format(float(value), ".17g")


def reference_csv(header, rows):
    return "".join(",".join(reference_fmt(v) for v in row) + "\n"
                   for row in [header, *rows])


def reference_artifacts(series, grid_size):
    """The three simulation CSVs as the row-at-a-time writer built them,
    each field sampled through ``fields.sample`` as bound at the call."""
    particle_rows, field_rows, diag_rows = [], [], []
    for j, t in enumerate(series.times):
        x, rho, v = series.x[j], series.rho[j], series.v[j]
        for i in range(series.n + 1):
            particle_rows.append((t, i, x[::-1][i], v[::-1][i], rho[::-1][i]))
        grid = np.linspace(0.0, series.model.length, grid_size)
        for xq, r, u in zip(grid, fields.sample(x, rho, grid), fields.sample(x, v, grid)):
            field_rows.append((t, xq, r, u))
        diag_rows.append((t, *(float(column[j]) for column in series.diagnostics)))
    return {
        "particles.csv": reference_csv(("t", "i", "x_i", "v_i", "rho_i"), particle_rows),
        "fields.csv": reference_csv(("t", "x", "rho", "v"), field_rows),
        "diagnostics.csv": reference_csv(
            ("t", "E_n", "W_n", "Z_n", "H_n", "mass", "min_spacing", "max_spacing"),
            diag_rows),
    }


@pytest.fixture(scope="module")
def series(sv):
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.1), 8)
    return fc.simulate(sv, state0, 0.1, fc.IntegratorConfig(snapshot_dt=0.02))


def assert_writes_reference(model, series, tmp_path, grid_size):
    cli._write_simulation_artifacts(model, series, tmp_path, grid_size)
    for name, text in reference_artifacts(series, grid_size).items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


@pytest.fixture(scope="module")
def rough_series(sv):
    """A run with trials rejected by the error test and a last snapshot
    interval truncated to half the cadence."""
    state0 = fc.build_particles(sv, perturbed_initial(sv, 0.3), 8)
    return fc.simulate(sv, state0, 0.2, fc.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8,
                                                            snapshot_dt=0.08))


def test_stored_fields_are_the_reconstruction(sv, series, rough_series):
    assert rough_series.stats.rejected_by["error"] > 0
    assert rough_series.times[-1] - rough_series.times[-2] < 0.6 * 0.08
    for run in (series, rough_series):
        assert run.x.shape == run.rho.shape == run.v.shape == (len(run), run.n + 1)
        for j, state in enumerate(snapshot_states(run)):
            for row, fresh in zip((run.x, run.rho, run.v), fc.reconstruct(sv, state),
                                  strict=True):
                assert row[j].tobytes() == fresh.tobytes()


def resized(x, values, points):
    """A stand-in for ``fields.sample``: the node values, resized to the
    points, so that special node values reach the sampled columns."""
    return np.resize(values, np.size(points))


@pytest.mark.parametrize("grid_size", [2, 37, 512])
def test_streaming_writer_matches_row_writer(sv, series, tmp_path, grid_size):
    assert_writes_reference(sv, series, tmp_path, grid_size)


def shortened(series, count):
    """The first ``count`` snapshots of ``series``."""
    short = copy.copy(series)
    short.times = series.times[:count]
    short.x, short.rho, short.v = series.x[:count], series.rho[:count], series.v[:count]
    short.diagnostics = fc.DiagnosticsRecord(*(c[:count] for c in series.diagnostics))
    return short


def patched_fork(monkeypatch, error=None):
    """Patch ``os.fork`` to record the pid of each caller, then raise
    ``error`` or, without one, fork."""
    calls, fork = [], os.fork

    def patched():
        calls.append(os.getpid())
        if error is not None:
            raise error
        return fork()

    monkeypatch.setattr(os, "fork", patched)
    return calls


def smallest_forking_grid(count):
    """The fewest grid points at which ``count`` snapshots fork a writer."""
    return math.ceil(cli.FORK_VALUES / (2 * count))


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("below", [False, True], ids=["at_the_bound", "below_it"])
def test_size_picks_the_writer_path(sv, series, tmp_path, monkeypatch, count, below):
    # 1 snapshot leaves the first half empty, 3 split unevenly
    grid_size = smallest_forking_grid(count) - below
    assert (2 * count * grid_size >= cli.FORK_VALUES) != below
    refusal = AssertionError("forked below FORK_VALUES") if below else None
    calls = patched_fork(monkeypatch, refusal)
    assert_writes_reference(sv, shortened(series, count), tmp_path, grid_size)
    assert calls == ([] if below else [os.getpid()])
    assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "fields.csv", "particles.csv"]


@pytest.mark.parametrize("path", ["forked", "failed_fork", "in_process"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_split_writer_matches_row_writer(sv, series, tmp_path, monkeypatch, count, path):
    # FORK_VALUES at 0 forks every write; a failed fork, and in_process (a
    # platform without fork), write the second half in this process
    monkeypatch.setattr(cli, "FORK_VALUES", 0)
    calls = []
    if path == "forked":
        calls = patched_fork(monkeypatch)
    elif path == "failed_fork":
        calls = patched_fork(monkeypatch, BlockingIOError(errno.EAGAIN, "fork refused"))
    else:
        monkeypatch.delattr(os, "fork")
    assert_writes_reference(sv, shortened(series, count), tmp_path, 37)
    assert calls == ([] if path == "in_process" else [os.getpid()])
    assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "fields.csv", "particles.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def simulate_argv(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]


def simulated(path):
    """The series ``simulate`` makes from the config file at ``path``."""
    cfg = cli.parse_config(path)
    return fc.simulate(cfg.model, fc.build_particles(cfg.model, cfg.initial, cfg.n),
                       cfg.horizon, cfg.integrator)


@pytest.mark.parametrize("error", [errno.EAGAIN, errno.ENOMEM], ids=["EAGAIN", "ENOMEM"])
def test_failed_fork_writes_in_process(tmp_path, capsys, monkeypatch, error):
    # a fork refused at the process limit or for memory, after the
    # simulation succeeded: the run still writes every byte, in one process
    monkeypatch.setattr(cli, "FORK_VALUES", 0, raising=False)
    calls = patched_fork(monkeypatch, OSError(error, os.strerror(error)))
    argv = simulate_argv(tmp_path)
    assert cli.main(argv) == 0
    assert calls == [os.getpid()]
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("simulate: wrote 3 snapshots")
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "fields.csv", "particles.csv"]
    for name, text in reference_artifacts(simulated(argv[2]), 512).items():
        assert (out / name).read_bytes() == text.encode(), name


def test_shipped_saint_venant_config_forks_once(tmp_path, capsys, monkeypatch):
    # 101 snapshots on 512 points: the shipped config that CI runs on every
    # Python it tests takes the forked path
    calls = patched_fork(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(SHIPPED), "--out", str(out)]) == 0
    assert calls == [os.getpid()]
    assert capsys.readouterr().out.startswith("simulate: wrote 101 snapshots")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_second_writer_is_one_out_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "FORK_VALUES", 0)
    parent, sample = os.getpid(), fields.sample

    def full_disk_in_second_writer(x, values, points):
        # only the forked writer, which writes the second half, samples
        # in another process
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return sample(x, values, points)

    monkeypatch.setattr(fields, "sample", full_disk_in_second_writer)
    assert cli.main(simulate_argv(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    record = json.loads(line)
    assert (record["error"], record["field"]) == ("ConfigError", "--out")
    fields_csv = str(tmp_path / "out" / "fields.csv")
    assert record["message"] == (f"--out: cannot write {fields_csv!r}: writer process failed: "
                                 f"{os.strerror(errno.ENOSPC)}")
    assert sorted(os.listdir(tmp_path / "out")) == ["diagnostics.csv", "fields.csv",
                                                    "particles.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_text_printed_before_simulate_is_written_once(tmp_path, monkeypatch):
    # forked, the child must not flush the buffer it shares with this process
    monkeypatch.setattr(cli, "FORK_VALUES", 0)
    with open(tmp_path / "stdout.txt", "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("printed before simulate")
        assert cli.main(simulate_argv(tmp_path)) == 0
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert lines[0] == "printed before simulate"
    assert lines[1].startswith("simulate: wrote 3 snapshots")
    assert len(lines) == 2


def test_streaming_writer_matches_row_writer_on_special_values(sv, series, tmp_path,
                                                               monkeypatch):
    column = np.array(SPECIALS)
    assert column.size == series.n + 1
    # the node columns as the writer reads them, reversed
    special = copy.copy(series)
    special.x, special.rho, special.v = series.x.copy(), series.rho.copy(), series.v.copy()
    special.x[0], special.v[0], special.rho[0] = column[::-1], column, -column[::-1]
    monkeypatch.setattr(fields, "sample", resized)
    assert_writes_reference(sv, special, tmp_path, 16)
    lines = (tmp_path / "particles.csv").read_text().splitlines()
    assert lines[1] == "0,0,infinite,-2.5,infinite"
    assert lines[4] == "0,3,-0,1.7976931348623157e+308,0"


def test_streaming_writer_matches_row_writer_with_specials_in_every_column(
        sv, series, tmp_path, monkeypatch):
    finite = np.array([v for v in SPECIALS if not math.isinf(v)])
    n = series.n
    columns = [np.resize(np.roll(finite, 2), n + 1), np.array(SPECIALS),
               np.resize(np.roll(finite, 5), n + 1)]
    special = copy.copy(series)
    special.times = [-0.0, 5e-324, 1.0 / 3.0]
    special.x = np.array([c[::-1] for c in columns])
    special.v = np.array([np.roll(c, 1)[::-1] for c in columns])
    special.rho = np.array(columns)
    special.diagnostics = fc.DiagnosticsRecord(*(c[:3] for c in series.diagnostics))
    monkeypatch.setattr(fields, "sample", resized)
    assert_writes_reference(sv, special, tmp_path, 23)
    for name in ("particles.csv", "fields.csv"):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows if "infinite" in row} == {"4.9406564584124654e-324"}
        assert {row.split(",")[0] for row in rows if "nan" in row} == {
            "-0", "4.9406564584124654e-324", "0.33333333333333331"}


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_float_format_matches_format_builtin(value):
    expected = reference_fmt(value)
    assert cli._fmt(value) == expected
    assert cli._fmt(np.float64(value)) == expected


def test_float_format_on_special_values():
    expected = [reference_fmt(v) for v in SPECIALS]
    assert [cli._fmt(v) for v in SPECIALS] == expected
