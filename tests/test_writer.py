"""The column-streaming simulation writer, with its forked second writer,
produces the bytes of the row writer it replaced."""

import copy
import errno
import json
import math
import os
import sys

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


def test_stored_fields_are_the_reconstruction(sv, series):
    assert series.x.shape == series.rho.shape == series.v.shape == (len(series), series.n + 1)
    for j, state in enumerate(snapshot_states(series)):
        for row, fresh in zip((series.x, series.rho, series.v), fc.reconstruct(sv, state),
                              strict=True):
            assert np.array_equal(row[j], fresh)


def resized(x, values, points):
    """A stand-in for ``fields.sample``: the node values, resized to the
    points, so that special node values reach the sampled columns."""
    return np.resize(values, np.size(points))


@pytest.mark.parametrize("grid_size", [2, 37, 512])
def test_streaming_writer_matches_row_writer(sv, series, tmp_path, grid_size):
    assert_writes_reference(sv, series, tmp_path, grid_size)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in_process"])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_split_writer_matches_row_writer(sv, series, tmp_path, monkeypatch, count, fork):
    # 1 snapshot leaves the first half empty, 3 split unevenly
    short = copy.copy(series)
    short.times = series.times[:count]
    short.x, short.rho, short.v = series.x[:count], series.rho[:count], series.v[:count]
    short.diagnostics = fc.DiagnosticsRecord(*(c[:count] for c in series.diagnostics))
    if not fork:
        monkeypatch.delattr(os, "fork")
    assert_writes_reference(sv, short, tmp_path, 37)
    assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "fields.csv", "particles.csv"]


def simulate_argv(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return ["simulate", "--config", str(path), "--out", str(tmp_path / "out")]


def test_failed_second_writer_is_one_out_error(tmp_path, capsys, monkeypatch):
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
