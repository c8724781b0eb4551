"""The column-streaming simulation writer produces the bytes of the row
writer it replaced."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fluidchain as fc
from fluidchain import cli

from conftest import perturbed_initial

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
    """The three simulation CSVs as the row-at-a-time writer built them."""
    particle_rows, field_rows, diag_rows = [], [], []
    for t, field, diag in zip(series.times, series.reconstructed, series.diagnostics):
        for i in range(field.n + 1):
            particle_rows.append((t, i, field.asc_x[::-1][i], field.asc_v[::-1][i],
                                  field.asc_rho[::-1][i]))
        grid = np.linspace(0.0, field.length, grid_size)
        rho, vel = field.rho(grid), field.v(grid)
        for x, r, v in zip(grid, rho, vel):
            field_rows.append((t, x, r, v))
        diag_rows.append((t, diag.e_n, diag.w_n, diag.z_n, diag.h_n,
                          diag.mass, diag.spacing_min, diag.spacing_max))
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
    assert len(series.reconstructed) == len(series.states) == len(series)
    for state, field in zip(series.states, series.reconstructed):
        fresh = fc.reconstruct(sv, state)
        for name in ("asc_x", "asc_rho", "asc_v"):
            assert np.array_equal(getattr(field, name), getattr(fresh, name))


@pytest.mark.parametrize("grid_size", [2, 37, 512])
def test_streaming_writer_matches_row_writer(sv, series, tmp_path, grid_size):
    assert_writes_reference(sv, series, tmp_path, grid_size)


def test_streaming_writer_matches_row_writer_on_special_values(sv, series, tmp_path):
    column = np.array(SPECIALS)
    assert column.size == series.states[0].n + 1
    # the node columns as the writer reads them, reversed; the grid samples
    # stay those of the real first snapshot
    first = series.reconstructed[0]
    odd = GivenField(first.n, first.length, asc_x=column[::-1], asc_v=column.copy(),
                     asc_rho=-column[::-1], samples=first.rho(np.linspace(0.0, first.length, 16)))
    special = dataclasses.replace(series, reconstructed=[odd, *series.reconstructed[1:]])
    assert_writes_reference(sv, special, tmp_path, 16)
    lines = (tmp_path / "particles.csv").read_text().splitlines()
    assert lines[1] == "0,0,infinite,-2.5,infinite"
    assert lines[4] == "0,3,-0,1.7976931348623157e+308,0"


@dataclasses.dataclass(frozen=True)
class GivenField:
    """A stand-in field whose node columns and grid samples are given."""

    n: int
    length: float
    asc_x: np.ndarray
    asc_v: np.ndarray
    asc_rho: np.ndarray
    samples: np.ndarray

    def rho(self, grid):
        return np.resize(self.samples, grid.size)

    def v(self, grid):
        return np.resize(-self.samples[::-1], grid.size)


def test_streaming_writer_matches_row_writer_with_specials_in_every_column(
        sv, series, tmp_path):
    finite = np.array([v for v in SPECIALS if not math.isinf(v)])
    n = series.states[0].n
    columns = [np.resize(np.roll(finite, 2), n + 1), np.array(SPECIALS),
               np.resize(np.roll(finite, 5), n + 1)]
    snapshots = [GivenField(n, sv.length, c[::-1], np.roll(c, 1)[::-1], c.copy(), np.roll(c, 3))
                 for c in columns]
    special = dataclasses.replace(series, times=[-0.0, 5e-324, 1.0 / 3.0],
                                  states=series.states[:3], reconstructed=snapshots,
                                  diagnostics=series.diagnostics[:3])
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
