"""Microseconds per call of the DP5 hot path: ``dynamics.rhs_arrays`` in
its returning form and in its stage-row form, and ``integrate._attempt``
as ``simulate`` calls it, in one workspace built outside the timed call, at
n = 128 on the saint_venant chain of ``configs/saint_venant_perturbed.json``,
from its first trial step (each timed trial is accepted and leaves the
workspace's first stage at the rhs of its candidate, which the next one
starts from, at the same cost); both calls are built from the workspace of
the tree given, the padded stage matrix ``K`` or the earlier unpadded
stage rows with their wall rows, so that ``tools/ab_us.py`` can time a
change of that layout against its parent;
microseconds per snapshot of the diagnostics pass over the stored rows
(``integrate._diagnostic_columns``), on 2 * fields.BLOCK rows of that state;
microseconds per ``fields.sample`` call on the config's uniform grid of
``grid_size`` (512) points, of which the CSV writer makes two per snapshot;
microseconds per ``FluidModel.energy_envelope_inverse`` call on the
vacuum side of the config's energy budget, one of the two inversions of
each admissibility verdict; and microseconds per snapshot of the CSV
writer (``cli._write_simulation_artifacts``) on those 2 * fields.BLOCK rows
and that grid, into a temporary directory.  Those are 64 snapshots of 512
points, 65,536 ``fields.csv`` values, at least ``cli.FORK_VALUES``: the
line times the forked second writer.

    PYTHONPATH=src python3 tools/hot_path_us.py

Prints one line per measurement with the best of REPEAT timing rounds.  The
numbers report only; nothing compares them to a bound.  ``call_table`` is
the one list of these calls; ``tools/ab_us.py`` times it on two trees.
"""

import importlib
import tempfile
import timeit
from pathlib import Path

import numpy as np

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "saint_venant_perturbed.json"
N = 128
REPEAT = 7


def call_table(fc, out):
    """The timed calls on the fluidchain package ``fc``, set up outside
    them, by name: (call, calls per timing round, units per call, unit).
    The CSV writer writes into the directory ``out``."""
    cli = importlib.import_module(fc.__name__ + ".cli")
    integrate, fields, rhs_arrays = fc.integrate, fc.fields, fc.dynamics.rhs_arrays
    cfg = cli.parse_config(CONFIG)
    model = cfg.model
    state = fc.build_particles(model, cfg.initial, N)
    y = np.concatenate((state.x, state.v))
    dt = integrate.first_step(model, N, state.x)
    ws = integrate._Workspace(model, N, y)
    if hasattr(ws, "K"):
        # one padded stage matrix: the trial starts from its row 0, and the
        # stage-row form reads the padded stage, here that state, and writes
        # a padded row
        y = ws.K[0]
        ws.stage[:] = y

        def stage_row():
            return rhs_arrays(model, N, ws.stage, None, out=ws.stages[0][2], work=ws.work)
    else:
        # the earlier workspace: unpadded stage rows and separate wall rows
        def stage_row():
            return rhs_arrays(model, N, state.x, state.v, out=ws.k[1], pad=ws.pad)
    snapshots = 2 * fields.BLOCK
    series = integrate.SnapshotSeries(model, N, snapshots)
    for _ in range(snapshots):
        integrate._store(model, state, series)
    series.diagnostics = integrate._diagnostic_columns(series)
    x, _, v = fields.reconstruct(model, state)
    grid = np.linspace(0.0, model.length, cfg.grid_size)
    budget = fc.admissibility(model, cfg.initial).lhs
    table = {
        "rhs_arrays": (lambda: rhs_arrays(model, N, state.x, state.v), 2000, 1,
                       "us per call"),
        "rhs_arrays_stage_row": (stage_row, 2000, 1, "us per call"),
        "_attempt": (lambda: integrate._attempt(model, N, y, dt, cfg.integrator, ws),
                     300, 1, "us per call"),
        "diagnostics": (lambda: integrate._diagnostic_columns(series), 20, snapshots,
                        "us per snapshot"),
        "sample": (lambda: fields.sample(x, v, grid), 2000, 1,
                   f"us per call on {cfg.grid_size} points"),
        "energy_envelope_inverse": (lambda: model.energy_envelope_inverse(-budget), 40, 1,
                                    "us per call"),
        "write_artifacts": (lambda: cli._write_simulation_artifacts(model, series, out,
                                                                    cfg.grid_size),
                            2, snapshots, "us per snapshot"),
    }
    assert table["_attempt"][0]()[0], "the timed step must be accepted"
    return table


def main():
    import fluidchain

    with tempfile.TemporaryDirectory() as out:
        table = call_table(fluidchain, out)
        for name, (call, number, units, unit) in table.items():
            best = min(timeit.repeat(call, number=number, repeat=REPEAT)) / number
            print(f"{name} n={N}: {best / units * 1e6:.1f} {unit}")
    assert table["_attempt"][0]()[0], "the timed steps must stay accepted"


if __name__ == "__main__":
    main()
