"""Microseconds per call of the DP5 hot path: ``dynamics.rhs_arrays`` in
its returning form and in its stage-row form, and ``integrate._attempt``
as ``simulate`` calls it, in one workspace built outside the timed call, at
n = 128 on the saint_venant chain of ``configs/saint_venant_perturbed.json``,
from its first trial step (each timed trial is accepted and leaves row 0
of the workspace at the rhs of its candidate, which the next one starts
from, at the same cost);
microseconds per snapshot of the diagnostics pass over the stored rows
(``integrate._diagnostic_columns``), on 2 * fields.BLOCK rows of that state; and
microseconds per ``fields.sample`` call on the config's uniform grid of
``grid_size`` (512) points, of which the CSV writer makes two per snapshot.

    PYTHONPATH=src python3 tools/hot_path_us.py

Prints one line per measurement with the best of REPEAT timing rounds.  The
numbers report only; nothing compares them to a bound.  ``call_table`` is
the one list of these calls; ``tools/ab_us.py`` times it on two trees.
"""

import importlib
import timeit
from pathlib import Path

import numpy as np

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "saint_venant_perturbed.json"
N = 128
REPEAT = 7


def call_table(fc):
    """The timed calls on the fluidchain package ``fc``, set up outside
    them, by name: (call, calls per timing round, units per call, unit)."""
    cli = importlib.import_module(fc.__name__ + ".cli")
    integrate, fields, rhs_arrays = fc.integrate, fc.fields, fc.dynamics.rhs_arrays
    cfg = cli.parse_config(CONFIG)
    model = cfg.model
    state = fc.build_particles(model, cfg.initial, N)
    y = np.concatenate((state.x, state.v))
    dt = integrate.first_step(model, N, state.x)
    ws = integrate._Workspace(model, N, y)
    snapshots = 2 * fields.BLOCK
    series = integrate.SnapshotSeries(model, N, snapshots)
    for _ in range(snapshots):
        integrate._store(model, state, series)
    x, _, v = fields.reconstruct(model, state)
    grid = np.linspace(0.0, model.length, cfg.grid_size)
    table = {
        "rhs_arrays": (lambda: rhs_arrays(model, N, state.x, state.v), 2000, 1,
                       "us per call"),
        "rhs_arrays_stage_row": (lambda: rhs_arrays(model, N, state.x, state.v,
                                                    out=ws.k[1], pad=ws.pad),
                                 2000, 1, "us per call"),
        "_attempt": (lambda: integrate._attempt(model, N, y, dt, cfg.integrator, ws),
                     300, 1, "us per call"),
        "diagnostics": (lambda: integrate._diagnostic_columns(series), 20, snapshots,
                        "us per snapshot"),
        "sample": (lambda: fields.sample(x, v, grid), 2000, 1,
                   f"us per call on {cfg.grid_size} points"),
    }
    assert table["_attempt"][0]()[0], "the timed step must be accepted"
    return table


def main():
    import fluidchain

    table = call_table(fluidchain)
    for name, (call, number, units, unit) in table.items():
        best = min(timeit.repeat(call, number=number, repeat=REPEAT)) / number
        print(f"{name} n={N}: {best / units * 1e6:.1f} {unit}")
    assert table["_attempt"][0]()[0], "the timed steps must stay accepted"


if __name__ == "__main__":
    main()
