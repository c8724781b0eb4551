"""Microseconds per call of the DP5 hot path: ``dynamics.rhs_arrays`` in
its returning form and in its stage-row form, and ``integrate._attempt``
as ``simulate`` calls it, in one workspace built outside the timed call, at
n = 128 on the saint_venant chain of ``configs/saint_venant_perturbed.json``,
from its first trial step (each timed trial is accepted and leaves row 0
of the workspace at the rhs of its candidate, which the next one starts
from, at the same cost);
microseconds per snapshot of the diagnostics pass over the stored rows
(``integrate._diagnostic_columns``), on SNAPSHOTS rows of that state; and
microseconds per ``fields.sample`` call on the config's uniform grid of
``grid_size`` (512) points, of which the CSV writer makes two per snapshot.

    PYTHONPATH=src python3 tools/hot_path_us.py

Prints one line per measurement with the best of REPEAT timing rounds.  The
numbers report only; nothing compares them to a bound.
"""

import timeit
from pathlib import Path

import numpy as np

from fluidchain import cli, fields, integrate
from fluidchain.dynamics import rhs_arrays
from fluidchain.initial import build_particles

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "saint_venant_perturbed.json"
N = 128
REPEAT = 7
SNAPSHOTS = 2 * fields.BLOCK


def main():
    cfg = cli.parse_config(CONFIG)
    model = cfg.model
    state = build_particles(model, cfg.initial, N)
    y = np.concatenate((state.x, state.v))
    dt = integrate.first_step(model, N, state.x)
    ws = integrate._Workspace(model, N, y)
    calls = {
        "rhs_arrays": lambda: rhs_arrays(model, N, state.x, state.v),
        "rhs_arrays_stage_row": lambda: rhs_arrays(model, N, state.x, state.v,
                                                   out=ws.k[1], pad=ws.pad),
        "_attempt": lambda: integrate._attempt(model, N, y, dt, cfg.integrator, ws),
    }
    assert calls["_attempt"]()[0], "the timed step must be accepted"
    for name, call in calls.items():
        number = 300 if name == "_attempt" else 2000
        best = min(timeit.repeat(call, number=number, repeat=REPEAT)) / number
        print(f"{name} n={N}: {best * 1e6:.1f} us per call")
    assert calls["_attempt"]()[0], "the timed steps must stay accepted"
    series = integrate.SnapshotSeries(model, N, SNAPSHOTS)
    for _ in range(SNAPSHOTS):
        integrate._store(model, state, series)
    best = min(timeit.repeat(lambda: integrate._diagnostic_columns(series), number=20,
                             repeat=REPEAT)) / 20
    print(f"diagnostics n={N}: {best / SNAPSHOTS * 1e6:.1f} us per snapshot")
    x, _, v = fields.reconstruct(model, state)
    grid = np.linspace(0.0, model.length, cfg.grid_size)
    best = min(timeit.repeat(lambda: fields.sample(x, v, grid), number=2000,
                             repeat=REPEAT)) / 2000
    print(f"sample n={N}: {best * 1e6:.1f} us per call on {cfg.grid_size} points")


if __name__ == "__main__":
    main()
