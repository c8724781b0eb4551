"""Machine-speed calibration child for the fluidchain benchmark.

A fixed program that does the kinds of work the fluidchain children do:
interpreter start and the numpy/scipy imports, small-array numpy arithmetic
in a Python loop, scipy ``quad`` over a Python integrand, and float
formatting written to a file.  It uses nothing from fluidchain, so changes
to the program under test cannot move it.  The benchmark runs it between
workload children and scales their times by how fast it ran (see run.py).
"""

import math

import numpy as np
from scipy.integrate import quad

x = np.linspace(1.0, 2.0, 129)
acc = 0.0
for _ in range(3000):
    y = np.sqrt(x) * 1.0001 + x[::-1]
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise SystemExit("calibration arithmetic went wrong")
    acc += float(np.max(np.abs(y)))
for i in range(300):
    acc += quad(lambda t: t ** -1.5 * math.sqrt(t), 1.0, 2.0 + i * 1e-3)[0]
with open("calibration.txt", "w") as fh:
    fh.write("\n".join(format(acc * 1.0000001 + i, ".17g") for i in range(40000)))
