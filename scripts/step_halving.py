#!/usr/bin/env python3
"""Endpoint error of the half-plane arc geodesic under step halving.

The integrator is classical RK4, so each halving should shrink the
endpoint error by roughly 16x until roundoff takes over.
"""

import math
import sys

sys.path.insert(0, "src")

import numpy as np

from subgeo import builtins
from subgeo.errors import SubgeoError
from subgeo.geodesics import integrate_geodesic

scenario = builtins.build("hyperbolic:2")
conn, chart = scenario.space.conn, scenario.space.chart
exact = np.array([math.tanh(0.5), 1.0 / math.cosh(0.5)])

prev = None
print(f"{'h':>10s} {'endpoint error':>16s} {'ratio':>8s}")
for k in range(8):
    h = 0.05 / 2 ** k  # each h divides t_end = 0.5 exactly
    (traj,) = integrate_geodesic(conn, chart, [(0.0, 1.0)], [(1.0, 0.0)], 0.5, step=h)
    if isinstance(traj, SubgeoError):
        raise traj
    err = float(np.max(np.abs(traj.xs[-1] - exact)))
    ratio = "" if prev is None else f"{prev / err:8.2f}"
    print(f"{h:10.2e} {err:16.3e} {ratio}")
    prev = err
