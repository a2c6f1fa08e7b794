#!/usr/bin/env python3
"""In-process cost of RK4 steps on the builtins with geodesic jobs.

Usage: python3 scripts/stage_cost.py [REPEATS]

For each builtin that has geodesic jobs, the states are its own job
starts, stacked as lockstep integration stacks them and repeated to 3
rows.  Prints the median microseconds, over REPEATS timed calls (1000 by
default) after a warm-up, of one order-0 ``conn.batch`` at those points,
which gives the parts (Gamma,), and of one ``_rk4_step`` (four stages)
from those states.  The last column is the median, over 3 runs after a
warm-up, of one ``integrate_geodesic`` of the builtin's own jobs (which
share one span and step) over the whole span, in microseconds per step:
a ``_rk4_step`` through ``build_rows``, then the box test and the node
store.
Then it prints the median microseconds of one ``linalg.inverse`` on a
1-row and on a 256-row stack of well-conditioned (3, 3) matrices: the
fixed cost of a call and its cost per row.  Last, the lift table gives
the median microseconds of one ``batch`` of the Sasaki metric at orders
0-2 and of the complete-lift connection at orders 0-1 of
tangent_bundle_of:hyperbolic:2, on 128 and on 1024 bundle points sampled
from its chart box.  Last, the frame table gives the median microseconds
of one ``SubmersionSetup._frames`` build on 256 points sampled from the
chart box of hyperbolic:3, gaussian:alpha=1 and
tangent_bundle_of:hyperbolic:2, and of one build followed by a read of
its projector partials ``d_ph``, which the batch computes on first read.
Run it from the repository root; it times the ``subgeo`` under ``src``.
"""

import statistics
import sys
import time

sys.path.insert(0, "src")

import numpy as np

from subgeo import builtins
from subgeo.geodesics import _rk4_step, integrate_geodesic
from subgeo.linalg import inverse
from subgeo.sampling import sample_box

BUILTINS = (
    "euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
    "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5",
    "broken:2", "perturbed:3",
    "tangent_bundle_of:hyperbolic:2", "tangent_bundle_of:gaussian:alpha=1",
    "tangent_bundle_of:euclidean:2",
)
ROWS = 3
STACKS = (1, 256)  # rows of the timed inverse stacks
LIFT_BUNDLE = "tangent_bundle_of:hyperbolic:2"
LIFT_ROWS = (128, 1024)  # bundle points of the timed lift batches
FRAME_BUILTINS = ("hyperbolic:3", "gaussian:alpha=1", "tangent_bundle_of:hyperbolic:2")
FRAME_ROWS = 256
WARMUP = 50
INTEGRATIONS = 3


def median_us(call, repeats: int, warmup: int = WARMUP) -> float:
    for _ in range(warmup):
        call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main() -> None:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    print(f"{'builtin':<22s} {'conn.batch us':>14s} {'_rk4_step us':>13s} "
          f"{'integrate us/step':>18s}")
    for name in BUILTINS:
        scenario = builtins.build(name)
        jobs = scenario.geodesic_jobs
        if not jobs:
            continue
        conn, chart = scenario.space.conn, scenario.space.chart
        x = np.resize([job["p0"] for job in jobs.values()], (ROWS, scenario.dim))
        v = np.resize([job["v0"] for job in jobs.values()], (ROWS, scenario.dim))
        states = np.concatenate([x, v], axis=1)
        batch = median_us(lambda: conn.batch(x, 0), repeats)
        step = median_us(lambda: _rk4_step(conn, states, 1e-3), repeats)
        (t_end, h), = {(job["t_end"], job["h"]) for job in jobs.values()}
        starts = [np.array([job[key] for job in jobs.values()]) for key in ("p0", "v0")]
        whole = median_us(lambda: integrate_geodesic(conn, chart, *starts, t_end, h),
                          INTEGRATIONS, warmup=1)
        print(f"{name:<22s} {batch:14.1f} {step:13.1f} {whole / round(t_end / h):18.1f}")
    rng = np.random.default_rng(0)
    print(f"{'stack':<22s} {'inverse us':>14s}")
    for rows in STACKS:
        a = rng.normal(size=(rows, 3, 3)) + 3.0 * np.eye(3)
        print(f"{f'({rows}, 3, 3)':<22s} {median_us(lambda: inverse(a), repeats):14.1f}")
    bundle = builtins.build(LIFT_BUNDLE).bundle
    points = [sample_box(bundle.chart.box, rows, 0) for rows in LIFT_ROWS]
    print(f"{'lift':<22s} {'order':>5s} "
          + " ".join(f"{f'{rows} rows us':>13s}" for rows in LIFT_ROWS))
    for label, field, orders in (("sasaki", bundle.sasaki_metric, 3),
                                 ("complete_conn", bundle.complete_conn, 2)):
        for order in range(orders):
            times = [median_us(lambda: field.batch(x, order), repeats) for x in points]
            print(f"{label:<22s} {order:5d} " + " ".join(f"{t:13.1f}" for t in times))
    print(f"{'frame':<30s} {'build us':>10s} {'build+d_ph us':>14s}")
    for name in FRAME_BUILTINS:
        setup = builtins.build(name).setup
        x = sample_box(setup.total.chart.box, FRAME_ROWS, 0)
        build = median_us(lambda: setup._frames(x), repeats)
        read = median_us(lambda: setup._frames(x).d_ph, repeats)
        print(f"{name:<30s} {build:10.1f} {read:14.1f}")


if __name__ == "__main__":
    main()
