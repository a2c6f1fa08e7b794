"""The scripts under ``scripts/`` run: smoke tests, each in a subprocess
started from the repository root, as the scripts expect."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_step_halving_shows_fourth_order_convergence():
    out = run_script("scripts/step_halving.py")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    ratios = [float(row[2]) for row in rows if len(row) == 3]
    assert len(ratios) >= 5
    assert all(15.0 <= ratio <= 17.0 for ratio in ratios[:5]), ratios


def test_run_flagship_passes_at_eight_samples():
    out = run_script("scripts/run_flagship.py", "8", "0")
    assert out.returncode == 0, out.stdout + out.stderr


def test_stage_cost_times_every_builtin_with_geodesic_jobs():
    out = run_script("scripts/stage_cost.py", "20")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].split()[-2:] == ["integrate", "us/step"]
    rows = [line.split() for line in lines[1:8]]
    assert [row[0] for row in rows] == [
        "euclidean:2", "euclidean:3", "hyperbolic:2", "hyperbolic:3",
        "gaussian:alpha=0", "gaussian:alpha=1", "gaussian:alpha=-0.5"]
    assert all(0.0 < float(batch) < float(step) for _, batch, step, _ in rows)
    # a step of the loop holds four stages, each at least one batch
    assert all(float(batch) < float(integrate) for _, batch, _, integrate in rows)
    # then one linalg.inverse on a 1-row and on a 256-row (3, 3) stack
    assert lines[8].split() == ["stack", "inverse", "us"]
    stacks = [line.rsplit(None, 1) for line in lines[9:11]]
    assert [label for label, _ in stacks] == ["(1, 3, 3)", "(256, 3, 3)"]
    assert 0.0 < float(stacks[0][1]) < float(stacks[1][1])
    # then one lift batch on 128 and on 1024 bundle points, per lift and order
    assert lines[11].split() == ["lift", "order", "128", "rows", "us", "1024", "rows", "us"]
    lifts = [line.split() for line in lines[12:17]]
    assert [row[:2] for row in lifts] == [["sasaki", "0"], ["sasaki", "1"], ["sasaki", "2"],
                                          ["complete_conn", "0"], ["complete_conn", "1"]]
    assert all(0.0 < float(small) < float(large) for _, _, small, large in lifts)
    # an order-2 Sasaki batch carries the order-0 one among its parts
    assert float(lifts[0][3]) < float(lifts[2][3])
    # last, a 256-row frame build, alone and with its projector partials read
    assert lines[17].split() == ["frame", "build", "us", "build+d_ph", "us"]
    frames = [line.split() for line in lines[18:]]
    assert [name for name, _, _ in frames] == [
        "hyperbolic:3", "gaussian:alpha=1", "tangent_bundle_of:hyperbolic:2"]
    assert all(0.0 < float(build) < float(read) for _, build, read in frames)


@pytest.mark.parametrize("name", ["tangent_bundle_of:hyperbolic:2",
                                  "tangent_bundle_of:gaussian:alpha=1",
                                  "tangent_bundle_of:euclidean:2"])
def test_repeat_census_finds_no_repeated_batch_on_the_bundle_builtins(name):
    out = run_script("scripts/repeat_census.py", name, "16")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["check", "field", "calls", "repeats", "repeat", "ms"]
    assert lines[1].startswith("total repeats 0 in "), out.stdout
    # prop41 and tm_statistical read the suite's batch; prop42 evaluates its own stack
    assert lines[2] == "frame builds 2"
    assert lines[3].split() == MEMO_HEADER  # then the build sites


def test_repeat_census_counts_one_frame_build_per_stack():
    # the suite's points, read by every frame check; projectable's fibers
    out = run_script("scripts/repeat_census.py", "hyperbolic:3", "16")
    assert out.returncode == 0, out.stderr
    assert [line for line in out.stdout.splitlines() if line.startswith("frame builds")] == [
        "frame builds 2"]


MEMO_HEADER = ["build", "site", "stacks", "lookups", "hits"]


@pytest.mark.parametrize("name, sites", [
    # integration opens no memo: its 100 steps look nothing up
    ("hyperbolic:3", {"_frames": [2, 8, 0], "_probe_rows": [2, 8, 0], "_run_kernel": [4, 8, 1],
                      "fiber_points": [1, 0, 0], "integrate_geodesic": [100, 0, 0]}),
    # the lifts of one build read the base fields again: the kernels, the
    # probes and the frame build each hit
    ("tangent_bundle_of:hyperbolic:2",
     {"_frames": [1, 7, 3], "_probe_rows": [2, 16, 2], "_run_kernel": [5, 48, 19]}),
])
def test_repeat_census_counts_memo_lookups_and_hits_per_build_site(name, sites):
    out = run_script("scripts/repeat_census.py", name, "16", "0")
    assert out.returncode == 0, out.stderr
    lines = [line.split() for line in out.stdout.splitlines()]
    rows = lines[lines.index(MEMO_HEADER) + 1:]
    assert {site: [int(v) for v in counts] for site, *counts in rows} == sites
