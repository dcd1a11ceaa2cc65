"""The benchmark's tracer (snlsbench/spans.py) wraps snls module attributes by
name and reads trajectory attributes; this pins every name it relies on, so
removing one fails here instead of silently breaking `--trace 1`."""

import importlib.util
import os

from snls import dynamics, harness

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "snlsbench", "spans.py")
CONFIG = """
[grid]
dim = 2
points_per_axis = 8
[time]
scheme = dpd
dt = 0.01
t_final = 0.03
[noise]
kind = multiplier
"""


def load_spans():
    spec = importlib.util.spec_from_file_location("snlsbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_exist():
    for module, attr in load_spans().TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def check_trajectory(traj):
    assert traj.grid.total_points == 64
    assert traj.n_snapshots == len(traj.times) == 4
    for f in list(traj.v_snapshots) + list(traj.psi_snapshots):
        assert f.values.nbytes == 64 * 16


def test_trajectory_attributes(tmp_path):
    cfg = harness.build_solver_config(harness.parse_config(CONFIG))
    traj = dynamics.solve(cfg)
    assert cfg.n_steps == 3
    check_trajectory(traj)
    fname = os.path.join(tmp_path, "t.bin")
    dynamics.write_trajectory(traj, fname)
    check_trajectory(dynamics.read_trajectory(fname))
