"""tools/fresh.py runs CI's fresh-process rows and memory checks; a probe that
no longer runs fails here rather than in a CI step that gates nothing."""

import importlib.util
import math
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = importlib.util.spec_from_file_location("fresh", os.path.join(ROOT, "tools", "fresh.py"))
fresh = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fresh)


def test_cli_probe_returns_wall_faults_and_peak(tmp_path):
    cfg = fresh.config(tmp_path, "run", 2, 8, "direct", "1e-2", "0.02", "0.2", "3.0")
    numbers = fresh.run(fresh.SRC, fresh.CLI, ["simulate", "--config", cfg])
    assert len(numbers) == 3 and all(math.isfinite(x) for x in numbers)
    assert os.path.exists(tmp_path / "run" / "summary.txt")


def test_failed_probe_raises_with_its_stderr(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[grid]\ndim = 2\n[bogus]\n")
    with pytest.raises(RuntimeError, match=r"exited 1:\nconfiguration error:\n.*unknown section \[bogus\]"):
        fresh.run(fresh.SRC, fresh.CLI, ["simulate", "--config", str(cfg)])


def test_against_parent_prints_a_row_per_tree(capsys):
    # the parent's tree is this one, so no worktree is made; the probe finds
    # snls on its import path without importing numpy
    probe = ("import importlib.util, sys\nprint('warming up')\n"
             "print(len(sys.argv), int(importlib.util.find_spec('snls') is not None))")
    fresh.against_parent([("probe", 1, "{0:.0f} then {2:.0f} args, {1:.0f}", [(probe, ["x"]), (probe, [])])],
                         os.path.dirname(fresh.SRC))
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["| probe | HEAD^ | 1 | 2 then 1 args, 1 |", "| probe | HEAD | 1 | 2 then 1 args, 1 |"]
