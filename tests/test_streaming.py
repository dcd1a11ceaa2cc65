"""Streamed snapshots: simulate, partition and verify-energy hold blocks of
rows, never a whole trajectory or noise path, and give the bits of the
kept-trajectory route for any block size."""

import contextlib
import io
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from snls import cli, diagnostics, dynamics, harness, lattice, noise
from snls.errors import BlowUpError, FormatError

CONFIG = """
[grid]
dim = {dim}
points_per_axis = {n}
[time]
scheme = {scheme}
dt = 0.004
t_final = {t_final!r}
[noise]
kind = multiplier
amplitude = 0.3
sigma = 3.5
[initial]
kind = gaussian_bump
amplitude = 0.2
width = 0.8
[ensemble]
eta = 0.05
[output]
dir = {out}
emit_snapshots = true
"""


def write_config(tmp_path, name="run.cfg", **fields):
    fields = {"dim": 2, "n": 16, "scheme": "direct", "t_final": 0.08,
              "out": os.path.join(tmp_path, "out"), **fields}
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(CONFIG.format(**fields))
    return path


def run_cli(argv):
    """Exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def read_files(out_dir):
    return {name: open(os.path.join(out_dir, name), "rb").read() for name in sorted(os.listdir(out_dir))}


def held_levels(base, dts, stride_one=False):
    """Per dt its run on one held path: generate_noise_path at the finest dt,
    coarsen_noise_path to each dt, solve with it prescribed; a BlowUpError in
    place of a run that blows up."""
    n_fine = int(round(base.t_final / dts[-1]))
    fine = (noise.generate_noise_path(base.noise, dts[-1], n_fine, base.master_seed)
            if base.stochastic else None)
    runs = []
    for dt in dts:
        path = None if fine is None else noise.coarsen_noise_path(fine, int(round(dt / dts[-1])))
        stride = 1 if stride_one else int(round(base.t_final / dt))
        try:
            runs.append(dynamics.solve(dynamics.SolverConfig(
                grid=base.grid, t_final=base.t_final, dt=dt, scheme=base.scheme,
                noise=base.noise, initial_v=base.initial_v, snapshot_stride=stride,
                master_seed=base.master_seed, prescribed_path=path)))
        except BlowUpError as exc:
            runs.append(exc)
    return runs


def converge_dts(t_final):
    return [t_final / 5, t_final / 10, t_final / 20, t_final / 40]


def kept_route(cfgfile, out_dir):
    """simulate, partition, verify-energy and converge written out on kept
    trajectories: solve, the ledger, the two writers, the partition of the
    file read back, the Strichartz report, and the residual and convergence
    studies on coarsened held paths.  Returns (simulate stdout, its files,
    partition stdout, verify-energy stdout, converge stdout)."""
    rc = harness.load_config(cfgfile)
    os.makedirs(out_dir)
    traj = dynamics.solve(harness.build_solver_config(rc))
    ledger = diagnostics.ito_ledger(traj)
    harness.emit_csv(ledger, os.path.join(out_dir, "diagnostics.csv"))
    dynamics.write_trajectory(traj, os.path.join(out_dir, "trajectory.bin"))
    if traj.noise_path is not None:
        noise.write_noise_path(traj.noise_path, os.path.join(out_dir, "noise_path.bin"))
    part = diagnostics.partition_intervals(traj, rc.eta)
    rep = diagnostics.strichartz_report(traj, lattice.SpacetimeInterval(0, traj.n_snapshots - 1))
    lines = ["[simulate]", f"config_hash = {rc.config_hash()}",
             f"final_energy = {float(ledger.energy[-1])!r}",
             f"final_residual = {float(ledger.residual[-1])!r}", f"partition_J = {part.J}"]
    lines += [f"{k} = {v!r}" for k, v in rep.items()]
    simulate = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(simulate)

    back = dynamics.read_trajectory(os.path.join(out_dir, "trajectory.bin"))
    part = diagnostics.partition_intervals(back, rc.eta)
    partition = f"eta = {rc.eta!r}  J = {part.J}\n" + "".join(
        f"[{itv.start_index}, {itv.end_index}]  x1 = {nrm!r}{'  [irreducible]' if irr else ''}\n"
        for itv, nrm, irr in zip(part.intervals, part.norms, part.irreducible))

    base = harness.build_solver_config(rc)
    dts = [rc.dt / 2**j for j in range(3)]
    residuals = []
    for dt, traj in zip(dts, held_levels(base, dts, stride_one=True)):
        led = diagnostics.ito_ledger(traj)
        residuals.append((dt, abs(float(led.residual[-1])), abs(float(led.residual_balanced[-1]))))
    verify = "".join(f"dt = {dt!r}  |literal residual| = {lit!r}  |balanced residual| = {bal!r}\n"
                     for dt, lit, bal in residuals)
    lit = [r[1] for r in residuals]
    verify += f"literal_non_increasing = {all(b <= a * (1 + 1e-12) for a, b in zip(lit, lit[1:]))}\n"

    dts = converge_dts(rc.t_final)
    finals = [traj.u_snapshot(traj.n_snapshots - 1) for traj in held_levels(base, dts)]
    errors = [lattice.lebesgue_norm(lattice.ComplexField(base.grid, u.values - finals[-1].values), 2.0)
              for u in finals[:-1]]
    converge = "".join(f"dt = {dt!r}  error = {err!r}\n" for dt, err in zip(dts, errors))
    converge += f"observed_order = {harness.observed_order(dts, errors)!r}\n"
    return simulate, read_files(out_dir), partition, verify, converge


@pytest.mark.parametrize("scheme", ["direct", "dpd", "deterministic_gp", "deterministic_cubic"])
@pytest.mark.parametrize("dim, n, t_final", [(2, 16, 0.08), (4, 8, 0.024)], ids=["16sq", "8e4"])
def test_block_size_invariance(tmp_path, monkeypatch, scheme, dim, n, t_final):
    # converge and verify-energy step their levels in lockstep on rows drawn
    # once; the kept route holds the fine path and coarsens it per level
    cfgfile = write_config(tmp_path, dim=dim, n=n, scheme=scheme, t_final=t_final)
    want = kept_route(cfgfile, os.path.join(tmp_path, "kept"))
    assert ("noise_path.bin" in want[1]) == (scheme in ("direct", "dpd"))
    dts = ",".join(map(repr, converge_dts(t_final)))
    row, default = n**dim * 16, lattice.BLOCK_BYTES
    for rows in (1, 3, None):
        monkeypatch.setattr(lattice, "BLOCK_BYTES", rows * row if rows else default)
        out = os.path.join(tmp_path, f"rows-{rows}")
        code, simulate, _ = run_cli(["simulate", "--config", cfgfile, "--out", out])
        assert code == 0
        assert (simulate, read_files(out)) == want[:2], rows
        traj = os.path.join(out, "trajectory.bin")
        assert run_cli(["partition", "--config", cfgfile, "--trajectory", traj]) == (0, want[2], "")
        assert run_cli(["verify-energy", "--config", cfgfile, "--out", out, "--halvings", "2"])[:2] == (
            0, want[3])
        assert run_cli(["converge", "--config", cfgfile, "--out", out, "--dts", dts]) == (0, want[4], "")


@pytest.mark.parametrize("scheme", ["direct", "dpd", "deterministic_gp", "deterministic_cubic"])
@pytest.mark.parametrize("dim, n, t_final", [(2, 16, 0.08), (4, 8, 0.024)], ids=["16sq", "8e4"])
def test_ensemble_block_size_invariance(tmp_path, monkeypatch, scheme, dim, n, t_final):
    # at one batch's snapshot rows the batch's blocks go to lockstep's
    # consumer thread; at the default its 3 members' rows are serial
    cfgfile = write_config(tmp_path, dim=dim, n=n, scheme=scheme, t_final=t_final)
    with open(cfgfile) as fh:
        doc = fh.read().replace("[ensemble]\n", "[ensemble]\nsize = 3\n")
    with open(cfgfile, "w") as fh:
        fh.write(doc)
    consumers, consumer = [], dynamics._Consumer
    monkeypatch.setattr(dynamics, "_Consumer", lambda: consumers.append(1) or consumer())
    outputs = []
    for threaded, block_bytes in enumerate((lattice.BLOCK_BYTES, 3 * n**dim * 16)):
        monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
        out = os.path.join(tmp_path, str(block_bytes))
        code, stdout, _ = run_cli(["ensemble", "--config", cfgfile, "--out", out])
        assert code == 0 and len(consumers) == threaded
        outputs.append((stdout.replace(out, "<out>"), read_files(out)))
    assert outputs[0] == outputs[1]
    assert "ensemble_report.txt" in outputs[0][1]


def count_draws(monkeypatch):
    """The (seed, stream, step) keys of the noise.step_rng calls from now on."""
    calls, draw = [], noise.step_rng
    monkeypatch.setattr(noise, "step_rng", lambda *key: calls.append(key) or draw(*key))
    return calls


@pytest.mark.parametrize("halvings", [0, 2, 3])
def test_studies_draw_each_fine_row_once(tmp_path, monkeypatch, halvings):
    cfgfile = write_config(tmp_path, n=8)  # dt 0.004, t_final 0.08: 20 steps
    calls = count_draws(monkeypatch)
    assert run_cli(["verify-energy", "--config", cfgfile, "--halvings", str(halvings)])[0] == 0
    n_fine = 20 * 2**halvings
    assert sorted(calls) == [(0, 0, j) for j in range(n_fine)]
    calls.clear()
    assert run_cli(["converge", "--config", cfgfile, "--dts", "0.016,0.008,0.004,0.002"])[0] == 0
    assert sorted(calls) == [(0, 0, j) for j in range(40)]
    calls.clear()
    assert run_cli(["simulate", "--config", cfgfile])[0] == 0
    assert sorted(calls) == [(0, 0, j) for j in range(20)]
    with open(cfgfile) as fh:
        doc = fh.read().replace("[ensemble]\n", "[ensemble]\nsize = 3\n")
    with open(cfgfile, "w") as fh:
        fh.write(doc)
    calls.clear()
    assert run_cli(["ensemble", "--config", cfgfile])[0] == 0
    assert sorted(calls) == [(0, m, j) for m in range(3) for j in range(20)]


@pytest.mark.parametrize("amplitude, blown_levels", [("9", 1), ("14", 3)])
def test_a_level_that_blows_up_names_its_own_step(tmp_path, amplitude, blown_levels):
    # rough noise on dpd: RK4 is unstable at the coarse steps first
    cfgfile = write_config(tmp_path, scheme="dpd")
    with open(cfgfile) as fh:
        doc = fh.read().replace("amplitude = 0.3\nsigma = 3.5", f"amplitude = {amplitude}\nsigma = 0.0")
    with open(cfgfile, "w") as fh:
        fh.write(doc.replace("dt = 0.004", "dt = 0.016"))
    base = harness.build_solver_config(harness.load_config(cfgfile))
    dts = [0.016, 0.008, 0.004, 0.002]
    held = held_levels(base, dts)
    assert [isinstance(r, BlowUpError) for r in held] == [True] * blown_levels + [False] * (4 - blown_levels)
    for argv in (["converge", "--dts", "0.016,0.008,0.004,0.002"], ["verify-energy", "--halvings", "3"]):
        code, out, err = run_cli(argv + ["--config", cfgfile])
        # the first level in dt order that blows up, at its own step
        assert (code, out, err) == (2, "", f"runtime failure: {held[0]}\n"), argv[0]


def test_blow_ups_print_no_numpy_warnings(tmp_path):
    # the stepper's overflow is named once, by the BlowUpError; numpy's
    # RuntimeWarnings once came first, and an ensemble printed four of them
    cfgfile = write_config(tmp_path, scheme="dpd", t_final=0.064)
    with open(cfgfile) as fh:
        doc = (fh.read().replace("amplitude = 0.3\nsigma = 3.5", "amplitude = 14\nsigma = 0.0")
               .replace("dt = 0.004", "dt = 0.016").replace("[ensemble]\n", "[ensemble]\nsize = 3\n"))
    with open(cfgfile, "w") as fh:
        fh.write(doc)
    named = "runtime failure: non-finite field value detected at step 4 (t = 0.064)\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["simulate", "--config", cfgfile]) == (2, "", named)
        assert run_cli(["converge", "--config", cfgfile, "--dts", "0.016,0.008,0.004"]) == (2, "", named)
        code, out, err = run_cli(["ensemble", "--config", cfgfile])
    assert (code, err) == (0, "") and "n_failed = 3\n" in out


def test_a_run_whose_members_all_fail_draws_no_more_rows(tmp_path, monkeypatch):
    # test_blow_ups_print_no_numpy_warnings' config over 10 steps: every
    # member has blown up by step 4, and rows 4 .. 9 are never drawn
    cfgfile = write_config(tmp_path, scheme="dpd", t_final=0.16)
    with open(cfgfile) as fh:
        doc = (fh.read().replace("amplitude = 0.3\nsigma = 3.5", "amplitude = 14\nsigma = 0.0")
               .replace("dt = 0.004", "dt = 0.016").replace("[ensemble]\n", "[ensemble]\nsize = 3\n"))
    with open(cfgfile, "w") as fh:
        fh.write(doc)
    calls = count_draws(monkeypatch)
    named = "runtime failure: non-finite field value detected at step 4 (t = 0.064)\n"
    assert run_cli(["simulate", "--config", cfgfile]) == (2, "", named)
    assert sorted(calls) == [(0, 0, j) for j in range(4)]
    calls.clear()
    code, out, err = run_cli(["ensemble", "--config", cfgfile])
    assert (code, err) == (0, "") and "n_failed = 3\n" in out
    assert sorted(calls) == [(0, m, j) for m in range(3) for j in range(4)]
    with open(os.path.join(tmp_path, "out", "ensemble_report.txt")) as fh:
        report = fh.read()
    for m, step in enumerate((4, 3, 4)):
        assert f"member={m} failed=True blow_up_step={step}\n" in report


def test_memory_does_not_grow_with_steps(tmp_path):
    # a stride-1 run once held every snapshot and its whole noise path: at
    # 32^2 and 400 steps, 12.8 MB of snapshots and path, 6.6 MB read back
    peaks = {}
    for steps in (50, 400):
        out = os.path.join(tmp_path, str(steps))
        cfgfile = write_config(tmp_path, f"{steps}.cfg", n=32, t_final=steps * 0.004, out=out)
        assert run_cli(["simulate", "--config", cfgfile])[0] == 0  # loads numpy's lazy modules
        for argv in (["simulate", "--config", cfgfile],
                     ["partition", "--config", cfgfile, "--trajectory", os.path.join(out, "trajectory.bin")]):
            tracemalloc.start()
            try:
                assert run_cli(argv)[0] == 0
                peaks[argv[0], steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for command in ("simulate", "partition"):
        assert abs(peaks[command, 400] - peaks[command, 50]) < lattice.BLOCK_BYTES, command


BLOW_UP = {  # scheme -> noise amplitude that makes the solve blow up
    "direct": "1e160",
    "dpd": "1e308",
}


OUTPUTS = ("trajectory.bin", "noise_path.bin", "diagnostics.csv", "summary.txt")


@pytest.mark.parametrize("scheme, failure", [
    ("direct", "solve"), ("dpd", "solve"), ("direct", "norm table"), ("direct", "full disk")]
    + [("direct", name) for name in OUTPUTS])
def test_failed_simulate_leaves_no_outputs(tmp_path, monkeypatch, scheme, failure):
    # the four files are written as temporary files and take their names
    # last; a failed write or rename removes every one of them.  The binaries
    # were once published before diagnostics.csv and summary.txt were
    # written in place, and a failed rename left the others as *.tmp
    cfgfile = write_config(tmp_path, n=8, scheme=scheme)
    out_dir = os.path.join(tmp_path, "out")
    if failure in OUTPUTS:  # a directory of its name blocks the file
        os.makedirs(os.path.join(out_dir, failure))
    if failure == "full disk":  # the CSV's write fails after one line
        def emit_csv(ledger, path):
            with open(path, "w") as fh:
                fh.write("time,energy\n")
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(harness, "emit_csv", emit_csv)
    doc = open(cfgfile).read()
    if failure == "solve":
        doc = doc.replace("amplitude = 0.3", f"amplitude = {BLOW_UP[scheme]}")
    elif failure == "norm table":  # test_overflowing_norms_exit_two's initial data
        doc = doc.replace("amplitude = 0.2\nwidth", "amplitude = 1e150\nwidth")
    with open(cfgfile, "w") as fh:
        fh.write(doc)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(["simulate", "--config", cfgfile])
    assert code == 2 and out == ""
    if failure == "norm table":
        assert err == "runtime failure: norm table column grad_l4 is not finite at snapshot 0 (t = 0)\n"
    elif failure == "solve":
        assert err.startswith("runtime failure: non-finite field value detected at step ")
    elif failure == "full disk":
        assert err == "runtime failure: [Errno 28] No space left on device\n"
    else:
        assert err.startswith("runtime failure: [Errno 21] Is a directory: ")
    assert os.listdir(out_dir) == ([failure] if failure in OUTPUTS else [])


@pytest.mark.parametrize("scheme, bad_v, bad_psi", [
    ("direct", 13, None), ("dpd", 13, None), ("dpd", None, 2), ("dpd", 13, 2)])
def test_partition_names_the_first_non_finite_field_in_file_order(
        tmp_path, monkeypatch, scheme, bad_v, bad_psi):
    cfgfile = write_config(tmp_path, n=8, scheme=scheme)
    assert run_cli(["simulate", "--config", cfgfile])[0] == 0
    fname = os.path.join(tmp_path, "out", "trajectory.bin")
    field = 8 * 8 * 16
    header = 8 + struct.calcsize("<QQQddB")
    snaps = 21
    # 4 fields a block, so v field 13 sits in a later block than Psi field 2
    monkeypatch.setattr(lattice, "BLOCK_BYTES", 4 * field)
    with open(fname, "r+b") as fh:
        for index in (bad_v, None if bad_psi is None else snaps + bad_psi):
            if index is not None:
                fh.seek(header + index * field)
                fh.write(struct.pack("<d", np.nan))
    first = bad_v if bad_v is not None else snaps + bad_psi
    message = f"{fname}: field {first} holds a non-finite value"
    assert run_cli(["partition", "--config", cfgfile, "--trajectory", fname]) == (
        2, "", f"runtime failure: {message}\n")
    with pytest.raises(FormatError) as exc:
        dynamics.read_trajectory(fname)
    assert str(exc.value) == message


@pytest.mark.parametrize("snaps", [0, 1])
def test_partition_of_fewer_than_two_snapshots_is_named(tmp_path, snaps):
    # a file with no snapshot feeds the norm pass no block: its table is
    # still one member's, empty, and the partition names the count
    cfgfile = write_config(tmp_path, n=8)
    g = lattice.make_grid(2, 8, 2.0 * np.pi)
    fname = os.path.join(tmp_path, "trajectory.bin")
    with dynamics.TrajectoryWriter(fname, g, "direct", snaps, 0.004) as writer:
        if snaps:
            writer.write(0, np.zeros((1,) + g.shape, dtype=np.complex128))
    assert run_cli(["partition", "--config", cfgfile, "--trajectory", fname]) == (
        2, "", "runtime failure: partitioning needs at least 2 snapshots\n")


@pytest.mark.parametrize("scheme", ["direct", "dpd"])
@pytest.mark.parametrize("dim, n, t_final", [(2, 16, 0.08), (4, 8, 0.024)], ids=["16sq", "8e4"])
def test_columns_on_demand_print_the_full_tables_bytes(tmp_path, monkeypatch, scheme, dim, n,
                                                       t_final):
    # partition makes only the partition's columns and verify-energy only the
    # ledger's; each column has one formula whatever else is made, so their
    # output is the bytes a full table gives
    cfgfile = write_config(tmp_path, dim=dim, n=n, scheme=scheme, t_final=t_final)
    assert run_cli(["simulate", "--config", cfgfile])[0] == 0
    traj = os.path.join(tmp_path, "out", "trajectory.bin")
    runs = {}
    for columns in ("on demand", "full"):
        if columns == "full":
            monkeypatch.setattr(diagnostics, "PARTITION_COLUMNS", diagnostics.COLUMNS)
            monkeypatch.setattr(diagnostics, "LEDGER_COLUMNS", diagnostics.COLUMNS)
        runs[columns] = (run_cli(["partition", "--config", cfgfile, "--trajectory", traj]),
                         run_cli(["verify-energy", "--config", cfgfile, "--halvings", "2"]))
    assert runs["on demand"] == runs["full"]
    assert runs["full"][0][0] == runs["full"][1][0] == 0
