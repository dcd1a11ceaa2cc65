"""Streamed snapshots: simulate, partition and verify-energy hold blocks of
rows, never a whole trajectory or noise path, and give the bits of the
kept-trajectory route for any block size."""

import contextlib
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest

from snls import cli, diagnostics, dynamics, harness, lattice, noise
from snls.errors import FormatError

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


def kept_route(cfgfile, out_dir):
    """simulate, partition and verify-energy written out on kept trajectories:
    solve, the ledger, the two writers, the partition of the file read back,
    the Strichartz report, and the residual study on coarsened held paths.
    Returns (simulate stdout, its files, partition stdout, verify-energy stdout)."""
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
    fine = noise.generate_noise_path(base.noise, dts[-1], base.n_steps * 4, rc.master_seed)
    residuals = []
    for j, dt in enumerate(dts):
        path = noise.coarsen_noise_path(fine, 2 ** (2 - j)) if base.stochastic else None
        led = diagnostics.ito_ledger(dynamics.solve(dynamics.SolverConfig(
            grid=base.grid, t_final=base.t_final, dt=dt, scheme=base.scheme, noise=base.noise,
            initial_v=base.initial_v, master_seed=base.master_seed, prescribed_path=path)))
        residuals.append((dt, abs(float(led.residual[-1])), abs(float(led.residual_balanced[-1]))))
    verify = "".join(f"dt = {dt!r}  |literal residual| = {lit!r}  |balanced residual| = {bal!r}\n"
                     for dt, lit, bal in residuals)
    lit = [r[1] for r in residuals]
    verify += f"literal_non_increasing = {all(b <= a * (1 + 1e-12) for a, b in zip(lit, lit[1:]))}\n"
    return simulate, read_files(out_dir), partition, verify


@pytest.mark.parametrize("scheme", ["direct", "dpd", "deterministic_gp"])
@pytest.mark.parametrize("dim, n, t_final", [(2, 16, 0.08), (4, 8, 0.024)], ids=["16sq", "8e4"])
def test_block_size_invariance(tmp_path, monkeypatch, scheme, dim, n, t_final):
    cfgfile = write_config(tmp_path, dim=dim, n=n, scheme=scheme, t_final=t_final)
    want = kept_route(cfgfile, os.path.join(tmp_path, "kept"))
    assert ("noise_path.bin" in want[1]) == (scheme != "deterministic_gp")
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


@pytest.mark.parametrize("scheme, failure", [
    ("direct", "solve"), ("dpd", "solve"), ("direct", "norm table")])
def test_failed_simulate_leaves_no_outputs(tmp_path, scheme, failure):
    # the writers stream into temporary files while the run steps
    cfgfile = write_config(tmp_path, n=8, scheme=scheme)
    doc = open(cfgfile).read()
    if failure == "solve":
        doc = doc.replace("amplitude = 0.3", f"amplitude = {BLOW_UP[scheme]}")
    else:  # test_overflowing_norms_exit_two's initial data
        doc = doc.replace("amplitude = 0.2\nwidth", "amplitude = 1e150\nwidth")
    with open(cfgfile, "w") as fh:
        fh.write(doc)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(["simulate", "--config", cfgfile])
    assert code == 2 and out == ""
    if failure == "norm table":
        assert err == "runtime failure: norm table column grad_l4 is not finite at snapshot 0 (t = 0)\n"
    else:
        assert err.startswith("runtime failure: non-finite field value detected at step ")
    assert os.listdir(os.path.join(tmp_path, "out")) == []


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
