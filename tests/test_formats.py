"""The binary trajectory and noise formats: bytes pinned against the README
spec, and malformed files rejected with a named error."""

import hashlib
import os
import re
import struct

import numpy as np
import pytest

from snls import cli, diagnostics, dynamics, lattice, noise
from snls.errors import FormatError, UsageError
from snls.lattice import make_grid

PARTITION_CONFIG = "[ensemble]\neta = 0.5\n"


def solved(scheme):
    g = make_grid(2, 8, 3.0)
    cfg = dynamics.SolverConfig(
        grid=g, t_final=0.03, dt=0.01, scheme=scheme,
        noise=noise.multiplier_noise(g, 0.2, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8),
        master_seed=4,
    )
    return dynamics.solve(cfg)


def spec_payload(fields):
    """Interleaved (re, im) little-endian float64, field after field."""
    out = b""
    for f in fields:
        for z in f.values:
            out += struct.pack("<dd", z.real, z.imag)
    return out


def spec_trajectory(dim, n, snaps, box_length, dt, tag, payload):
    return (b"SNLSTRJ1" + struct.pack("<QQQ", dim, n, snaps)
            + struct.pack("<dd", box_length, dt) + struct.pack("B", tag) + payload)


class TestGoldenBytes:
    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_trajectory_bytes(self, tmp_path, scheme):
        traj = solved(scheme)
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(traj, fname)
        fields = list(traj.v_snapshots)
        if scheme == "dpd":
            fields += list(traj.psi_snapshots)
        expected = spec_trajectory(2, 8, 4, 3.0, 0.01, dynamics.SCHEMES.index(scheme),
                                   spec_payload(fields))
        with open(fname, "rb") as fh:
            assert fh.read() == expected

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_noise_path_bytes(self, tmp_path, scheme):
        path = solved(scheme).noise_path
        fname = os.path.join(tmp_path, "p.bin")
        noise.write_noise_path(path, fname)
        expected = (b"SNLSNSE1" + struct.pack("<QQQd", 2, 8, 3, 0.01)
                    + spec_payload(lattice.ComplexField(path.grid, row.ravel())
                                   for row in path.physical()))
        with open(fname, "rb") as fh:
            assert fh.read() == expected

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    @pytest.mark.parametrize("n, steps, seed, cutoff, size, digest", [
        (8, 3, 4, None, 3112, "07b7dc42cf697bf59a85e25c18cd4009af989c8ba9726b3af1488ce6a2a1a9dc"),
        # 64 KiB rows: several of the writer's blocks, the last one partial
        (64, 36, 7, 20.0, 2359336, "51098c50f9f0eb5067ed73dfd92d959cab0912e2276b186a9132f6bdb9746b3b"),
    ])
    def test_noise_path_file_digest(self, tmp_path, scheme, n, steps, seed, cutoff, size, digest):
        # sha256 of noise_path.bin as written when the path held physical rows,
        # drawn through field_from_spectral one step at a time
        g = make_grid(2, n, 3.0)
        cfg = dynamics.SolverConfig(
            grid=g, t_final=steps * 0.01, dt=0.01, scheme=scheme,
            noise=noise.multiplier_noise(g, 0.2, 3.0, cutoff),
            initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=seed,
        )
        fname = os.path.join(tmp_path, "p.bin")
        noise.write_noise_path(dynamics.solve(cfg).noise_path, fname)
        with open(fname, "rb") as fh:
            data = fh.read()
        assert len(data) == size and hashlib.sha256(data).hexdigest() == digest

    def test_read_arrays_writable(self, tmp_path):
        traj = solved("dpd")
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(traj, fname)
        back = dynamics.read_trajectory(fname)
        assert back.v_snapshots[-1].values.flags.writeable
        assert back.psi_snapshots[-1].values.flags.writeable
        pname = os.path.join(tmp_path, "p.bin")
        noise.write_noise_path(traj.noise_path, pname)
        assert noise.read_noise_path(pname, 3.0).dw_hat.flags.writeable

    @pytest.mark.parametrize("caller", ["duhamel_residual", "write_trajectory"])
    def test_file_trajectory_has_no_solver_config(self, tmp_path, caller):
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(solved("direct"), fname)
        back = dynamics.read_trajectory(fname)
        calls = {"duhamel_residual": lambda: dynamics.duhamel_residual(back, 1),
                 "write_trajectory": lambda: dynamics.write_trajectory(back, fname + ".copy")}
        with pytest.raises(UsageError, match=f"{caller} needs the solver config"):
            calls[caller]()

    def test_ledger_rejects_file_trajectory(self, tmp_path):
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(solved("direct"), fname)
        with pytest.raises(UsageError):
            diagnostics.ito_ledger(dynamics.read_trajectory(fname))


class TestMalformedTrajectory:
    """Each malformed file ends `snls partition` with exit code 2."""

    def run_partition(self, tmp_path, capsys, data):
        fname = os.path.join(tmp_path, "t.bin")
        with open(fname, "wb") as fh:
            fh.write(data)
        cfg = os.path.join(tmp_path, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(PARTITION_CONFIG)
        code = cli.main(["partition", "--config", cfg, "--trajectory", fname])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("runtime failure")
        assert "Traceback" not in err
        with pytest.raises(FormatError):
            dynamics.read_trajectory(fname)

    def good_payload(self):
        return spec_payload(solved("direct").v_snapshots)

    def test_unknown_scheme_tag(self, tmp_path, capsys):
        self.run_partition(tmp_path, capsys,
                           spec_trajectory(2, 8, 4, 3.0, 0.01, 9, self.good_payload()))

    def test_truncated_payload(self, tmp_path, capsys):
        payload = self.good_payload()[:-24]
        self.run_partition(tmp_path, capsys, spec_trajectory(2, 8, 4, 3.0, 0.01, 0, payload))

    def test_zero_dim(self, tmp_path, capsys):
        self.run_partition(tmp_path, capsys,
                           spec_trajectory(0, 8, 4, 3.0, 0.01, 0, self.good_payload()))

    def test_non_finite_payload(self, tmp_path, capsys):
        payload = struct.pack("<d", np.nan) * (2 * 64 * 4)
        self.run_partition(tmp_path, capsys, spec_trajectory(2, 8, 4, 3.0, 0.01, 0, payload))


class TestMalformedNoisePath:
    def write(self, tmp_path, data):
        fname = os.path.join(tmp_path, "p.bin")
        with open(fname, "wb") as fh:
            fh.write(data)
        return fname

    def test_non_finite_payload(self, tmp_path):
        g = make_grid(1, 8, 1.0)
        bad = lattice.constant_field(g, complex(np.inf, 0.0))
        fname = self.write(tmp_path, b"SNLSNSE1" + struct.pack("<QQQd", 1, 8, 1, 0.1)
                           + spec_payload([bad]))
        with pytest.raises(FormatError):
            noise.read_noise_path(fname, box_length=1.0)

    def test_truncated_payload(self, tmp_path):
        g = make_grid(1, 8, 1.0)
        fname = self.write(tmp_path, b"SNLSNSE1" + struct.pack("<QQQd", 1, 8, 2, 0.1)
                           + spec_payload([lattice.zero_field(g)]))
        with pytest.raises(FormatError):
            noise.read_noise_path(fname, box_length=1.0)


def test_read_rows_names_a_truncated_file(tmp_path):
    # check_payload refuses a short file before any read; read_rows checks its own reads
    g = make_grid(1, 8, 1.0)
    fname = os.path.join(tmp_path, "rows.bin")
    with open(fname, "wb") as fh:
        fh.write(spec_payload([lattice.zero_field(g)] * 2)[:-1])
    with open(fname, "rb") as fh:
        with pytest.raises(FormatError, match=f"^{re.escape(fname)}: payload is truncated$"):
            lattice.read_rows(fh, g, 2)
