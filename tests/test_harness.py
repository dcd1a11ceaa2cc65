import os
import re
import resource
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import snls
from snls import cli, dynamics, harness, lattice, noise
from snls.errors import ConfigurationError, UsageError, WorkerError

# for a fresh interpreter that imports this snls
FRESH_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(snls.__file__)))

BASE_CONFIG = """
[grid]
dim = 2
points_per_axis = 16

[time]
dt = 0.005
t_final = 0.05
scheme = direct

[noise]
kind = multiplier
amplitude = 0.2
sigma = 3.0

[initial]
kind = gaussian_bump
amplitude = 0.2
width = 0.8

[ensemble]
size = 3
master_seed = 11
eta = 0.5
"""


class TestParseConfig:
    def test_defaults_on_empty(self):
        rc = harness.parse_config("")
        assert rc.dim == 2
        assert rc.points_per_axis == 64
        assert rc.box_length == pytest.approx(2.0 * np.pi)
        assert rc.dt == 1e-3
        assert rc.t_final == 1.0
        assert rc.noise_kind == "zero"

    def test_full_document(self):
        rc = harness.parse_config(BASE_CONFIG)
        assert rc.points_per_axis == 16
        assert rc.scheme == "direct"
        assert rc.noise_amplitude == 0.2
        assert rc.ensemble_size == 3
        assert rc.initial_kind == "gaussian_bump"

    def test_comments_and_blanks_ignored(self):
        rc = harness.parse_config("# header\n\n[grid]\ndim = 3  # trailing\n")
        assert rc.dim == 3

    def test_unknown_section_line_numbered(self):
        with pytest.raises(ConfigurationError) as exc:
            harness.parse_config("[grid]\ndim = 2\n[physics]\nc = 1\n")
        assert "line 3" in str(exc.value)

    def test_unknown_key_line_numbered(self):
        with pytest.raises(ConfigurationError) as exc:
            harness.parse_config("[grid]\nresolution = 64\n")
        assert "line 2" in str(exc.value)
        assert "resolution" in str(exc.value)

    def test_bad_value_line_numbered(self):
        with pytest.raises(ConfigurationError) as exc:
            harness.parse_config("[time]\ndt = soon\n")
        assert "line 2" in str(exc.value)

    def test_multiple_errors_collected(self):
        doc = "[grid]\ndim = 9\n[time]\ndt = -1\nscheme = magic\n"
        with pytest.raises(ConfigurationError) as exc:
            harness.parse_config(doc)
        msg = str(exc.value)
        assert "dt" in msg and "scheme" in msg and "[grid]" in msg

    @pytest.mark.parametrize("doc, match", [
        ("[output]\nemit_snapshots = maybe\n",
         "line 2: cannot parse value for 'emit_snapshots': 'maybe'"),
        ("[time]\ndt = 0.01\nt_final = 0.1\nsnapshot_stride = 3\n",
         "field 'snapshot_stride': must divide the step count"),
    ])
    def test_bad_time_and_output_values_named(self, doc, match):
        with pytest.raises(ConfigurationError, match=match):
            harness.parse_config(doc)

    @pytest.mark.parametrize("raw, value", [("true", True), ("false", False), ("Off", False)])
    def test_emit_snapshots_parsed(self, raw, value):
        assert harness.parse_config(f"[output]\nemit_snapshots = {raw}\n").emit_snapshots is value

    def test_non_divisible_dt_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            harness.parse_config("[time]\ndt = 0.3\nt_final = 1.0\n")
        assert "not an integer" in str(exc.value)

    @pytest.mark.parametrize("scheme, kind, ok", [
        ("direct", "multiplier", False), ("dpd", "multiplier", False),
        ("direct", "zero", True), ("deterministic_gp", "multiplier", True),
    ])
    def test_ledger_stride_above_one_only_without_noise(self, scheme, kind, ok):
        rc = harness.parse_config(f"[time]\ndt = 0.01\nt_final = 0.1\nsnapshot_stride = 2\n"
                                  f"scheme = {scheme}\n[noise]\nkind = {kind}\n")
        if ok:
            harness.check_ledger_stride(rc)
        else:
            with pytest.raises(ConfigurationError, match="field 'snapshot_stride': must be 1"):
                harness.check_ledger_stride(rc)

    def test_hash_stable_and_sensitive(self):
        a = harness.parse_config(BASE_CONFIG)
        b = harness.parse_config(BASE_CONFIG)
        c = harness.parse_config(BASE_CONFIG.replace("sigma = 3.0", "sigma = 4.0"))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    @pytest.mark.parametrize("section, line, field", [
        ("noise", "amplitude = -0.1", "amplitude"),
        ("noise", "amplitude = nan", "amplitude"),
        ("noise", "amplitude = inf", "amplitude"),
        ("noise", "sigma = nan", "sigma"),
        ("noise", "cutoff = nan", "cutoff"),
        ("noise", "cutoff = -1", "cutoff"),
        ("initial", "amplitude = nan", "amplitude"),
        ("initial", "alpha_re = inf", "alpha_re"),
        ("initial", "alpha_im = nan", "alpha_im"),
        ("initial", "width = 0", "width"),
        ("initial", "width = inf", "width"),
        ("initial", "band_max = -2", "band_max"),
        ("initial", "h1_norm = nan", "h1_norm"),
        ("initial", "h1_norm = -1", "h1_norm"),
        ("time", "dt = nan", "dt"),
    ])
    def test_bad_field_value_rejected(self, section, line, field):
        # checked whatever the noise or initial-data kind: kind = zero here
        with pytest.raises(ConfigurationError, match=f"field '{field}' in \\[{section}\\]"):
            harness.parse_config(f"[{section}]\n{line}\n")

    def test_cutoff_infinity_accepted(self):
        assert harness.parse_config("[noise]\ncutoff = inf\n").noise_cutoff == np.inf


class TestBuilders:
    def test_solver_config_round_trip(self):
        rc = harness.parse_config(BASE_CONFIG)
        cfg = harness.build_solver_config(rc, stream_id=2)
        assert cfg.grid.points_per_axis == 16
        assert cfg.scheme == "direct"
        assert cfg.stream_id == 2
        assert cfg.noise.kind == "multiplier"

    def test_initial_kinds(self):
        for kind, extra in (
            ("constant", "alpha_re = 0.9"),
            ("plane_wave", "mode = 1,0"),
            ("gaussian_bump", "amplitude = 0.2"),
            ("random_band", "h1_norm = 0.5"),
        ):
            rc = harness.parse_config(f"[initial]\nkind = {kind}\n{extra}\n")
            v0 = harness.build_initial(rc, harness.build_grid(rc))
            assert v0.values.shape == (rc.points_per_axis**2,)


class TestRunEnsemble:
    def test_serial_report(self):
        rc = harness.parse_config(BASE_CONFIG)
        rep = harness.run_ensemble(rc)
        assert len(rep.members) == 3
        assert rep.n_failed == 0
        assert rep.aggregates["n_members"] == 3
        assert np.isfinite(rep.aggregates["sup_energy_mean"])
        assert rep.provenance["config_hash"] == rc.config_hash()

    def test_pool_matches_serial(self):
        rc = harness.parse_config(BASE_CONFIG)
        serial = harness.run_ensemble(rc)
        rc2 = harness.parse_config(BASE_CONFIG + "\nworkers = 2\n"
                                   if "[ensemble]" not in BASE_CONFIG
                                   else BASE_CONFIG.replace("eta = 0.5", "eta = 0.5\nworkers = 2"))
        pooled = harness.run_ensemble(rc2)
        for a, b in zip(serial.members, pooled.members):
            assert a["final_energy"] == b["final_energy"]
            assert a["sup_energy"] == b["sup_energy"]

    def test_pool_opens_one_worker_per_batch(self, monkeypatch):
        # fork starts every requested worker at the first submit; a fake pool
        # records the request and maps serially, so no process starts
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        rc = replace(harness.parse_config(BASE_CONFIG), ensemble_size=2)
        serial = harness.run_ensemble(rc)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        assert harness.run_ensemble(replace(rc, workers=64)) == serial
        assert opened == [2]

    def test_members_differ(self):
        rc = harness.parse_config(BASE_CONFIG)
        rep = harness.run_ensemble(rc)
        finals = [m["final_energy"] for m in rep.members]
        assert len(set(finals)) == 3

    def test_some_members_blow_up(self):
        # rough noise drives dpd's RK4 substep unstable on most streams, not all
        doc = (BASE_CONFIG.replace("points_per_axis = 16", "points_per_axis = 8")
               .replace("dt = 0.005", "dt = 0.01").replace("scheme = direct", "scheme = dpd")
               .replace("amplitude = 0.2\nsigma = 3.0", "amplitude = 80\nsigma = 1.0"))
        rc = replace(harness.parse_config(doc), ensemble_size=6, master_seed=1)
        with np.errstate(over="ignore", invalid="ignore"):  # forked workers inherit it
            serial = harness.run_ensemble(rc)
            pooled = harness.run_ensemble(replace(rc, workers=2))
        assert serial.members == pooled.members and serial.aggregates == pooled.aggregates
        failed = [m for m in serial.members if m["failed"]]
        assert 0 < len(failed) == serial.n_failed < 6
        assert all(m["blow_up_step"] >= 1 for m in failed)
        assert all(np.isfinite(serial.aggregates[k + "_mean"]) for k in ("final_energy", "residual_final"))

    # 8^2 dpd with rough noise: most members blow up, at different steps
    BLOW_UP = (BASE_CONFIG.replace("points_per_axis = 16", "points_per_axis = 8")
               .replace("dt = 0.005", "dt = 0.01").replace("scheme = direct", "scheme = dpd")
               .replace("amplitude = 0.2\nsigma = 3.0", "amplitude = 80\nsigma = 1.0")
               .replace("master_seed = 11", "master_seed = 1"))
    # 16^2 dpd, no member blowing up
    DPD_16SQ = BASE_CONFIG.replace("scheme = direct", "scheme = dpd")

    @pytest.mark.parametrize("doc, size", [
        # 64 members at 16^2: one batch of all of them holds 256 KiB per state
        # array, numpy's temporary-elision size, where the phase substep's
        # operand order once changed with the batch
        (BASE_CONFIG, 64),
        (BLOW_UP, 12),
        # 40 steps at a third of the noise: members blow up at steps 14-33,
        # some zeroed members blow up a second time before the last one first
        # does, and each keeps the step of its first blow-up
        (BLOW_UP.replace("t_final = 0.05", "t_final = 0.4").replace("amplitude = 80", "amplitude = 30"), 24),
        # dpd's RK4 substep writes into held work arrays of 256 KiB here
        (DPD_16SQ, 64),
    ], ids=["direct-16sq", "dpd-blow-up", "dpd-blow-up-40-steps", "dpd-16sq"])
    def test_batch_size_invariance(self, tmp_path, monkeypatch, doc, size):
        rc = replace(harness.parse_config(doc), ensemble_size=size)
        member_bytes = dynamics.member_bytes(harness.build_solver_config(rc))

        def report(batch, workers=1):
            monkeypatch.setattr(harness, "BATCH_BYTES", batch * member_bytes)
            run = replace(rc, workers=workers)
            assert len(harness._batches(run)[0]) == min(batch, -(-size // workers))
            path = os.path.join(tmp_path, f"{batch}-{workers}.txt")
            with np.errstate(over="ignore", invalid="ignore"):  # forked workers inherit it
                harness.write_report(harness.run_ensemble(run), path)
            return open(path, "rb").read()

        want = report(1)
        for batch, workers in ((3, 1), (5, 1), (size, 1), (size, 2)):
            assert report(batch, workers) == want, (batch, workers)
        assert doc in (BASE_CONFIG, self.DPD_16SQ) or b"failed=True" in want

    def test_all_members_blow_up(self, tmp_path, capsys):
        # the report once printed final_energy_mean = nan and each standard error as 0.0
        doc = (BASE_CONFIG.replace("points_per_axis = 16", "points_per_axis = 8")
               .replace("amplitude = 0.2\nsigma", "amplitude = 1e307\nsigma"))
        cfgfile = os.path.join(tmp_path, "run.cfg")
        with open(cfgfile, "w") as fh:
            fh.write(doc + f"\n[output]\ndir = {tmp_path}/out\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["ensemble", "--config", cfgfile]) == 0
        assert capsys.readouterr().out == "n_members = 3\nn_failed = 3\n"
        report = open(os.path.join(tmp_path, "out", "ensemble_report.txt")).read()
        assert "[aggregates]\nn_members = 3\nn_failed = 3\n\n[members]" in report


class TestConvergenceStudy:
    def test_rejects_non_decreasing(self):
        rc = harness.parse_config(BASE_CONFIG)
        with pytest.raises(Exception):
            harness.convergence_study(rc, [0.001, 0.001])

    def test_deterministic_strang_second_order(self):
        doc = BASE_CONFIG.replace("kind = multiplier", "kind = zero").replace(
            "scheme = direct", "scheme = deterministic_gp"
        ).replace("t_final = 0.05", "t_final = 0.2")
        rc = harness.parse_config(doc)
        study = harness.convergence_study(rc, [0.02, 0.01, 0.005, 0.00125])
        assert not study["at_round_off"]
        assert 1.7 <= study["observed_order"] <= 2.3

    def test_stochastic_errors_decrease(self):
        rc = harness.parse_config(BASE_CONFIG)
        study = harness.convergence_study(rc, [0.01, 0.005, 0.00125])
        errs = study["errors_vs_finest"]
        assert errs[0] > errs[1] > 0


class TestResidualRefinement:
    def test_structure_and_balanced_decrease(self):
        rc = harness.parse_config(BASE_CONFIG)
        study = harness.residual_refinement_study(rc, n_halvings=2)
        assert len(study["dts"]) == 3
        assert study["balanced_residuals"][0] > study["balanced_residuals"][-1]
        assert study["discrepancy"] == (not study["literal_non_increasing"])

    def test_discrepancy_report_written(self, tmp_path):
        rc = harness.parse_config(BASE_CONFIG)
        study = harness.residual_refinement_study(rc, n_halvings=2)
        path = os.path.join(tmp_path, "disc.txt")
        harness.write_discrepancy_report(study, path)
        text = open(path).read()
        assert "literal" in text and "balanced" in text


class TestEmission:
    def test_csv_round_trip(self, tmp_path):
        rows = [
            {"time": 0.0, "energy": 0.1, "ham1": 0.0, "ham2": 0.0, "ham3": 0.0,
             "residual": 0.0, "x1_cum": 0.0, "l6_cum": 0.0},
            {"time": 0.1, "energy": 0.1234567890123456, "ham1": 1e-7, "ham2": 0.0,
             "ham3": -2e-9, "residual": 3e-16, "x1_cum": 0.5, "l6_cum": 0.25},
        ]
        path = os.path.join(tmp_path, "d.csv")
        harness.emit_csv(rows, path)
        lines = open(path).read().strip().splitlines()
        assert lines[0].split(",") == list(rows[0].keys())
        back = [float(x) for x in lines[2].split(",")]
        assert back == [rows[1][k] for k in rows[1]]

    def test_csv_overwrite_idempotent(self, tmp_path):
        path = os.path.join(tmp_path, "d.csv")
        rows = [{"time": 0.0, "energy": 1.0}]
        harness.emit_csv(rows, path)
        harness.emit_csv(rows, path)
        assert len(open(path).read().strip().splitlines()) == 2

    @pytest.mark.parametrize("write, match", [
        (lambda path: harness.emit_csv([{"time": 0.0}], path), "cannot write CSV to"),
        (lambda path: harness.write_report(harness.EnsembleReport([], {}, {}), path),
         "cannot write report to"),
    ], ids=["emit_csv", "write_report"])
    def test_writing_into_a_missing_directory_is_named(self, tmp_path, write, match):
        with pytest.raises(UsageError, match=match):
            write(os.path.join(tmp_path, "missing", "out.txt"))

    def test_write_report(self, tmp_path):
        rc = harness.parse_config(BASE_CONFIG.replace("size = 3", "size = 2"))
        rep = harness.run_ensemble(rc)
        path = os.path.join(tmp_path, "rep.txt")
        harness.write_report(rep, path)
        text = open(path).read()
        assert "[provenance]" in text and "[aggregates]" in text and "[members]" in text


class TestCli:
    def write_config(self, tmp_path, doc):
        path = os.path.join(tmp_path, "run.cfg")
        with open(path, "w") as fh:
            fh.write(doc)
        return path

    def test_simulate_exit_zero(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\nemit_snapshots = true\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfgfile]) == 0
        assert os.path.exists(os.path.join(tmp_path, "out", "diagnostics.csv"))
        assert os.path.exists(os.path.join(tmp_path, "out", "trajectory.bin"))
        assert os.path.exists(os.path.join(tmp_path, "out", "summary.txt"))

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfgfile = self.write_config(tmp_path, "[time]\ndt = nope\n")
        assert cli.main(["simulate", "--config", cfgfile]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        missing = os.path.join(tmp_path, "nope.cfg")
        assert cli.main(["simulate", "--config", missing]) == 2

    def test_ensemble_command(self, tmp_path, capsys):
        doc = BASE_CONFIG.replace("size = 3", "size = 2") + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["ensemble", "--config", cfgfile]) == 0
        assert os.path.exists(os.path.join(tmp_path, "out", "ensemble_report.txt"))

    def test_noise_stats_command(self, tmp_path, capsys):
        doc = BASE_CONFIG.replace("size = 3", "size = 50") + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["noise-stats", "--config", cfgfile]) == 0
        text = open(os.path.join(tmp_path, "out", "noise_stats.txt")).read()
        assert "ito_isometry_target" in text

    def test_noise_stats_is_the_reference_psi_loop(self, tmp_path, capsys):
        # members are dpd solves; the physical-space reference loop on the same
        # (seed, member, step) keys gives the same second moment
        doc = (BASE_CONFIG.replace("dt = 0.005", "dt = 0.01").replace("size = 3", "size = 20")
               + f"\n[output]\ndir = {tmp_path}/out\n")
        rc = harness.parse_config(doc)
        assert (rc.points_per_axis, int(round(rc.t_final / rc.dt))) == (16, 5)
        assert cli.main(["noise-stats", "--config", self.write_config(tmp_path, doc)]) == 0
        got = float(re.search(r"^E_psi_H1_sq = (\S+)$", capsys.readouterr().out, re.M).group(1))
        grid = harness.build_grid(rc)
        spec = harness.build_noise(rc, grid)
        h1_sq = []
        for m in range(rc.ensemble_size):
            psi = lattice.zero_field(grid)
            for j in range(5):
                rng = noise.step_rng(rc.master_seed, m, j)
                psi, _ = noise.step_stochastic_convolution(psi, spec, rc.dt, rng)
            h1_sq.append(lattice.sobolev_norm(psi, 1.0) ** 2)
        assert got > 0
        assert got == pytest.approx(np.mean(h1_sq), rel=1e-12)

    @pytest.mark.parametrize("points, dim", [(16, 2), (8, 4)])
    def test_noise_stats_member_is_the_psi_of_a_dpd_solve(self, points, dim):
        # noise-stats runs the recursion over a batch of members' rows; member
        # m's Psi(T) is that of a nonlinear dpd solve on stream m, byte for byte
        g = lattice.make_grid(dim, points, 2.0 * np.pi)
        spec = noise.multiplier_noise(g, 0.3, 3.5)
        n_steps, members = 6, range(4)
        psi = dynamics.stochastic_convolution(
            np.zeros((len(members),) + g.shape, dtype=np.complex128),
            noise.member_rows(spec, 0.01, 5, members, n_steps), lattice.schrodinger_phase(g, 0.01))
        np.fft.ifftn(psi, axes=g.axes, out=psi)
        for m in members:
            cfg = dynamics.SolverConfig(
                grid=g, t_final=n_steps * 0.01, dt=0.01, scheme="dpd", noise=spec,
                initial_v=dynamics.initial_gaussian_bump(g, 0.3, 0.8), snapshot_stride=n_steps,
                master_seed=5, stream_id=m)
            traj = dynamics.solve(cfg)
            assert np.abs(traj.v[-1]).max() > 1e-3  # the solve is nonlinear
            assert psi[m].tobytes() == traj.psi[-1].tobytes()

    def test_noise_stats_does_not_depend_on_the_batch_size(self, tmp_path, monkeypatch, capsys):
        doc = BASE_CONFIG.replace("size = 3", "size = 7") + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        texts = []
        for block_bytes in (lattice.BLOCK_BYTES, 16 * 16**2):  # all 7 members at once, then one a batch
            monkeypatch.setattr(lattice, "BLOCK_BYTES", block_bytes)
            assert cli.main(["noise-stats", "--config", cfgfile]) == 0
            texts.append(open(os.path.join(tmp_path, "out", "noise_stats.txt"), "rb").read())
        assert texts[0] == texts[1]
        assert b"E_psi_H1_sq = 0.0\n" not in texts[0]

    def test_noise_stats_ffts_do_not_grow_with_steps(self, tmp_path, monkeypatch, capsys):
        # Psi stays in Fourier space over the steps and its H^1 norm is read
        # off the Fourier rows: no FFT, at n and 2n steps alike
        calls = []
        for name in ("fftn", "ifftn"):
            def counted(*args, _real=getattr(np.fft, name), **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        counts = []
        for t_final in ("0.05", "0.1"):  # 10 and 20 steps
            doc = (BASE_CONFIG.replace("t_final = 0.05", f"t_final = {t_final}")
                   + f"\n[output]\ndir = {tmp_path}/out\n")
            calls.clear()
            assert cli.main(["noise-stats", "--config", self.write_config(tmp_path, doc)]) == 0
            counts.append(len(calls))
        assert counts[0] == 0
        assert counts[1] - counts[0] == 0

    def test_noise_stats_memory_does_not_grow_with_steps(self, tmp_path, capsys):
        # a member once held its whole path: 400 fields of 16 KB here
        doc = (BASE_CONFIG.replace("points_per_axis = 16", "points_per_axis = 32")
               .replace("dt = 0.005", "dt = 0.001").replace("t_final = 0.05", "t_final = 0.4")
               .replace("size = 3", "size = 1") + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        field_bytes = 16 * 32**2
        assert cli.main(["noise-stats", "--config", cfgfile]) == 0  # loads numpy.random's modules
        tracemalloc.start()
        try:
            assert cli.main(["noise-stats", "--config", cfgfile]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * field_bytes

    @pytest.mark.parametrize("value", ["-0.1", "nan"])
    def test_bad_noise_amplitude_exit_one(self, tmp_path, capsys, value):
        # -0.1 once ended in a runtime failure (exit 2), nan in a nan report
        doc = (BASE_CONFIG.replace("amplitude = 0.2\nsigma", f"amplitude = {value}\nsigma")
               + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        for command in ("simulate", "ensemble"):
            assert cli.main([command, "--config", cfgfile]) == 1
            err = capsys.readouterr().err
            assert "configuration error" in err and "field 'amplitude' in [noise]" in err

    def test_stochastic_stride_exit_one_before_solve(self, tmp_path, monkeypatch, capsys):
        # simulate and ensemble once solved the whole run, then exited 2 from ito_ledger
        solves = []
        monkeypatch.setattr(dynamics, "solve", lambda cfg: solves.append(cfg))
        doc = (BASE_CONFIG.replace("scheme = direct", "scheme = direct\nsnapshot_stride = 2")
               + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        for command in ("simulate", "ensemble"):
            assert cli.main([command, "--config", cfgfile]) == 1
            err = capsys.readouterr().err
            assert "configuration error" in err and "field 'snapshot_stride'" in err
        assert solves == []

    def test_stochastic_stride_leaves_no_out_directory(self, tmp_path, capsys):
        # the refused run once still created its --out directory
        doc = BASE_CONFIG.replace("scheme = direct", "scheme = direct\nsnapshot_stride = 2")
        cfgfile = self.write_config(tmp_path, doc)
        for command in ("simulate", "ensemble"):
            out = os.path.join(tmp_path, command)
            assert cli.main([command, "--config", cfgfile, "--out", out]) == 1
            assert "field 'snapshot_stride'" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_converge_coarse_dt_rounding(self, tmp_path, capsys):
        # 0.3 = 3 * 0.1 coarsens to a path dt of 0.30000000000000004
        doc = (BASE_CONFIG.replace("dt = 0.005", "dt = 0.1")
               .replace("t_final = 0.05", "t_final = 0.6") + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["converge", "--config", cfgfile, "--dts", "0.6,0.3,0.1"]) == 0
        assert "dt = 0.3  error = " in capsys.readouterr().out

    def test_converge_command(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["converge", "--config", cfgfile, "--dts", "0.01,0.005,0.00125"]) == 0
        assert "observed_order" in capsys.readouterr().out

    def test_converge_makes_no_out_directory(self, tmp_path, capsys):
        # converge writes no file, yet once left an empty --out directory behind
        out = os.path.join(tmp_path, "out")
        cfgfile = self.write_config(tmp_path, BASE_CONFIG)
        assert cli.main(["converge", "--config", cfgfile, "--out", out,
                         "--dts", "0.01,0.005,0.00125"]) == 0
        assert "observed_order" in capsys.readouterr().out
        assert not os.path.exists(out)

    def test_verify_energy_command(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["verify-energy", "--config", cfgfile, "--halvings", "2"]) == 0
        assert "literal_non_increasing" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, match", [
        (["verify-energy", "--halvings", "-1"], "halvings must be >= 0"),
        (["converge", "--dts", "abc"], "--dts must be comma-separated numbers"),
        (["converge", "--dts", "0.01,0.005,0"], "must be positive"),
        (["converge", "--dts", "0.025,0.01,0.00625"], "multiple of the finest dt"),
        # 2**1100 overflowed float conversion, a traceback
        (["verify-energy", "--halvings", "1100"], "--halvings 1100 takes dt = 0.005 out of the normal"),
        (["converge", "--levels", "1100"], "--levels 1100 takes dt = 0.005 out of the normal"),
        # t_final / inf = 0 is whole: a configuration error, exit 1
        (["converge", "--dts", "inf,0.01,0.005"], "dt = inf does not divide t_final = 0.05"),
        # one error has no slope: an order needs three levels, not a silent nan
        (["converge", "--levels", "1"], "at least 3 dt levels, got 1"),
        (["converge", "--levels", "0"], "at least 3 dt levels, got 0"),
        (["converge", "--levels", "2"], "at least 3 dt levels, got 2"),
        (["converge", "--dts", "0.01,0.005"], "at least 3 dt levels, got 2"),
        (["converge", "--dts", "0.01,0.02,0.005"], "strictly decreasing"),
    ])
    def test_bad_study_arguments_exit_two(self, tmp_path, capsys, argv, match):
        cfgfile = self.write_config(tmp_path, BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main([argv[0], "--config", cfgfile] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and match in err

    def test_converge_default_levels(self, tmp_path, capsys):
        # without --dts: --levels 3 doublings of dt
        doc = (BASE_CONFIG.replace("dt = 0.005", "dt = 0.0025")
               + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["converge", "--config", cfgfile]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in lines[:2]] == ["dt = 0.01", "dt = 0.005"]
        assert lines[2].startswith("observed_order = ")

    def test_unallocatable_grid_exits_two(self, tmp_path, capsys):
        # a 4-d complex field of 8192 points per axis is 64 PiB, past the
        # address space: the allocation fails at once and touches no memory
        doc = (BASE_CONFIG.replace("dim = 2", "dim = 4")
               .replace("points_per_axis = 16", "points_per_axis = 8192")
               + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and err.count("\n") == 1

    def test_a_bare_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        # a list that outgrows memory raises MemoryError with no message,
        # and the line once read "runtime failure: " and nothing more: an
        # exception with no message is named by its type
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(harness, "residual_refinement_study", exhausted)
        cfgfile = self.write_config(tmp_path, BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["verify-energy", "--config", cfgfile]) == 2
        assert capsys.readouterr().err == "runtime failure: MemoryError\n"

    def test_a_huge_step_count_fails_at_once_under_a_memory_cap(self, tmp_path):
        # --halvings 40 asks for 1.1e13 steps at the finest level.  _run once
        # listed the run's blocks, and _deliver made the whole run's times
        # for each block: uncapped, the kernel killed the process; capped,
        # the list's MemoryError printed no message.  Now the first level
        # whose times do not fit fails to allocate them, and numpy's
        # message names the allocation.  Only ever run capped.
        doc = (BASE_CONFIG.replace("dt = 0.005", "dt = 0.01").replace("t_final = 0.05", "t_final = 0.1")
               + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        run = subprocess.run(
            [sys.executable, "-m", "snls.cli", "verify-energy", "--config", cfgfile, "--halvings", "40"],
            preexec_fn=cap, capture_output=True, text=True, timeout=60,
            env=dict(FRESH_ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
        assert run.returncode == 2
        assert run.stderr.startswith("runtime failure: Unable to allocate ")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, workers):
        # the same bound the config file's workers field gets
        cfgfile = self.write_config(tmp_path, BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["ensemble", "--config", cfgfile, "--workers", workers]) == 2
        err = capsys.readouterr().err
        assert err == f"runtime failure: --workers must be >= 1, got {workers}\n"

    def test_partition_command(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\nemit_snapshots = true\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", cfgfile]) == 0
        traj = os.path.join(tmp_path, "out", "trajectory.bin")
        assert cli.main(["partition", "--config", cfgfile, "--trajectory", traj]) == 0
        assert "J =" in capsys.readouterr().out

    # finite fields whose |u|^4 overflows float64: the norm table once held inf and nan
    OVERFLOW = (BASE_CONFIG.replace("points_per_axis = 16", "points_per_axis = 8")
                .replace("amplitude = 0.2\nwidth", "amplitude = 1e150\nwidth"))
    OVERFLOW_ERR = "runtime failure: norm table column grad_l4 is not finite at snapshot 0 (t = 0)\n"

    def test_overflowing_norms_exit_two(self, tmp_path, capsys):
        # simulate once printed final_energy = inf and final_residual = nan, exit 0
        cfgfile = self.write_config(tmp_path, self.OVERFLOW + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["simulate", "--config", cfgfile]) == 2
        assert capsys.readouterr().err == self.OVERFLOW_ERR
        assert not os.path.exists(os.path.join(tmp_path, "out", "diagnostics.csv"))
        # and ensemble once recorded those members as failed=False with nan values
        assert cli.main(["ensemble", "--config", cfgfile]) == 0
        assert capsys.readouterr().out == "n_members = 3\nn_failed = 3\n"

    def test_partition_overflowing_norms_exit_two(self, tmp_path, capsys):
        # partition once printed x1 = inf for every interval, exit 0
        cfgfile = self.write_config(tmp_path, self.OVERFLOW)
        traj = os.path.join(tmp_path, "trajectory.bin")
        dynamics.write_trajectory(dynamics.solve(harness.build_solver_config(harness.parse_config(
            self.OVERFLOW))), traj)
        assert cli.main(["partition", "--config", cfgfile, "--trajectory", traj]) == 2
        # partition makes only the partition's columns, the first of them a gradient column
        assert capsys.readouterr().err == self.OVERFLOW_ERR.replace("grad_l4", "v_grad_l12o5")

    def test_sixth_power_overflow_exit_two(self, tmp_path, capsys):
        # the norm table is finite here, but the ledger, the partition and the
        # Strichartz report integrate sixth powers of its columns: simulate once
        # printed grad_L6t_L12/5x = inf, s1_proxy = inf and x1 = inf, exit 0
        doc = self.OVERFLOW.replace("amplitude = 1e150", "amplitude = 1e51")
        cfgfile = self.write_config(tmp_path, doc + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["simulate", "--config", cfgfile]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: norm table column grad_l12o5^6 (running sum) is not finite "
            "at snapshot 1 (t = 0.005)\n")
        assert not os.path.exists(os.path.join(tmp_path, "out", "diagnostics.csv"))
        assert cli.main(["ensemble", "--config", cfgfile]) == 0
        assert capsys.readouterr().out == "n_members = 3\nn_failed = 3\n"

    # |grad v| is about 1e-150 on this box, so |grad v|^4 underflowed before the
    # cell measure (1.6e298) multiplied it: simulate once printed grad_L2t_L4x,
    # grad_L6t_L12/5x and x1 as 0.0 with grad_Linft_L2x = 0.363, exit 0
    UNDERFLOW = (BASE_CONFIG.replace("dim = 2", "dim = 2\nbox_length = 1e150")
                 .replace("points_per_axis = 16", "points_per_axis = 8")
                 .replace("width = 0.8", "width = 1e149").replace("dt = 0.005", "dt = 0.01")
                 .replace("size = 3", "size = 1"))

    def test_underflowing_norms_exit_two(self, tmp_path, capsys):
        cfgfile = self.write_config(tmp_path, self.UNDERFLOW + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["simulate", "--config", cfgfile]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: norm table column grad_l4 underflows at snapshot 0 (t = 0)\n")
        assert os.listdir(os.path.join(tmp_path, "out")) == []
        assert cli.main(["ensemble", "--config", cfgfile]) == 0
        assert capsys.readouterr().out == "n_members = 1\nn_failed = 1\n"

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_vacuum_reports_zero_norms(self, tmp_path, capsys, scheme):
        # a zero field's norms are 0.0, not an underflow
        doc = (BASE_CONFIG.replace("scheme = direct", f"scheme = {scheme}")
               .replace("kind = multiplier\namplitude = 0.2\nsigma = 3.0", "kind = zero")
               .replace("kind = gaussian_bump\namplitude = 0.2\nwidth = 0.8", "kind = constant"))
        cfgfile = self.write_config(tmp_path, doc + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["simulate", "--config", cfgfile]) == 0
        out = capsys.readouterr().out
        for name in ("grad_L2t_L4x", "grad_L6t_L12/5x", "grad_Linft_L2x", "L6_tx_u_minus_1", "x1"):
            assert f"\n{name} = 0.0\n" in out

    def test_noise_stats_overflow_exit_two(self, tmp_path, capsys):
        # noise-stats once printed E_psi_H1_sq = inf and standard_error = nan, exit 0
        doc = (BASE_CONFIG.replace("points_per_axis = 16", "points_per_axis = 8")
               .replace("amplitude = 0.2\nsigma", "amplitude = 1e307\nsigma"))
        cfgfile = self.write_config(tmp_path, doc + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main(["noise-stats", "--config", cfgfile]) == 2
        assert capsys.readouterr().err == (
            "runtime failure: noise-stats: E_psi_H1_sq = inf is not finite\n")
        assert not os.path.exists(os.path.join(tmp_path, "out", "noise_stats.txt"))

    # float ** once raised OverflowError from GridSpec.volume, a traceback, and
    # a volume that underflowed to 0.0 failed at step 1 after a RuntimeWarning
    @pytest.mark.parametrize("dim, box_length", [("2", "1e155"), ("4", "1e80"), ("2", "1e-300")])
    def test_box_outside_the_normal_floats_exits_one(self, tmp_path, capsys, dim, box_length):
        doc = BASE_CONFIG.replace("dim = 2", f"dim = {dim}\nbox_length = {box_length}").replace(
            "points_per_axis = 16", "points_per_axis = 8")
        cfgfile = self.write_config(tmp_path, doc + f"\n[output]\ndir = {tmp_path}/out\n")
        for command in ("simulate", "ensemble", "noise-stats", "verify-energy"):
            assert cli.main([command, "--config", cfgfile]) == 1
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and f"box_length = {float(box_length)!r}" in err
        assert not os.path.exists(os.path.join(tmp_path, "out"))

    # width**2 underflows to 0.0, so the bump's centre is 0/0: numpy warned,
    # and the run failed at snapshot 0 or step 1 with exit 2
    @pytest.mark.parametrize("argv", [["simulate"], ["converge", "--dts", "0.01,0.005,0.00125"]])
    def test_non_finite_initial_data_exits_one(self, tmp_path, argv):
        doc = BASE_CONFIG.replace("width = 0.8", "width = 1e-200")
        cfgfile = self.write_config(tmp_path, doc + f"\n[output]\ndir = {tmp_path}/out\n")
        run = subprocess.run([sys.executable, "-m", "snls.cli", argv[0], "--config", cfgfile] + argv[1:],
                             capture_output=True, text=True, env=FRESH_ENV)
        assert run.returncode == 1
        assert run.stderr == "configuration error:\ninitial_v holds a non-finite value\n"

    def test_seed_override(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/a\n"
        cfgfile = self.write_config(tmp_path, doc)
        cli.main(["simulate", "--config", cfgfile, "--seed", "1", "--out", f"{tmp_path}/s1"])
        cli.main(["simulate", "--config", cfgfile, "--seed", "2", "--out", f"{tmp_path}/s2"])
        a = open(os.path.join(tmp_path, "s1", "diagnostics.csv")).read()
        b = open(os.path.join(tmp_path, "s2", "diagnostics.csv")).read()
        assert a != b


# a fresh interpreter: what importing snls and setting up a stochastic run
# loads beyond a bare `import numpy`
SET_UP_PROBE = """
import sys
import numpy
bare = set(sys.modules)
import snls
from snls import cli, harness
harness.build_solver_config(harness.parse_config(sys.stdin.read()))
print(" ".join(sorted(set(sys.modules) - bare)))
"""


def test_set_up_loads_no_pool_and_no_hash():
    # the pool loads with --workers > 1 and hashlib with the first config_hash
    run = subprocess.run([sys.executable, "-c", SET_UP_PROBE], input=BASE_CONFIG,
                         capture_output=True, text=True, env=FRESH_ENV, check=True)
    loaded = run.stdout.split()
    assert "snls.harness" in loaded
    for name in ("concurrent.futures", "multiprocessing", "hashlib", "numpy.random"):
        assert not [m for m in loaded if m == name or m.startswith(name + ".")], name


def _die_in_worker(rc, member):
    """Stand-in member task that kills its worker process."""
    os._exit(3)


class TestRunIdentity:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_eta_rejected(self, value):
        with pytest.raises(ConfigurationError, match="eta"):
            harness.parse_config(BASE_CONFIG.replace("eta = 0.5", f"eta = {value}"))

    def test_cli_out_and_workers_keep_hash(self, tmp_path, capsys):
        cfgfile = os.path.join(tmp_path, "run.cfg")
        with open(cfgfile, "w") as fh:
            fh.write(BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/a\n")
        hashes = []
        for out, workers in (("a", "1"), ("b", "2")):
            argv = ["simulate", "--config", cfgfile, "--out", f"{tmp_path}/{out}",
                    "--workers", workers]
            assert cli.main(argv) == 0
            summary = open(os.path.join(tmp_path, out, "summary.txt")).read()
            hashes.append(re.search(r"^config_hash = (\w+)$", summary, re.M).group(1))
        assert hashes[0] == hashes[1]


class TestWorkerCrash:
    # forked workers inherit the patched module attribute; 2 processes start

    def test_run_ensemble_names_the_ensemble(self, monkeypatch):
        monkeypatch.setattr(harness, "_member_summary", _die_in_worker)
        rc = replace(harness.parse_config(BASE_CONFIG), ensemble_size=2, workers=2)
        with pytest.raises(WorkerError, match="ensemble of 2 members"):
            harness.run_ensemble(rc)

    def test_cli_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "_member_summary", _die_in_worker)
        cfgfile = os.path.join(tmp_path, "run.cfg")
        doc = BASE_CONFIG.replace("size = 3", "size = 2") + f"\n[output]\ndir = {tmp_path}\n"
        with open(cfgfile, "w") as fh:
            fh.write(doc)
        assert cli.main(["ensemble", "--config", cfgfile, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "runtime failure" in err and "worker process died" in err
