import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from snls import cli, dynamics, harness, lattice, noise
from snls.errors import ConfigurationError, WorkerError

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

    def test_non_divisible_dt_rejected(self):
        with pytest.raises(ConfigurationError) as exc:
            harness.parse_config("[time]\ndt = 0.3\nt_final = 1.0\n")
        assert "not an integer" in str(exc.value)

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

    def test_members_differ(self):
        rc = harness.parse_config(BASE_CONFIG)
        rep = harness.run_ensemble(rc)
        finals = [m["final_energy"] for m in rep.members]
        assert len(set(finals)) == 3


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

    def test_noise_stats_member_is_one_solve(self, tmp_path, monkeypatch, capsys):
        calls = {"solve": 0, "step_stochastic_convolution": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*a, **kw):
                calls[name] += 1
                return fn(*a, **kw)
            monkeypatch.setattr(module, name, wrapper)

        counting(dynamics, "solve")
        counting(noise, "step_stochastic_convolution")
        doc = BASE_CONFIG.replace("size = 3", "size = 4") + f"\n[output]\ndir = {tmp_path}/out\n"
        assert cli.main(["noise-stats", "--config", self.write_config(tmp_path, doc)]) == 0
        assert calls == {"solve": 4, "step_stochastic_convolution": 0}

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

    def test_converge_coarse_dt_rounding(self, tmp_path, capsys):
        # 0.3 = 3 * 0.1 coarsens to a path dt of 0.30000000000000004
        doc = (BASE_CONFIG.replace("dt = 0.005", "dt = 0.1")
               .replace("t_final = 0.05", "t_final = 0.6") + f"\n[output]\ndir = {tmp_path}/out\n")
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["converge", "--config", cfgfile, "--dts", "0.3,0.1"]) == 0
        assert "dt = 0.3  error = " in capsys.readouterr().out

    def test_converge_command(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["converge", "--config", cfgfile, "--dts", "0.01,0.005,0.00125"]) == 0
        assert "observed_order" in capsys.readouterr().out

    def test_verify_energy_command(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n"
        cfgfile = self.write_config(tmp_path, doc)
        assert cli.main(["verify-energy", "--config", cfgfile, "--halvings", "2"]) == 0
        assert "literal_non_increasing" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, match", [
        (["verify-energy", "--halvings", "-1"], "halvings must be >= 0"),
        (["converge", "--dts", "abc"], "--dts must be comma-separated numbers"),
        (["converge", "--dts", "0.01,0.005,0"], "must be positive"),
    ])
    def test_bad_study_arguments_exit_two(self, tmp_path, capsys, argv, match):
        cfgfile = self.write_config(tmp_path, BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/out\n")
        assert cli.main([argv[0], "--config", cfgfile] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and match in err

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

    def test_seed_override(self, tmp_path, capsys):
        doc = BASE_CONFIG + f"\n[output]\ndir = {tmp_path}/a\n"
        cfgfile = self.write_config(tmp_path, doc)
        cli.main(["simulate", "--config", cfgfile, "--seed", "1", "--out", f"{tmp_path}/s1"])
        cli.main(["simulate", "--config", cfgfile, "--seed", "2", "--out", f"{tmp_path}/s2"])
        a = open(os.path.join(tmp_path, "s1", "diagnostics.csv")).read()
        b = open(os.path.join(tmp_path, "s2", "diagnostics.csv")).read()
        assert a != b


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
