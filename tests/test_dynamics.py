import copy
import os
from dataclasses import replace

import numpy as np
import pytest

from snls import diagnostics, dynamics, lattice, noise
from snls.errors import BlowUpError, ConfigurationError, UsageError
from snls.lattice import ComplexField, make_grid

TWO_PI = 2.0 * np.pi


def grid2d(n=16):
    return make_grid(2, n, TWO_PI)


def random_v(grid, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.total_points) + 1j * rng.standard_normal(grid.total_points)
    return ComplexField(grid, scale * vals)


def det_config(grid, v0, t_final=0.1, dt=0.01, scheme="deterministic_gp", **kw):
    return dynamics.SolverConfig(
        grid=grid,
        t_final=t_final,
        dt=dt,
        scheme=scheme,
        noise=noise.zero_noise(grid),
        initial_v=v0,
        **kw,
    )


class TestSolverConfig:
    def test_rejects_unknown_scheme(self):
        g = grid2d()
        with pytest.raises(ConfigurationError):
            det_config(g, lattice.zero_field(g), scheme="magic")

    def test_rejects_non_divisible_dt(self):
        g = grid2d()
        with pytest.raises(ConfigurationError):
            det_config(g, lattice.zero_field(g), t_final=0.1, dt=0.03)

    def test_rejects_bad_stride(self):
        g = grid2d()
        with pytest.raises(ConfigurationError):
            det_config(g, lattice.zero_field(g), t_final=0.1, dt=0.01, snapshot_stride=3)

    @pytest.mark.parametrize("t_final, dt", [(0.1, 0.2), (0.1, 0.0), (0.0, 0.01)])
    def test_rejects_a_step_outside_the_span(self, t_final, dt):
        g = grid2d()
        with pytest.raises(ConfigurationError, match="need 0 < dt <= t_final"):
            det_config(g, lattice.zero_field(g), t_final=t_final, dt=dt)

    def test_n_steps(self):
        g = grid2d()
        cfg = det_config(g, lattice.zero_field(g), t_final=1.0, dt=0.001)
        assert cfg.n_steps == 1000

    @staticmethod
    def path_config(scheme, kind):
        g = grid2d(8)
        spec = noise.multiplier_noise(g, 0.2, 3.0)
        path = noise.generate_noise_path(spec, 0.01, 10, master_seed=1)
        return dynamics.SolverConfig(
            grid=g, t_final=0.1, dt=0.01, scheme=scheme,
            noise=spec if kind == "multiplier" else noise.zero_noise(g),
            initial_v=lattice.zero_field(g), prescribed_path=path)

    @pytest.mark.parametrize("scheme, kind", [
        ("deterministic_gp", "multiplier"), ("deterministic_cubic", "multiplier"),
        ("direct", "zero"), ("dpd", "zero")])
    def test_refuses_a_path_on_a_run_that_draws_no_noise(self, scheme, kind):
        # such a run steps without rows, so its path would go unused while
        # the ledger and the Duhamel residual count no noise terms
        with pytest.raises(ConfigurationError, match=f"scheme {scheme} with {kind} noise"):
            self.path_config(scheme, kind)

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_accepts_a_path_on_a_run_that_draws_noise(self, scheme):
        assert self.path_config(scheme, "multiplier").prescribed_path.n_steps == 10

    @pytest.mark.parametrize("field", ["noise", "initial_v"])
    def test_fields_on_another_grid_are_refused(self, field):
        # once a bare numpy broadcast error inside solve
        g, small = grid2d(16), grid2d(8)
        makers = {"noise": noise.zero_noise, "initial_v": lattice.zero_field}
        fields = {name: make(small if name == field else g) for name, make in makers.items()}
        with pytest.raises(ConfigurationError,
                           match=f"{field} is on .*points_per_axis=8.*points_per_axis=16"):
            dynamics.SolverConfig(grid=g, t_final=0.1, dt=0.01, scheme="direct", **fields)


class TestNonlinearities:
    def test_gp_vanishes_on_unit_circle(self):
        g = grid2d(8)
        theta = np.linspace(0, TWO_PI, g.total_points, endpoint=False)
        u = ComplexField(g, np.exp(1j * theta))
        out = dynamics.gp_nonlinearity(u)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_dpd_matches_gp_identity(self):
        # the expanded remainder nonlinearity must reproduce
        # (|v + 1 + psi|^2 - 1)(v + 1 + psi) exactly
        g = grid2d(8)
        rng = np.random.default_rng(17)
        for trial in range(1000):
            v = ComplexField(g, rng.uniform(-2, 2, g.total_points) + 1j * rng.uniform(-2, 2, g.total_points))
            p = ComplexField(g, rng.uniform(-2, 2, g.total_points) + 1j * rng.uniform(-2, 2, g.total_points))
            u = ComplexField(g, 1.0 + v.values + p.values)
            lhs = dynamics.dpd_nonlinearity(v, p).values
            rhs = dynamics.gp_nonlinearity(u).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_dpd_on_two_grids_is_named(self):
        with pytest.raises(UsageError, match="v and psi live on different grids"):
            dynamics.dpd_nonlinearity(lattice.zero_field(grid2d(16)), lattice.zero_field(grid2d(8)))

    def test_dpd_zero_psi_reduces(self):
        g = grid2d(8)
        v = random_v(g, 3)
        a = dynamics.dpd_nonlinearity(v, lattice.zero_field(g)).values
        u = ComplexField(g, 1.0 + v.values)
        b = dynamics.gp_nonlinearity(u).values
        assert np.allclose(a, b, atol=1e-13)

    def test_phase_substep_preserves_modulus(self):
        g = grid2d(8)
        u = ComplexField(g, 1.0 + random_v(g, 4).values)
        out = dynamics.nonlinear_phase_substep(u, 0.37)
        assert np.allclose(np.abs(out.values), np.abs(u.values), atol=1e-13)

    @pytest.mark.parametrize("shape", [(16, 16), (4, 16, 16), (128, 128), (16,) * 4],
                             ids=["16sq", "4x16sq", "128sq", "16e4"])
    @pytest.mark.parametrize("offset", [1.0, 0.0])
    def test_phase_substep_bits_are_the_exponential(self, shape, offset):
        # cos/sin keep the bits of u * exp(-1j * theta).  The exponential is
        # held by a name: numpy elides a nameless temporary of 256 KiB or
        # more and computes f * u into it, which rounds differently with FMA
        rng = np.random.default_rng(7)
        u = 1.0 + 0.6 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        u.flat[:3] = [1.0, 0.0, 3.0 - 2.0j]  # |u| = 1, u = 0 and |u| > 1
        for dt in (1e-3, 2e-3, 0.37):
            f = np.exp(-1j * (np.abs(u) ** 2 - offset) * dt)
            assert np.array_equal(dynamics._phase_substep(u, dt, offset), u * f)


class TestSolveDeterministic:
    def test_vacuum_is_stationary(self):
        # u = 1 solves the equation exactly; v must stay at machine zero
        g = grid2d()
        cfg = det_config(g, lattice.zero_field(g), t_final=0.5, dt=0.01)
        traj = dynamics.solve(cfg)
        final = lattice.lebesgue_norm(traj.v_snapshots[-1], 2.0)
        assert final <= 1e-12

    def test_l2_conservation(self):
        # mass ||u||_L2 is invariant for the deterministic flow; the split
        # scheme preserves it exactly (both substeps are isometries)
        g = grid2d()
        v0 = dynamics.initial_gaussian_bump(g, 0.2, 1.0)
        cfg = det_config(g, v0, t_final=0.5, dt=0.005)
        traj = dynamics.solve(cfg)
        m0 = lattice.lebesgue_norm(traj.u_snapshot(0), 2.0)
        mT = lattice.lebesgue_norm(traj.u_snapshot(-1), 2.0)
        assert mT == pytest.approx(m0, rel=1e-12)

    def test_snapshot_stride(self):
        g = grid2d(8)
        cfg = det_config(g, lattice.zero_field(g), t_final=0.1, dt=0.01, snapshot_stride=5)
        traj = dynamics.solve(cfg)
        assert traj.n_snapshots == 3
        assert np.allclose(traj.times, [0.0, 0.05, 0.1])

    def test_blow_up_raises_with_step_info(self):
        # |u|^2 overflows in the phase substep and the non-finite guard fires
        g = grid2d(8)
        v0 = lattice.constant_field(g, 1e200)
        cfg = det_config(g, v0, t_final=0.1, dt=0.01)
        with pytest.raises(BlowUpError) as exc, np.errstate(over="ignore", invalid="ignore"):
            dynamics.solve(cfg)
        assert exc.value.step >= 1
        assert exc.value.time == pytest.approx(exc.value.step * 0.01)


class TestSolveStochastic:
    def stochastic_config(self, scheme, seed=0, stream=0, g=None):
        g = g or grid2d()
        return dynamics.SolverConfig(
            grid=g,
            t_final=0.1,
            dt=0.005,
            scheme=scheme,
            noise=noise.multiplier_noise(g, 0.2, 3.0),
            initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8),
            master_seed=seed,
            stream_id=stream,
        )

    def test_reproducible(self):
        a = dynamics.solve(self.stochastic_config("direct", seed=9))
        b = dynamics.solve(self.stochastic_config("direct", seed=9))
        assert np.array_equal(a.v_snapshots[-1].values, b.v_snapshots[-1].values)

    def test_seed_changes_path(self):
        a = dynamics.solve(self.stochastic_config("direct", seed=9))
        b = dynamics.solve(self.stochastic_config("direct", seed=10))
        assert not np.array_equal(a.v_snapshots[-1].values, b.v_snapshots[-1].values)

    def test_noise_path_recorded(self):
        traj = dynamics.solve(self.stochastic_config("direct"))
        assert traj.noise_path is not None
        assert traj.noise_path.n_steps == 20

    def test_shared_increments_across_schemes(self):
        # the same (seed, stream) drives identical increments for both routes
        a = dynamics.solve(self.stochastic_config("direct", seed=4))
        b = dynamics.solve(self.stochastic_config("dpd", seed=4))
        assert a.noise_path.dw_hat.tobytes() == b.noise_path.dw_hat.tobytes()

    def test_prescribed_path_overrides_rng(self):
        cfg = self.stochastic_config("direct", seed=1)
        first = dynamics.solve(cfg)
        replay = dynamics.SolverConfig(
            grid=cfg.grid,
            t_final=cfg.t_final,
            dt=cfg.dt,
            scheme="direct",
            noise=cfg.noise,
            initial_v=cfg.initial_v,
            master_seed=999,
            prescribed_path=first.noise_path,
        )
        second = dynamics.solve(replay)
        assert np.array_equal(first.v_snapshots[-1].values, second.v_snapshots[-1].values)

    def test_prescribed_path_length_checked(self):
        cfg = self.stochastic_config("direct")
        g = cfg.grid
        short = noise.generate_noise_path(cfg.noise, cfg.dt, 3, master_seed=0)
        with pytest.raises(ConfigurationError):
            dynamics.SolverConfig(
                grid=g,
                t_final=cfg.t_final,
                dt=cfg.dt,
                scheme="direct",
                noise=cfg.noise,
                initial_v=cfg.initial_v,
                prescribed_path=short,
            )

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_noise_path_is_the_generated_path(self, scheme):
        # solve draws no increments of its own: its path is generate_noise_path's
        cfg = self.stochastic_config(scheme, seed=5, stream=3)
        got = dynamics.solve(cfg).noise_path
        want = noise.generate_noise_path(cfg.noise, cfg.dt, cfg.n_steps, cfg.master_seed, cfg.stream_id)
        assert (got.grid, got.dt) == (want.grid, want.dt)
        assert got.dw_hat.shape == (cfg.n_steps,) + cfg.grid.shape
        assert got.dw_hat.tobytes() == want.dw_hat.tobytes()

    def test_prescribed_path_is_the_trajectory_path(self):
        cfg = self.stochastic_config("dpd", seed=2)
        path = noise.generate_noise_path(cfg.noise, cfg.dt, cfg.n_steps, master_seed=8)
        assert dynamics.solve(replace(cfg, prescribed_path=path)).noise_path is path

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_prescribed_path_grid_checked(self, scheme):
        # an 8^2 path fed to a 16^2 run once ended in a bare numpy broadcast error
        cfg = self.stochastic_config(scheme)
        small = grid2d(8)
        path = noise.generate_noise_path(
            noise.multiplier_noise(small, 0.2, 3.0), cfg.dt, cfg.n_steps, master_seed=0
        )
        with pytest.raises(ConfigurationError, match="points_per_axis=8.*points_per_axis=16"):
            dynamics.solve(replace(cfg, prescribed_path=path))

    def test_prescribed_path_dt_checked(self):
        # a path drawn at twice the step was once used silently
        cfg = self.stochastic_config("direct")
        path = noise.generate_noise_path(cfg.noise, 2 * cfg.dt, cfg.n_steps, master_seed=0)
        with pytest.raises(ConfigurationError, match="dt = 0.01, solver dt = 0.005"):
            dynamics.solve(replace(cfg, prescribed_path=path))

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_stepwise_draws_match_the_whole_path(self, scheme):
        # at stride 4 solve keeps the path it stepped on, generate_noise_path's,
        # as at stride 1; the snapshots are every 4th of the stride-1 run's
        cfg = replace(self.stochastic_config(scheme, seed=5, stream=2), snapshot_stride=4)
        traj = dynamics.solve(cfg)
        every = dynamics.solve(replace(cfg, snapshot_stride=1))
        whole = noise.generate_noise_path(cfg.noise, cfg.dt, cfg.n_steps, 5, stream_id=2)
        assert traj.noise_path.dw_hat.tobytes() == whole.dw_hat.tobytes()
        assert every.noise_path.dw_hat.tobytes() == whole.dw_hat.tobytes()
        assert np.array_equal(traj.v, every.v[::4])
        assert scheme == "direct" or np.array_equal(traj.psi, every.psi[::4])

    def test_lockstep_levels_are_the_held_path_runs(self, monkeypatch):
        # levels that differ in dt and scheme, the two dpd ones stepping in
        # one set of work arrays: the bits of solve on the coarsened held path;
        # at stride 1 a coarse level's blocks carry its summed rows, which
        # blocks of three rows split
        base = self.stochastic_config("direct", seed=3, stream=1)
        monkeypatch.setattr(lattice, "BLOCK_BYTES", 3 * base.grid.total_points * 16)
        fine = noise.generate_noise_path(base.noise, 0.005, 20, 3, stream_id=1)
        for stride in (5, 1):
            configs = [replace(base, scheme=s, dt=dt, snapshot_stride=stride) for s, dt in
                       (("dpd", 0.02), ("direct", 0.01), ("dpd", 0.005))]
            blocks = [[] for _ in configs]
            assert dynamics.lockstep(configs, [1], [kept(b) for b in blocks]) == [[None]] * 3
            for cfg, got in zip(configs, blocks):
                path = noise.coarsen_noise_path(fine, int(round(cfg.dt / 0.005)))
                want = dynamics.solve(replace(cfg, prescribed_path=path))
                assert np.concatenate([b.v[0] for b in got]).tobytes() == want.v.tobytes()
                assert cfg.scheme == "direct" or (
                    np.concatenate([b.psi[0] for b in got]).tobytes() == want.psi.tobytes())
                if stride == 1:
                    rows = np.concatenate([b.dw_hat[0] for b in got])
                    assert rows.tobytes() == path.dw_hat.tobytes()
                else:
                    assert all(b.dw_hat is None for b in got)

    def test_lockstep_hands_blocks_in_held_arrays(self, monkeypatch):
        # blocks of one row: every level hands each of its blocks in the same
        # arrays, allocating none per block; the physical rows and dw are
        # held memory that all the levels share
        base = self.stochastic_config("dpd", seed=3, stream=1)
        monkeypatch.setattr(lattice, "BLOCK_BYTES", base.grid.total_points * 16)
        configs = [replace(base, dt=dt) for dt in (0.02, 0.01, 0.005)]
        bases = [set() for _ in configs]

        def sink(k):
            def take(block):
                bases[k].add(("v", id(block.v.base)))
                bases[k].add(("dw", id(block.dw.base)))
                bases[k].update((name, id(a.base)) for name, a in (
                    ("v_hat", block.v_hat), ("psi_hat", block.psi_hat), ("dw_hat", block.dw_hat)))
            return take

        assert dynamics.lockstep(configs, [1], [sink(k) for k in range(3)]) == [[None]] * 3
        assert all(len(b) == 5 for b in bases)  # one array each, block after block
        shared = [{a for name, a in b if name in ("v", "dw")} for b in bases]
        assert shared[0] == shared[1] == shared[2]
        own = [{a for name, a in b if name not in ("v", "dw")} for b in bases]
        assert not (own[0] & own[1] or own[1] & own[2] or own[0] & own[2])

    def test_lockstep_steps_a_deterministic_level_without_the_path(self):
        # a coarse deterministic level beside a fine direct one with a path:
        # lockstep sends the path's rows to both, and only the stochastic
        # level steps on them and keeps them; the deterministic level keeps
        # none, and its run is its own solve
        g = grid2d(8)
        v0 = random_v(g, 2)
        noisy = noise.multiplier_noise(g, 0.2, 3.0)
        path = noise.generate_noise_path(noisy, 0.005, 20, master_seed=4)
        configs = [det_config(g, v0, dt=0.01),
                   dynamics.SolverConfig(grid=g, t_final=0.1, dt=0.005, scheme="direct", noise=noisy,
                                         initial_v=v0, prescribed_path=path)]
        blocks = [[], []]
        assert dynamics.lockstep(configs, [0], [kept(b) for b in blocks]) == [[None]] * 2
        assert all(b.dw_hat is None for b in blocks[0])
        assert np.concatenate([b.dw_hat[0] for b in blocks[1]]).tobytes() == path.dw_hat.tobytes()
        for cfg, got in zip(configs, blocks):
            want = dynamics.solve(cfg)
            assert np.concatenate([b.v[0] for b in got]).tobytes() == want.v.tobytes()

    def test_lockstep_dpd_levels_share_one_set_of_work_arrays(self, monkeypatch):
        base = self.stochastic_config("dpd", seed=3, stream=1)
        configs = [replace(base, dt=dt) for dt in (0.02, 0.01, 0.005)]
        pointers, step = [], dynamics.strang_step_dpd

        def recording(dt, work):
            pointers.append(work[0].ctypes.data)
            return step(dt, work)

        monkeypatch.setattr(dynamics, "strang_step_dpd", recording)
        assert dynamics.lockstep(configs, [1], [lambda block: None] * 3) == [[None]] * 3
        assert len(pointers) == 5 + 10 + 20 and len(set(pointers)) == 1

    def test_lockstep_rejects_a_dt_off_the_finest_steps(self):
        base = self.stochastic_config("direct")  # t_final 0.1
        with pytest.raises(UsageError, match="whole multiple"):
            dynamics.lockstep([replace(base, dt=0.02), replace(base, dt=0.0125)], [0], [print, print])

    @pytest.mark.parametrize("match, other", [
        ("differ in noise", dict(amplitude=0.4)),  # once stepped on the 0.2 rows
        ("differ in master_seed", dict(seed=2)),  # once stepped on seed 1's rows
        # once ignored: the level stepped on the drawn rows, summed
        ("dt = 0.02 has its own prescribed_path", dict(dt=0.02, path=True)),
        ("differ in grid", dict(n=8)),  # once a bare numpy broadcast error
        ("differ in t_final", dict(t_final=0.2)),  # once blamed on dt
    ], ids=["noise", "master_seed", "prescribed_path", "grid", "t_final"])
    def test_lockstep_refuses_levels_that_share_no_path(self, match, other):
        def level(n=16, amplitude=0.2, seed=1, dt=0.01, t_final=0.1, path=False):
            g = grid2d(n)
            spec = noise.multiplier_noise(g, amplitude, 3.0)
            own = noise.generate_noise_path(spec, dt, int(round(t_final / dt)), 7) if path else None
            return dynamics.SolverConfig(
                grid=g, t_final=t_final, dt=dt, scheme="direct", noise=spec,
                initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=seed,
                prescribed_path=own)

        with pytest.raises(UsageError, match=match):
            dynamics.lockstep([level(**other), level()], [0], [print, print])

    def test_dpd_psi_matches_standalone_sampler(self):
        traj = dynamics.solve(self.stochastic_config("dpd", seed=6))
        g = traj.grid
        psi = lattice.zero_field(g)
        for inc in traj.noise_path.physical():
            psi, _ = noise.step_stochastic_convolution(
                psi, traj.config.noise, traj.config.dt, increment=ComplexField(g, inc.ravel()))
        assert np.allclose(traj.psi_snapshots[-1].values, psi.values, atol=1e-13)


class TestDuhamelResidual:
    def test_zero_at_initial_time(self):
        g = grid2d()
        traj = dynamics.solve(det_config(g, dynamics.initial_gaussian_bump(g, 0.2, 1.0)))
        assert dynamics.duhamel_residual(traj, 0) <= 1e-14

    def test_decreases_with_dt_deterministic(self):
        g = grid2d()
        v0 = dynamics.initial_gaussian_bump(g, 0.2, 1.0)
        res = []
        for dt in (0.02, 0.01, 0.005):
            traj = dynamics.solve(det_config(g, v0, t_final=0.2, dt=dt))
            res.append(dynamics.duhamel_residual(traj, traj.n_snapshots - 1))
        assert res[0] > res[1] > res[2]

    def test_out_of_range(self):
        g = grid2d(8)
        traj = dynamics.solve(det_config(g, lattice.zero_field(g)))
        with pytest.raises(UsageError):
            dynamics.duhamel_residual(traj, traj.n_snapshots)

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_drawn_rows_match_a_prescribed_path(self, scheme):
        # at stride 2 solve keeps the path it drew, and duhamel_residual reads
        # it; a run given the same path up front keeps it and reads it
        cfg = replace(TestSolveStochastic().stochastic_config(scheme, seed=3, stream=1),
                      snapshot_stride=2)
        drawn = dynamics.solve(cfg)
        path = noise.generate_noise_path(cfg.noise, cfg.dt, cfg.n_steps, 3, stream_id=1)
        given = dynamics.solve(replace(cfg, prescribed_path=path))
        assert drawn.noise_path.dw_hat.tobytes() == path.dw_hat.tobytes()
        assert given.noise_path is path
        residuals = [
            [dynamics.duhamel_residual(t, i) for i in range(drawn.n_snapshots)]
            for t in (drawn, given)
        ]
        assert residuals[0] == residuals[1]
        assert 0 < residuals[0][-1] < 1e-2

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_sweep_draws_no_rows(self, monkeypatch, scheme):
        # a residual at every snapshot of a 20-step stride-2 run once redrew
        # the rows up to it by key on each call: 110 step_rng calls
        cfg = replace(TestSolveStochastic().stochastic_config(scheme, seed=3, stream=1),
                      snapshot_stride=2)
        traj = dynamics.solve(cfg)
        path = noise.generate_noise_path(cfg.noise, cfg.dt, cfg.n_steps, 3, stream_id=1)
        given = dynamics.solve(replace(cfg, prescribed_path=path))
        calls = []
        step_rng = noise.step_rng
        monkeypatch.setattr(noise, "step_rng", lambda *key: calls.append(key) or step_rng(*key))
        swept = [dynamics.duhamel_residual(traj, i) for i in range(traj.n_snapshots)]
        assert calls == []
        assert swept == [dynamics.duhamel_residual(given, i) for i in range(given.n_snapshots)]

    def test_stochastic_run_without_its_path_is_refused(self):
        # such a trajectory is only built by hand; it once redrew its rows by key
        traj = dynamics.solve(replace(
            TestSolveStochastic().stochastic_config("direct", seed=3), snapshot_stride=2))
        with pytest.raises(UsageError, match="duhamel_residual needs the trajectory's noise path"):
            dynamics.duhamel_residual(replace(traj, noise_path=None), -1)

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_stochastic_defect_is_first_order_in_dt(self, scheme):
        # one 200-step path at dt = 1e-3, coarsened by 8, 4, 2 and 1: each
        # halving of dt halves the defect at T = 0.2 (1.996-2.007 on seeds 0-3)
        g = grid2d()
        spec = noise.multiplier_noise(g, 0.3, 3.0)
        fine = noise.generate_noise_path(spec, 1e-3, 200, master_seed=0)
        res = []
        for factor in (8, 4, 2, 1):
            path = noise.coarsen_noise_path(fine, factor)
            traj = dynamics.solve(dynamics.SolverConfig(
                grid=g, t_final=0.2, dt=path.dt, scheme=scheme, noise=spec,
                initial_v=dynamics.initial_gaussian_bump(g, 0.3, 0.5), prescribed_path=path))
            res.append(dynamics.duhamel_residual(traj, traj.n_snapshots - 1))
        for coarse, finer in zip(res, res[1:]):
            assert 1.9 <= coarse / finer <= 2.1

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_sweep_makes_linear_transforms(self, monkeypatch, scheme):
        # every call once integrated over every earlier snapshot again, each
        # through the free group's round trip: about 525 FFTs over a sweep
        # of 21 snapshots; one pass takes two forward transforms a snapshot
        traj = dynamics.solve(TestSolveStochastic().stochastic_config(scheme, seed=3))
        calls = []
        for name in ("fftn", "ifftn"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _real=real, **kw: calls.append(1) or _real(*a, **kw))
        swept = [dynamics.duhamel_residual(traj, i) for i in range(traj.n_snapshots)]
        monkeypatch.undo()
        assert traj.n_snapshots == 21 and len(calls) <= 2 * traj.n_snapshots + 2
        assert swept == [dynamics.duhamel_residual(traj, i) for i in range(traj.n_snapshots)]

    @staticmethod
    def reference_residual(traj, i):
        """duhamel_residual with the noise convolution summed increment by
        increment in physical space, each drawn increment moved by the free group."""
        cfg, t, times = traj.config, float(traj.times[i]), traj.times
        u = [traj.u_snapshot(m) for m in range(i + 1)]
        moved = [lattice.apply_schrodinger_group(dynamics.gp_nonlinearity(f), t - s).values
                 for f, s in zip(u, times)]
        drift = sum(0.5 * (times[m + 1] - times[m]) * (moved[m + 1] + moved[m]) for m in range(i))
        conv = sum(-1j * lattice.apply_schrodinger_group(
            noise.sample_wiener_increment(cfg.noise, cfg.dt, noise.step_rng(cfg.master_seed, cfg.stream_id, j)),
            t - (j + 1) * cfg.dt).values for j in range(i * cfg.snapshot_stride))
        defect = u[i].values - lattice.apply_schrodinger_group(u[0], t).values + 1j * drift - conv
        return lattice.lebesgue_norm(ComplexField(traj.grid, defect), 2.0)

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_noise_convolution_matches_group_reference(self, scheme, stride):
        cfg = replace(TestSolveStochastic().stochastic_config(scheme, seed=3, stream=1),
                      snapshot_stride=stride)
        traj = dynamics.solve(cfg)
        for i in range(1, traj.n_snapshots):
            want = self.reference_residual(traj, i)
            assert abs(dynamics.duhamel_residual(traj, i) - want) <= 1e-12 * want


class TestGaugeTransform:
    def test_pointwise_phase(self):
        g = grid2d()
        traj = dynamics.solve(det_config(g, dynamics.initial_gaussian_bump(g, 0.2, 1.0), t_final=0.2, dt=0.01))
        gt = dynamics.gauge_transform(traj)
        i = gt.n_snapshots - 1
        t = float(gt.times[i])
        expected = np.exp(-1j * t) * traj.u_snapshot(i).values
        assert np.allclose(gt.u_snapshot(i).values, expected, atol=1e-13)

    def test_preserves_modulus(self):
        g = grid2d(8)
        traj = dynamics.solve(det_config(g, random_v(g, 7, scale=0.1)))
        gt = dynamics.gauge_transform(traj)
        for i in range(traj.n_snapshots):
            assert np.allclose(
                np.abs(gt.u_snapshot(i).values), np.abs(traj.u_snapshot(i).values), atol=1e-13
            )


    @pytest.mark.parametrize("caller", ["ito_ledger", "duhamel_residual", "write_trajectory"])
    def test_gauged_snapshots_are_not_a_run(self, tmp_path, caller):
        # a gauged copy once kept its GP run's config and path: the ledger and the
        # residual read e^{-it} u against the GP run's equation, and returned numbers
        cfg = TestSolveStochastic().stochastic_config("direct", seed=1)
        gt = dynamics.gauge_transform(dynamics.solve(cfg))
        fname = os.path.join(tmp_path, "t.bin")
        calls = {"ito_ledger": lambda: diagnostics.ito_ledger(gt),
                 "duhamel_residual": lambda: dynamics.duhamel_residual(gt, gt.n_snapshots - 1),
                 "write_trajectory": lambda: dynamics.write_trajectory(gt, fname)}
        with pytest.raises(UsageError, match=f"{caller} needs the solver config"):
            calls[caller]()
        assert not os.path.exists(fname)

    def test_gauged_dpd_holds_psi_in_v(self):
        traj = dynamics.solve(TestSolveStochastic().stochastic_config("dpd", seed=1))
        gt = dynamics.gauge_transform(traj)
        assert gt.psi is None
        assert all(a is None for a in (gt.config, gt.noise_path, gt.v_hat, gt.psi_hat))
        i = gt.n_snapshots - 1
        expected = np.exp(-1j * gt.times[i]) * traj.u_snapshot(i).values
        assert np.allclose(gt.u_snapshot(i).values, expected, atol=1e-13)


class TestInitialData:
    def test_constant(self):
        g = grid2d(8)
        v0 = dynamics.initial_constant(g, 1.0 + 0.5j)
        assert np.allclose(v0.values, 0.5j, atol=1e-15)

    def test_plane_wave_unit_modulus(self):
        g = grid2d(8)
        v0 = dynamics.initial_plane_wave(g, (1, 2))
        assert np.allclose(np.abs(1.0 + v0.values), 1.0, atol=1e-13)

    def test_plane_wave_dim_check(self):
        g = grid2d(8)
        with pytest.raises(ConfigurationError):
            dynamics.initial_plane_wave(g, (1,))

    def test_bump_peak_at_center(self):
        g = grid2d()
        v0 = dynamics.initial_gaussian_bump(g, 0.3, 0.5)
        assert np.max(v0.values.real) == pytest.approx(0.3, rel=1e-6)
        assert np.all(v0.values.imag == 0.0)

    def test_random_band_without_a_mode_is_named(self):
        # band_max 0.5 lies below the smallest nonzero |k|, 1 on a 2 pi box
        with pytest.raises(ConfigurationError, match="band_max excludes every nonzero mode"):
            dynamics.initial_random_band(grid2d(), h1_norm=1.0, band_max=0.5)

    def test_random_band_norm_and_support(self):
        g = grid2d()
        v0 = dynamics.initial_random_band(g, h1_norm=0.7, band_max=3.0, seed=5)
        assert lattice.sobolev_norm(v0, 1.0, homogeneous=True) == pytest.approx(0.7, rel=1e-12)
        coeffs = lattice.spectral_coefficients(v0)
        ksq = g.ksq()
        assert np.max(np.abs(coeffs[ksq > 9.0 + 1e-9])) < 1e-14


class TestTrajectoryIO:
    def test_round_trip_direct(self, tmp_path):
        g = grid2d(8)
        cfg = dynamics.SolverConfig(
            grid=g,
            t_final=0.1,
            dt=0.01,
            scheme="direct",
            noise=noise.multiplier_noise(g, 0.1, 3.0),
            initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8),
            snapshot_stride=2,
            master_seed=3,
        )
        traj = dynamics.solve(cfg)
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(traj, fname)
        back = dynamics.read_trajectory(fname)
        assert back.scheme == "direct"
        assert back.n_snapshots == traj.n_snapshots
        assert np.allclose(back.times, traj.times, atol=1e-12)
        for a, b in zip(traj.v_snapshots, back.v_snapshots):
            assert np.array_equal(a.values, b.values)

    def test_round_trip_dpd_keeps_psi(self, tmp_path):
        g = grid2d(8)
        cfg = dynamics.SolverConfig(
            grid=g,
            t_final=0.05,
            dt=0.01,
            scheme="dpd",
            noise=noise.multiplier_noise(g, 0.1, 3.0),
            initial_v=lattice.zero_field(g),
            master_seed=3,
        )
        traj = dynamics.solve(cfg)
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(traj, fname)
        back = dynamics.read_trajectory(fname)
        for a, b in zip(traj.psi_snapshots, back.psi_snapshots):
            assert np.array_equal(a.values, b.values)

    def test_header(self, tmp_path):
        g = make_grid(1, 8, 3.0)
        cfg = det_config(g, lattice.zero_field(g), t_final=0.1, dt=0.01)
        traj = dynamics.solve(cfg)
        fname = os.path.join(tmp_path, "t.bin")
        dynamics.write_trajectory(traj, fname)
        back = dynamics.read_trajectory(fname)
        assert back.grid == make_grid(1, 8, 3.0)
        assert (back.n_snapshots, back.scheme) == (11, "deterministic_gp")
        assert back.times[1] == pytest.approx(0.01)

    def test_bad_magic(self, tmp_path):
        fname = os.path.join(tmp_path, "bad.bin")
        with open(fname, "wb") as fh:
            fh.write(b"NOTMAGIC" + b"\x00" * 48)
        with pytest.raises(UsageError):
            dynamics.read_trajectory(fname)


# --- the phase-table stepper ------------------------------------------------


def physical_dpd_solve(cfg):
    """Reference dpd integrator on physical-space state: Psi frozen at its
    freely propagated midpoint value, RK4 of the expanded remainder
    nonlinearity between two half free steps, and the stochastic
    convolution stepped by the standalone sampler.  Returns the (v, Psi)
    values after every step; raises BlowUpError like solve."""
    g, dt = cfg.grid, cfg.dt
    v, psi = cfg.initial_v, lattice.zero_field(g)
    out = [(v.values, psi.values)]
    for j in range(cfg.n_steps):
        inc = noise.sample_wiener_increment(cfg.noise, dt, noise.step_rng(cfg.master_seed, cfg.stream_id, j))
        psi_mid = lattice.apply_schrodinger_group(psi, dt / 2.0)

        def rhs(y):
            return -1j * dynamics.dpd_nonlinearity(ComplexField(g, y), psi_mid).values

        y = lattice.apply_schrodinger_group(v, dt / 2.0).values
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = lattice.apply_schrodinger_group(ComplexField(g, y), dt / 2.0)
        psi, _ = noise.step_stochastic_convolution(psi, cfg.noise, dt, increment=inc)
        if not (lattice.all_finite(v.values) and lattice.all_finite(psi.values)):
            raise BlowUpError(j + 1, (j + 1) * dt)
        out.append((v.values, psi.values))
    return out


def physical_strang_solve(cfg):
    """Reference for direct and the deterministic schemes on physical-space
    state: Strang steps built from apply_schrodinger_group around the phase
    substep, then, for direct, the increment of the standalone sampler.
    Returns v after every step; raises BlowUpError like solve."""
    g, dt = cfg.grid, cfg.dt
    v = cfg.initial_v
    out = [v.values]
    for j in range(cfg.n_steps):
        u = lattice.apply_schrodinger_group(ComplexField(g, 1.0 + v.values), dt / 2.0)
        if cfg.scheme == "deterministic_cubic":
            u = ComplexField(g, u.values * np.exp(-1j * np.abs(u.values) ** 2 * dt))
        else:
            u = dynamics.nonlinear_phase_substep(u, dt)
        u = lattice.apply_schrodinger_group(u, dt / 2.0)
        v = ComplexField(g, u.values - 1.0)
        if cfg.scheme == "direct":
            inc = noise.sample_wiener_increment(cfg.noise, dt, noise.step_rng(cfg.master_seed, cfg.stream_id, j))
            v = ComplexField(g, v.values - 1j * inc.values)
        if not lattice.all_finite(v.values):
            raise BlowUpError(j + 1, (j + 1) * dt)
        out.append(v.values)
    return out


def stepper_config(scheme, g, n_steps=40, stride=1, v0=None, amplitude=0.5, **kw):
    return dynamics.SolverConfig(
        grid=g,
        t_final=n_steps * 0.01,
        dt=0.01,
        scheme=scheme,
        noise=noise.multiplier_noise(g, amplitude, 3.0),
        initial_v=v0 if v0 is not None else dynamics.initial_random_band(g, 1.0, 4.0, seed=2),
        snapshot_stride=stride,
        master_seed=11,
        **kw,
    )


def kept(blocks: list):
    """A sink that keeps a copy of each block: a block's arrays are valid
    only until its sink returns."""
    return lambda block: blocks.append(copy.deepcopy(block))


class TestPhaseTableStepper:
    def count_ffts(self, monkeypatch, cfg, run=dynamics.solve):
        calls = []
        for name in ("fftn", "ifftn"):
            real = getattr(np.fft, name)

            def counted(*args, _real=real, **kwargs):
                calls.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        run(cfg)
        monkeypatch.undo()
        return len(calls)

    @staticmethod
    def linear_flow(cfg):
        """The scheme's flow without its nonlinearity, the route that has it
        now: stochastic_convolution over the stream's rows in Fourier space,
        u_hat for direct, v_hat (no noise) and Psi_hat (from zero) for dpd,
        one transform each way."""
        full = lattice.schrodinger_phase(cfg.grid, cfg.dt)
        rows = (r[0] for r in noise.member_rows(cfg.noise, cfg.dt, cfg.master_seed, [0], cfg.n_steps))
        field = cfg.initial_v.values.reshape(cfg.grid.shape) + (1.0 if cfg.scheme == "direct" else 0.0)
        a_hat = dynamics.stochastic_convolution(
            np.fft.fftn(field), (None,) * cfg.n_steps if cfg.scheme == "dpd" else rows, full)
        if cfg.scheme == "dpd":
            a_hat += dynamics.stochastic_convolution(np.zeros(cfg.grid.shape, dtype=complex), rows, full)
        return np.fft.ifftn(a_hat)

    BUDGETS = [  # scheme, prescribed path, FFTs per step, linear flow
        ("dpd", True, 2, False), ("dpd", False, 2, False), ("direct", False, 2, False),
        ("direct", True, 2, False), ("deterministic_gp", False, 2, False),
        ("deterministic_cubic", False, 2, False), ("direct", False, 0, True), ("dpd", False, 0, True),
    ]

    @pytest.mark.parametrize("scheme, prescribed, budget, linear", BUDGETS, ids=[
        f"{s}-{p}-{b}" + ("-linear" if lin else "") for s, p, b, lin in BUDGETS])
    def test_fft_budget_per_step(self, monkeypatch, scheme, prescribed, budget, linear):
        # the difference of two run lengths, each storing only its final
        # snapshot, leaves the per-step count
        g = grid2d()
        counts = []
        for n in (10, 20):
            cfg = stepper_config(scheme, g, n_steps=n, stride=n)
            if prescribed:
                path = noise.generate_noise_path(cfg.noise, cfg.dt, n, master_seed=3)
                cfg = replace(cfg, prescribed_path=path)
            counts.append(self.count_ffts(monkeypatch, cfg, self.linear_flow if linear else dynamics.solve))
        assert (counts[1] - counts[0]) / 10 <= budget

    @pytest.mark.parametrize("scheme, arrays", [("deterministic_gp", 1), ("dpd", 2)])
    def test_blocks_of_one_snapshot_transform_each_once(self, monkeypatch, scheme, arrays):
        # the first block holds snapshot 0 alone, which is initial_v as
        # given: no inverse FFT for it; one per later block and array, two
        # per step and the initial transform
        g = grid2d(8)
        monkeypatch.setattr(lattice, "BLOCK_BYTES", g.total_points * 16)
        cfg = replace(stepper_config(scheme, g, n_steps=6), noise=noise.zero_noise(g))
        assert self.count_ffts(monkeypatch, cfg) == 1 + 2 * 6 + arrays * 6

    def test_blocks_are_made_as_they_come(self, monkeypatch):
        # _run once listed every block of a run before its first step: a
        # run of 1.1e13 steps outgrew memory before it began
        g = grid2d(8)
        # two snapshots a block, so the sink runs on this thread, not beside the stepper
        monkeypatch.setattr(lattice, "BLOCK_BYTES", 2 * g.total_points * 16)
        made, row_blocks = [], lattice.row_blocks
        monkeypatch.setattr(lattice, "row_blocks", lambda *args: (
            made.append(sl) or sl for sl in row_blocks(*args)))
        seen = []
        dynamics.lockstep([stepper_config("dpd", g, n_steps=6)], [0],
                          [lambda block: seen.append((block.start, len(made)))])
        assert seen == [(0, 1), (2, 2), (4, 3), (6, 4)]

    def test_fft_budget_per_step_zero_noise_dpd(self, monkeypatch):
        # with no increments Psi stays zero, and the step still transforms
        # only v_hat + psi_hat forward and back
        g = grid2d()
        counts = []
        for n in (10, 20):
            cfg = replace(stepper_config("dpd", g, n_steps=n, stride=n), noise=noise.zero_noise(g))
            counts.append(self.count_ffts(monkeypatch, cfg))
        assert (counts[1] - counts[0]) / 10 <= 2
        # and the snapshots equal those of a run fed all-zero increments
        cfg = replace(cfg, snapshot_stride=1)
        zeros = noise.NoisePath(grid=g, dt=cfg.dt, dw_hat=np.zeros((20,) + g.shape, dtype=complex))
        noisy = noise.multiplier_noise(g, 0.5, 3.0)  # a path is only given to a run that draws noise
        fed = dynamics.solve(replace(cfg, noise=noisy, prescribed_path=zeros))
        for got, want in zip(dynamics.solve(cfg).v_snapshots, fed.v_snapshots):
            assert np.array_equal(got.values, want.values)

    def check_dpd_against_physical_space_stepper(self, g, n_steps):
        cfg = stepper_config("dpd", g, n_steps=n_steps)
        traj = dynamics.solve(cfg)
        ref = physical_dpd_solve(cfg)
        assert traj.n_snapshots == len(ref) == n_steps + 1
        for i, (v_ref, psi_ref) in enumerate(ref):
            for got, want in ((traj.v_snapshots[i].values, v_ref), (traj.psi_snapshots[i].values, psi_ref)):
                assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)

    def test_dpd_matches_physical_space_stepper(self):
        self.check_dpd_against_physical_space_stepper(grid2d(), 40)

    def test_dpd_matches_physical_space_stepper_4d(self):
        # the step's one inverse FFT of v_hat + psi_hat and forward FFT of
        # the substep's change, over four axes
        self.check_dpd_against_physical_space_stepper(make_grid(4, 8, TWO_PI), 10)

    @pytest.mark.parametrize("scheme", ["direct", "deterministic_gp", "deterministic_cubic"])
    def test_physical_schemes_match_group_steps(self, scheme):
        g = grid2d()
        cfg = stepper_config(scheme, g, n_steps=20)
        traj = dynamics.solve(cfg)
        ref = physical_strang_solve(cfg)
        assert traj.n_snapshots == len(ref) == 21
        assert np.array_equal(traj.v_snapshots[0].values, cfg.initial_v.values)
        for got, want in zip(traj.v_snapshots, ref):
            assert np.max(np.abs(got.values - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)

    @pytest.mark.parametrize("amplitude, step", [(12.0, 3), (20.0, 2)])
    def test_dpd_blow_up_step_matches_physical_space_stepper(self, amplitude, step):
        g = grid2d()
        cfg = stepper_config("dpd", g, v0=dynamics.initial_gaussian_bump(g, amplitude, 0.8), amplitude=0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as ref:
                physical_dpd_solve(cfg)
            with pytest.raises(BlowUpError) as got:
                dynamics.solve(cfg)
        assert got.value.step == ref.value.step == step

    def test_dpd_psi_blow_up_step_matches_physical_space_stepper(self):
        # an increment that overflows makes Psi non-finite at once and v one step
        # later, so the finiteness check must cover every array of the state
        g = grid2d()
        cfg = stepper_config("dpd", g, amplitude=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as ref:
                physical_dpd_solve(cfg)
            with pytest.raises(BlowUpError) as got:
                dynamics.solve(cfg)
        assert got.value.step == ref.value.step == 1

    @pytest.mark.parametrize("v0_value, noise_amplitude, step", [(1e200, 0.2, 1), (0.2, 1e160, 2)])
    def test_direct_blow_up_step_matches_physical_space_stepper(self, v0_value, noise_amplitude, step):
        # the phase substep overflows once |u|^2 does: at once for a huge
        # initial state, one step after a huge increment; solve sees it in u_hat
        g = grid2d()
        cfg = stepper_config("direct", g, v0=lattice.constant_field(g, v0_value), amplitude=noise_amplitude)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as ref:
                physical_strang_solve(cfg)
            with pytest.raises(BlowUpError) as got:
                dynamics.solve(cfg)
        assert got.value.step == ref.value.step == step

    def test_tables_are_shared_and_read_only(self):
        g = grid2d()
        assert g.ksq() is g.ksq() and not g.ksq().flags.writeable
        spec = noise.multiplier_noise(g, 0.5, 3.0)
        assert spec.multiplier_profile() is spec.multiplier_profile()
        assert not spec.multiplier_profile().flags.writeable
