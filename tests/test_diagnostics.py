import functools
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snls import diagnostics, dynamics, lattice, noise
from snls.errors import UsageError
from snls.lattice import ComplexField, SpacetimeInterval, make_grid

TWO_PI = 2.0 * np.pi


def grid2d(n=16):
    return make_grid(2, n, TWO_PI)


def stochastic_traj(scheme="direct", seed=0, n=16, t_final=0.1, dt=0.005, amp=0.2):
    g = grid2d(n)
    cfg = dynamics.SolverConfig(
        grid=g,
        t_final=t_final,
        dt=dt,
        scheme=scheme,
        noise=noise.multiplier_noise(g, amp, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8),
        master_seed=seed,
    )
    return dynamics.solve(cfg)


class TestEnergy:
    def test_vacuum_zero(self):
        g = grid2d()
        assert diagnostics.energy(lattice.zero_field(g)) == 0.0

    def test_phase_constant_zero(self):
        # u = e^{i theta} keeps |u| = 1 and has no gradient, so E = 0
        g = grid2d(8)
        v = lattice.constant_field(g, np.exp(0.7j) - 1.0)
        assert diagnostics.energy(v) == pytest.approx(0.0, abs=1e-13)

    def test_cosine_oracle(self):
        # oracle: 4096-point quadrature of the integrand for v* = 0.1 cos(2x)
        # on the 1-d box, gradient taken analytically
        g = make_grid(1, 64, TWO_PI)
        x = g.coordinate_mesh()[0]
        v = lattice.field_from_mesh(g, (0.1 * np.cos(2.0 * x)).astype(complex))
        assert diagnostics.energy(v) == pytest.approx(0.09430668446994861, rel=1e-10)

    def test_nonnegative_random(self):
        g = grid2d(8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = ComplexField(g, rng.standard_normal(g.total_points)
                             + 1j * rng.standard_normal(g.total_points))
            assert diagnostics.energy(v) >= 0.0

    def test_gauge_invariance(self):
        # E depends on u only through grad u and |u|, so a constant phase on u
        # leaves it unchanged
        g = grid2d(8)
        rng = np.random.default_rng(3)
        v = ComplexField(g, 0.3 * (rng.standard_normal(g.total_points)
                                   + 1j * rng.standard_normal(g.total_points)))
        u = 1.0 + v.values
        rotated = ComplexField(g, np.exp(1.1j) * u - 1.0)
        assert diagnostics.energy(rotated) == pytest.approx(diagnostics.energy(v), rel=1e-12)


class TestItoLedger:
    def test_deterministic_residual_small(self):
        g = grid2d(32)
        cfg = dynamics.SolverConfig(
            grid=g, t_final=0.2, dt=0.001, scheme="deterministic_gp",
            noise=noise.zero_noise(g),
            initial_v=dynamics.initial_gaussian_bump(g, 0.1, 1.0),
        )
        led = diagnostics.ito_ledger(dynamics.solve(cfg))
        assert np.all(led.ham1 == 0.0)
        assert np.all(led.ham2 == 0.0)
        assert np.all(led.ham3 == 0.0)
        rel = np.max(np.abs(led.residual)) / led.energy[0]
        assert rel < 1e-5

    def test_unapplied_noise_has_no_drift(self):
        # deterministic_gp never applies the configured noise, so the ledger
        # carries none of its drift: the residual is the energy change itself
        traj = stochastic_traj("deterministic_gp", amp=0.3)
        assert not traj.config.stochastic and traj.config.noise.kind == "multiplier"
        led = diagnostics.ito_ledger(traj)
        assert np.all(led.ham1 == 0.0) and np.all(led.ham2 == 0.0) and np.all(led.ham3 == 0.0)
        assert np.array_equal(led.residual, led.energy - led.energy[0])
        assert np.array_equal(led.residual_balanced, led.energy - led.energy[0])

    def test_requires_noise_path(self):
        traj = stochastic_traj()
        traj.noise_path = None
        with pytest.raises(UsageError):
            diagnostics.ito_ledger(traj)

    def test_requires_unit_stride(self, monkeypatch):
        # the ledger once drew the whole path again before it refused the stride
        g = grid2d(8)
        cfg = dynamics.SolverConfig(
            grid=g, t_final=0.1, dt=0.005, scheme="direct",
            noise=noise.multiplier_noise(g, 0.1, 3.0),
            initial_v=lattice.zero_field(g), snapshot_stride=2,
        )
        traj = dynamics.solve(cfg)
        keys = []
        step_rng = noise.step_rng

        def counting(*key):
            keys.append(key)
            return step_rng(*key)
        monkeypatch.setattr(noise, "step_rng", counting)
        with pytest.raises(UsageError, match="snapshot_stride = 1, got 2"):
            diagnostics.ito_ledger(traj)
        assert keys == []

    def test_ham1_is_linear_in_time(self):
        led = diagnostics.ito_ledger(stochastic_traj())
        slope = led.ham1[-1] / led.times[-1]
        assert np.allclose(led.ham1, slope * led.times, rtol=1e-12)
        assert np.allclose(led.ham1_balanced, 0.5 * led.ham1, rtol=1e-12)

    def test_ham1_slope_value(self):
        traj = stochastic_traj()
        led = diagnostics.ito_ledger(traj)
        spec = traj.config.noise
        expected = (noise.hs_norm(spec, 1.0, homogeneous=True) ** 2
                    + noise.hs_norm(spec, 0.0) ** 2)
        assert led.ham1[-1] / led.times[-1] == pytest.approx(expected, rel=1e-12)

    def test_balanced_residual_refines_to_zero(self):
        # the balanced drift closes the Ito identity: halving dt shrinks the
        # final residual; the literal drift leaves an O(1) gap
        g = grid2d(8)

        def run(dt):
            cfg = dynamics.SolverConfig(
                grid=g, t_final=0.1, dt=dt, scheme="direct",
                noise=noise.multiplier_noise(g, 0.2, 3.0),
                initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8),
                master_seed=12,
            )
            return diagnostics.ito_ledger(dynamics.solve(cfg))

        bal = [abs(run(dt).residual_balanced[-1]) for dt in (0.01, 0.005, 0.0025)]
        assert bal[0] > bal[-1]

    def test_cumulative_norms_monotone(self):
        led = diagnostics.ito_ledger(stochastic_traj())
        assert np.all(np.diff(led.x1_cum) >= -1e-15)
        assert np.all(np.diff(led.l6_cum) >= -1e-15)
        assert led.x1_cum[0] == 0.0

    def test_csv_rows_shape(self):
        led = diagnostics.ito_ledger(stochastic_traj())
        rows = led.csv_rows()
        assert len(rows) == len(led.times)
        assert set(rows[0]) == {"time", "energy", "ham1", "ham2", "ham3",
                                "residual", "x1_cum", "l6_cum"}


class TestPartition:
    def test_rejects_bad_eta(self):
        traj = stochastic_traj()
        with pytest.raises(UsageError):
            diagnostics.partition_intervals(traj, 0.0)

    def test_covers_without_gaps(self):
        traj = stochastic_traj()
        part = diagnostics.partition_intervals(traj, 0.05)
        assert part.intervals[0].start_index == 0
        assert part.intervals[-1].end_index == traj.n_snapshots - 1
        for a, b in zip(part.intervals, part.intervals[1:]):
            assert b.start_index == a.end_index

    def test_norms_below_eta_unless_irreducible(self):
        traj = stochastic_traj()
        for eta in (0.02, 0.1, 0.5):
            part = diagnostics.partition_intervals(traj, eta)
            for nrm, irr in zip(part.norms, part.irreducible):
                if not irr:
                    assert nrm <= eta

    def test_j_nonincreasing_in_eta(self):
        traj = stochastic_traj()
        etas = np.geomspace(0.01, 1.0, 6)
        js = [diagnostics.partition_intervals(traj, e).J for e in etas]
        assert all(a >= b for a, b in zip(js, js[1:]))

    def test_large_eta_single_interval(self):
        traj = stochastic_traj()
        part = diagnostics.partition_intervals(traj, 1e6)
        assert part.J == 1
        assert not part.irreducible[0]


@functools.lru_cache(maxsize=None)
def traj_and_u():
    """A dpd trajectory and its u snapshots, made once."""
    traj = stochastic_traj("dpd", seed=3, amp=0.4)
    return traj, [traj.u_snapshot(i) for i in range(traj.n_snapshots)]


class TestStrichartzReport:
    def test_free_flow_pair_constancy(self):
        # for the free group on v with no nonlinearity the Linf_t L2_x entry
        # equals ||grad u0||_L2 (an isometry in every Sobolev norm)
        g = grid2d()
        v0 = dynamics.initial_gaussian_bump(g, 0.2, 1.0)
        times = np.arange(21) * 0.01
        traj = dynamics.Trajectory(
            grid=g, scheme="deterministic_gp", times=times,
            v=np.array([lattice.apply_schrodinger_group(v0, t).mesh for t in times]),
        )
        rep = diagnostics.strichartz_report(traj, SpacetimeInterval(0, traj.n_snapshots - 1))
        grad0 = lattice._lp_of_values(
            lattice.gradient_magnitude(traj.u_snapshot(0)), 2.0, g.cell_measure
        )
        assert rep["grad_Linft_L2x"] == pytest.approx(grad0, rel=1e-10)

    def test_s1_proxy_is_max(self):
        traj = stochastic_traj()
        rep = diagnostics.strichartz_report(traj, SpacetimeInterval(0, traj.n_snapshots - 1))
        assert rep["s1_proxy"] == max(
            rep["grad_L2t_L4x"], rep["grad_L6t_L12/5x"], rep["grad_Linft_L2x"]
        )

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.0, 0.5), ends=st.tuples(st.integers(0, 20), st.integers(0, 20)))
    def test_s1_proxy_is_the_admissible_supremum(self, s, ends):
        # 1/q = s and 1/r = 1/2 - s/2 lie on the 4-d admissible segment
        # 2/q + 4/r = 2, from (inf, 2) at s = 0 to (2, 4) at s = 1/2
        traj, u = traj_and_u()
        itv = SpacetimeInterval(min(ends), max(ends))
        q = lattice.INF if s == 0.0 else 1.0 / s
        mixed = lattice.spacetime_norm(u, traj.times, itv, q, 2.0 / (1.0 - s), derivative_order=1)
        rep = diagnostics.strichartz_report(traj, itv)
        assert mixed <= rep["s1_proxy"] * (1 + 1e-12)

    def test_subinterval_smaller(self):
        traj = stochastic_traj()
        full = diagnostics.strichartz_report(traj, SpacetimeInterval(0, traj.n_snapshots - 1))
        half = diagnostics.strichartz_report(traj, SpacetimeInterval(0, traj.n_snapshots // 2))
        for key in ("grad_L2t_L4x", "grad_L6t_L12/5x", "L6_tx_u_minus_1", "x1"):
            assert half[key] <= full[key] * (1 + 1e-12)

    def test_interval_validated(self):
        traj = stochastic_traj()
        with pytest.raises(UsageError):
            diagnostics.strichartz_report(traj, SpacetimeInterval(0, traj.n_snapshots))


def combined_x1(traj, i, j):
    """X^1 norm of the v part plus that of the Psi part over [i, j]."""
    itv = SpacetimeInterval(i, j)
    return (lattice.x1_norm(traj.v_snapshots, traj.times, itv)
            + lattice.x1_norm(traj.psi_snapshots, traj.times, itv))


def brute_force_partition(traj, eta):
    """The greedy rule written out on lattice.x1_norm: every candidate
    interval's norm is recomputed from its snapshots."""
    out, i, n = [], 0, traj.n_snapshots
    while i < n - 1:
        j = i + 1
        if combined_x1(traj, i, j) <= eta:
            while j < n - 1 and combined_x1(traj, i, j + 1) <= eta:
                j += 1
        norm = combined_x1(traj, i, j)
        out.append(((i, j), norm, norm > eta))
        i = j
    return out


def with_nan_snapshot(traj, index=5):
    """The trajectory with one v snapshot replaced by a NaN field."""
    traj.v_snapshots[index].values[:] = np.nan
    return traj


class TestPartitionOracle:
    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_matches_brute_force_greedy(self, scheme):
        traj = stochastic_traj(scheme, seed=2, amp=0.4)
        n = traj.n_snapshots
        # from below the smallest single-step norm to above the whole-run norm
        lo = min(combined_x1(traj, i, i + 1) for i in range(n - 1))
        hi = combined_x1(traj, 0, n - 1)
        js = set()
        for eta in np.geomspace(0.9 * lo, 1.1 * hi, 24):
            part = diagnostics.partition_intervals(traj, eta)
            expected = brute_force_partition(traj, eta)
            got = [(itv.start_index, itv.end_index) for itv in part.intervals]
            assert got == [e[0] for e in expected]
            assert part.irreducible == [e[2] for e in expected]
            np.testing.assert_allclose(part.norms, [e[1] for e in expected], rtol=1e-12)
            js.add(part.J)
        # the grid crosses from all-irreducible steps to one interval
        assert min(js) == 1 and max(js) == n - 1 and len(js) > 5

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_rejects_non_finite_eta(self, eta):
        with pytest.raises(UsageError, match="eta"):
            diagnostics.partition_intervals(stochastic_traj(), eta)


class TestStrichartzOracle:
    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_entries_match_spacetime_norm_of_u(self, scheme):
        traj = stochastic_traj(scheme, seed=4)
        g, times = traj.grid, traj.times
        u = [traj.u_snapshot(i) for i in range(traj.n_snapshots)]
        u_minus_1 = [ComplexField(g, f.values - 1.0) for f in u]
        for itv in (SpacetimeInterval(0, traj.n_snapshots - 1), SpacetimeInterval(3, 11),
                    SpacetimeInterval(7, 7)):
            rep = diagnostics.strichartz_report(traj, itv)
            pairs = {
                "grad_L2t_L4x": lattice.spacetime_norm(u, times, itv, 2.0, 4.0, 1),
                "grad_L6t_L12/5x": lattice.spacetime_norm(u, times, itv, 6.0, 12.0 / 5.0, 1),
                "grad_Linft_L2x": lattice.spacetime_norm(u, times, itv, lattice.INF, 2.0, 1),
            }
            expected = dict(
                pairs,
                s1_proxy=max(pairs.values()),
                L6_tx_u_minus_1=lattice.spacetime_norm(u_minus_1, times, itv, 6.0, 6.0, 0),
                x1=lattice.x1_norm(u, times, itv),
            )
            assert rep.keys() == expected.keys()
            for key, value in expected.items():
                assert rep[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestNonFiniteSnapshot:
    def test_partition(self):
        with pytest.raises(UsageError, match="snapshot 5 holds a non-finite value"):
            diagnostics.partition_intervals(with_nan_snapshot(stochastic_traj()), 0.5)

    def test_strichartz_report(self):
        traj = with_nan_snapshot(stochastic_traj("dpd"))
        with pytest.raises(UsageError, match="snapshot 5 holds a non-finite value"):
            diagnostics.strichartz_report(traj, SpacetimeInterval(3, traj.n_snapshots - 1))

    def test_ito_ledger(self):
        with pytest.raises(UsageError, match="snapshot 5 holds a non-finite value"):
            diagnostics.ito_ledger(with_nan_snapshot(stochastic_traj()))


@pytest.mark.parametrize("column, error", [
    ([0.0, 1e-60, 1.0], "norm table column grad_l12o5^6 (running sum) underflows at snapshot 1 "
                        "(t = 0.1)"),
    ([0.0, 0.0, 1.0], None),  # a zero field
    ([1.0, 1e-60, 1e-60], None),  # a sixth power lost in a normal running sum
], ids=["underflow", "zero", "normal-sum"])
def test_a_running_sum_of_sixth_powers_underflows(column, error):
    # x1 = 0.0 would be read off a column of nonzero norms whose sixth powers all underflow
    got = diagnostics._checked({"grad_l12o5": np.array(column)}, np.arange(3) * 0.1, None, {})
    assert (None if got is None else str(got)) == error


class TestSnapshotNormTable:
    def run_all(self, traj):
        diagnostics.ito_ledger(traj)
        diagnostics.partition_intervals(traj, 0.1)
        diagnostics.strichartz_report(traj, SpacetimeInterval(0, traj.n_snapshots - 1))

    @pytest.mark.parametrize("scheme, per_snapshot", [("direct", 1), ("dpd", 2)])
    def test_one_gradient_per_snapshot_field(self, monkeypatch, scheme, per_snapshot):
        # the three diagnostics share one gradient pass: of v* (= v unless
        # dpd), and for dpd also of Psi, grad v being grad v* - grad Psi;
        # a second call takes none
        traj = stochastic_traj(scheme)
        fields = []  # one entry per gradient field: a stack adds one per field it holds
        real = lattice.spectral_derivatives

        def counted(grid, uhat, out):
            fields.extend([1] * (uhat.size // grid.total_points))
            return real(grid, uhat, out)

        monkeypatch.setattr(lattice, "spectral_derivatives", counted)
        self.run_all(traj)
        assert len(fields) == per_snapshot * traj.n_snapshots
        self.run_all(traj)
        assert len(fields) == per_snapshot * traj.n_snapshots

    def test_nan_snapshot_outside_strichartz_interval(self):
        # the table covers every snapshot, not only the interval's
        traj = with_nan_snapshot(stochastic_traj(), index=15)
        with pytest.raises(UsageError, match="snapshot 15 holds a non-finite value"):
            diagnostics.strichartz_report(traj, SpacetimeInterval(0, 5))

    def test_copies_start_without_a_table(self):
        traj = stochastic_traj()
        assert traj.norms is None
        diagnostics.snapshot_norms(traj)
        assert traj.norms is not None
        assert replace(traj).norms is None
        assert dynamics.gauge_transform(traj).norms is None


@pytest.mark.parametrize("source", ["streamed", "kept", "file"])
@pytest.mark.parametrize("scheme", ["direct", "dpd", "deterministic_gp"])
@pytest.mark.parametrize("column", diagnostics.COLUMNS)
def test_a_column_asked_for_alone_is_the_full_pass_column(tmp_path, monkeypatch, source, scheme,
                                                           column):
    # any column set is valid: a column asked for alone is made by its
    # group, with the full pass's bits; blocks of two snapshots, so several
    g = grid2d()
    monkeypatch.setattr(lattice, "BLOCK_BYTES", 2 * g.total_points * 16)
    cfg = dynamics.SolverConfig(
        grid=g, t_final=0.02, dt=0.005, scheme=scheme, noise=noise.multiplier_noise(g, 0.2, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=2)

    def norms(columns):
        if source == "streamed":
            ((table,),) = diagnostics.solve_tables([cfg], [cfg.stream_id], columns=columns)
            return table.norms
        traj = dynamics.solve(cfg)
        if source == "kept":
            return diagnostics.norm_table(g, traj.blocks(), cfg, columns).norms
        fname = os.path.join(tmp_path, "trajectory.bin")
        dynamics.write_trajectory(traj, fname)
        return diagnostics.norm_table(g, dynamics.trajectory_blocks(fname)[3],
                                      columns=columns).norms

    full, alone = norms(diagnostics.COLUMNS), norms((column,))
    rows = source != "file" and scheme != "deterministic_gp"  # ham3_steps needs noise rows
    assert alone.keys() == ({column} if rows or column != "ham3_steps" else set())
    assert alone.keys() <= full.keys()
    for key, col in alone.items():
        assert col.tobytes() == full[key].tobytes()


def test_an_unknown_column_is_named():
    with pytest.raises(UsageError, match="unknown norm table column 'grad_l3'"):
        diagnostics.NormAccumulator(grid2d(), ("grad_l2", "grad_l3"))


def ham3_integrand(v_star):
    """|v*|^2 conj(v*) - Lap conj(v*) + |v*|^2 + 2 Re(v*) conj(v*) + 2 Re(v*)."""
    v = v_star.values
    vb = np.conj(v)
    lap_vb = np.conj(lattice.laplacian(v_star).values)
    return np.abs(v) ** 2 * vb - lap_vb + np.abs(v) ** 2 + 2.0 * v.real * vb + 2.0 * v.real


def running_trapezoid(y, times):
    out = [0.0]
    for k in range(len(times) - 1):
        out.append(out[-1] + 0.5 * (times[k + 1] - times[k]) * (y[k] + y[k + 1]))
    return np.array(out)


def reference_table_and_ledger(traj):
    """The norm table and the ledger computed one snapshot at a time from
    single-field lattice.gradient_magnitude and lattice.laplacian calls."""
    g, cell, times = traj.grid, traj.grid.cell_measure, traj.times
    cfg, n = traj.config, traj.n_snapshots

    def lr(values, r):
        return (np.sum(np.abs(values) ** r) * cell) ** (1.0 / r)

    hs_l2 = noise.hs_norm(cfg.noise, 0.0) ** 2
    density = hs_l2 / g.volume
    cols = {key: [] for key in ("grad_l4", "grad_l12o5", "grad_l2", "l6", "energy",
                                "v_grad_l12o5", "psi_grad_l12o5", "qv", "qv_balanced")}
    ham2_int, ham2b_int, ham3_steps = [], [], []
    for i in range(n):
        vs = traj.v_star_snapshot(i)
        w = vs.values
        mag = lattice.gradient_magnitude(vs)
        for key, r in (("grad_l4", 4.0), ("grad_l12o5", 2.4), ("grad_l2", 2.0)):
            cols[key].append(lr(mag, r))
        cols["l6"].append(lr(w, 6.0))
        pot = (np.abs(w) ** 2 + 2.0 * w.real) ** 2
        cols["energy"].append(0.5 * cols["grad_l2"][-1] ** 2 + 0.25 * pot.sum() * cell)
        cols["v_grad_l12o5"].append(lr(lattice.gradient_magnitude(traj.v_snapshots[i]), 2.4))
        cols["psi_grad_l12o5"].append(lr(lattice.gradient_magnitude(traj.psi_snapshots[i]), 2.4))
        cols["qv"].append(np.sum(np.abs(w) ** 2 + w.imag**2 + 4.0 * w.real) * cell)
        cols["qv_balanced"].append(np.sum(np.abs(w) ** 2 + 2.0 * w.real) * cell)
        ham2_int.append(np.sum((np.abs(w) ** 2 + w.imag**2 + 4.0 * w.real) * density) * cell)
        ham2b_int.append(np.sum((np.abs(w) ** 2 + 2.0 * w.real) * density) * cell)
        if i < n - 1:
            inc = traj.noise_path.physical(i, i + 1).ravel()
            ham3_steps.append(np.imag(np.sum(ham3_integrand(vs) * inc)) * cell)
    cols = {key: np.array(col) for key, col in cols.items()}
    cols["ham3_steps"] = np.array(ham3_steps)

    energy = cols["energy"]
    ham1 = times * (noise.hs_norm(cfg.noise, 1.0, homogeneous=True) ** 2 + hs_l2)
    ham2 = running_trapezoid(ham2_int, times)
    ham2_b = running_trapezoid(ham2b_int, times)
    ham3 = np.concatenate(([0.0], np.cumsum(ham3_steps)))
    ledger = dict(
        times=times, energy=energy, ham1=ham1, ham2=ham2, ham3=ham3,
        residual=energy - energy[0] - ham1 - ham2 - ham3,
        ham1_balanced=0.5 * ham1, ham2_balanced=ham2_b,
        residual_balanced=energy - energy[0] - 0.5 * ham1 - ham2_b - ham3,
        x1_cum=running_trapezoid(cols["grad_l12o5"] ** 6, times) ** (1.0 / 6.0),
        l6_cum=running_trapezoid(cols["l6"] ** 6, times) ** (1.0 / 6.0),
    )
    return cols, ledger


class TestBlockedNormPass:
    def multi_block_traj(self, scheme):
        # 51 snapshots at 64^2 span several blocks, the last one partial
        traj = stochastic_traj(scheme, seed=5, n=64, t_final=0.1, dt=0.002, amp=0.4)
        rows = lattice.BLOCK_BYTES // traj.v[0].nbytes
        assert traj.n_snapshots == 51 and 1 < rows < 51 and 51 % rows
        return traj

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    def test_matches_per_snapshot_reference(self, scheme):
        traj = self.multi_block_traj(scheme)
        cols, ledger = reference_table_and_ledger(traj)
        table = diagnostics.snapshot_norms(traj)
        assert table.keys() == cols.keys()
        for key, want in cols.items():
            np.testing.assert_allclose(table[key], want, rtol=1e-13, atol=0.0, err_msg=key)
        got = vars(diagnostics.ito_ledger(traj))
        assert got.keys() == ledger.keys()
        scale = np.max(np.abs(ledger["energy"]))
        for key, want in ledger.items():
            # a residual is a small difference of the other columns
            atol = 1e-13 * scale if key.startswith("residual") else 0.0
            np.testing.assert_allclose(got[key], want, rtol=1e-13, atol=atol, err_msg=key)

    @pytest.mark.parametrize("scheme", ["direct", "dpd"])
    @pytest.mark.parametrize("index", [40, 50])
    def test_nan_in_a_later_block_is_named(self, scheme, index):
        traj = with_nan_snapshot(self.multi_block_traj(scheme), index)
        with pytest.raises(UsageError, match=f"snapshot {index} holds a non-finite value"):
            diagnostics.snapshot_norms(traj)

    def test_peak_memory_below_the_snapshots(self):
        # blocks bound the pass's temporaries; an unblocked pass over every
        # snapshot at once allocates several times the snapshot array
        traj = stochastic_traj("direct", n=128, t_final=0.1, dt=0.002)
        assert traj.n_snapshots == 51
        tracemalloc.start()
        try:
            diagnostics.snapshot_norms(traj)
            diagnostics.ito_ledger(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.v.nbytes


@pytest.mark.parametrize("g", [make_grid(4, 8, TWO_PI), grid2d(32)], ids=["8^4", "32^2"])
@pytest.mark.parametrize("scheme, fields", [("direct", 5), ("dpd", 12)])
def test_norm_pass_peak_memory(monkeypatch, g, scheme, fields):
    # one add over a one-snapshot block, every column and its held arrays
    # made afresh: the gradient holds one derivative buffer per gradient
    # field, not one per axis
    traj = dynamics.solve(dynamics.SolverConfig(
        grid=g, t_final=0.01, dt=0.005, scheme=scheme, noise=noise.multiplier_noise(g, 0.2, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=4))
    monkeypatch.setattr(lattice, "BLOCK_BYTES", g.total_points * 16)
    block = next(traj.blocks())
    assert len(block.times) == 1 and block.dw_hat.shape[1] == 1
    lattice.release_held()
    tracemalloc.start()
    try:
        diagnostics.NormAccumulator(g).add(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        lattice.release_held()
    assert peak <= fields * g.total_points * 16


@pytest.mark.parametrize("scheme", ["direct", "dpd"])
def test_4d_pass_matches_per_snapshot_reference(monkeypatch, scheme):
    # ham3's Laplacian term is taken by Parseval on the Fourier rows; the
    # oracle takes it in physical space.  11 snapshots at 8^4 in blocks of
    # 3 rows: several blocks, the last one partial
    g = make_grid(4, 8, TWO_PI)
    monkeypatch.setattr(lattice, "BLOCK_BYTES", 3 * g.total_points * 16)
    traj = dynamics.solve(dynamics.SolverConfig(
        grid=g, t_final=0.02, dt=0.002, scheme=scheme, noise=noise.multiplier_noise(g, 0.4, 3.5),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=11))
    assert [len(block.times) for block in traj.blocks()] == [3, 3, 3, 2]
    cols, ledger = reference_table_and_ledger(traj)
    table = diagnostics.snapshot_norms(traj)
    assert table.keys() == cols.keys()
    for key, want in cols.items():
        np.testing.assert_allclose(table[key], want, rtol=1e-13, atol=0.0, err_msg=key)
    got = vars(diagnostics.ito_ledger(traj))
    scale = np.max(np.abs(ledger["energy"]))
    for key, want in ledger.items():
        atol = 1e-13 * scale if key.startswith("residual") else 0.0  # a small difference
        np.testing.assert_allclose(got[key], want, rtol=1e-13, atol=atol, err_msg=key)


@pytest.mark.parametrize("scheme", ["direct", "dpd", "deterministic_gp"])
def test_streamed_blocks_take_no_forward_transform(tmp_path, monkeypatch, scheme):
    # the gradient is taken from the physical rows every block holds, and
    # ham3 reads the Fourier rows the stepper hands it: a file's blocks take
    # no forward transform, and read back with the run's noise path, one
    # fftn of v* a block, for ham3's Laplacian term
    g = grid2d()
    monkeypatch.setattr(lattice, "BLOCK_BYTES", 7 * g.total_points * 16)
    cfg = dynamics.SolverConfig(
        grid=g, t_final=0.1, dt=0.005, scheme=scheme, noise=noise.multiplier_noise(g, 0.2, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=4)
    forward, per_block, real_add = [], [], diagnostics.NormAccumulator.add
    real = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda *a, **k: forward.append(1) or real(*a, **k))

    def add(acc, block):  # each add's forward transforms, in per_block
        before = len(forward)
        real_add(acc, block)
        per_block.append(len(forward) - before)

    monkeypatch.setattr(diagnostics.NormAccumulator, "add", add)
    dynamics.lockstep([cfg], [0], [diagnostics.NormAccumulator(g).add])
    assert per_block == [0, 0, 0]
    fname, pname = os.path.join(tmp_path, "t.bin"), os.path.join(tmp_path, "p.bin")
    traj = dynamics.solve(cfg)
    dynamics.write_trajectory(traj, fname)
    per_block.clear()
    grid, _, _, blocks = dynamics.trajectory_blocks(fname)
    diagnostics.norm_table(grid, blocks)
    assert per_block == [0, 0, 0]
    if cfg.stochastic:
        noise.write_noise_path(traj.noise_path, pname)
        back = replace(dynamics.read_trajectory(fname), config=cfg,
                       noise_path=noise.read_noise_path(pname, g.box_length))
        per_block.clear()
        diagnostics.ito_ledger(back)
        assert per_block == [1, 1, 1]


def streamed_and_written(tmp_path, cfg):
    """The run's table as solve_tables streams it while a TrajectoryWriter
    writes its file, and the file's name."""
    fname = os.path.join(tmp_path, "t.bin")
    with dynamics.TrajectoryWriter(fname, cfg.grid, cfg.scheme, cfg.n_snapshots,
                                   cfg.dt * cfg.snapshot_stride) as writer:
        ((streamed,),) = diagnostics.solve_tables([cfg], [0], [writer])
    return streamed, fname


def read_back_table(fname):
    grid, _, _, blocks = dynamics.trajectory_blocks(fname)
    return diagnostics.norm_table(grid, blocks)


def four_block_config(monkeypatch, g, scheme):
    """11 snapshots in blocks of three, the last one partial."""
    monkeypatch.setattr(lattice, "BLOCK_BYTES", 3 * g.total_points * 16)
    return dynamics.SolverConfig(
        grid=g, t_final=0.02, dt=0.002, scheme=scheme, noise=noise.multiplier_noise(g, 0.4, 3.5),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=5)


@pytest.mark.parametrize("g", [grid2d(), make_grid(4, 8, TWO_PI)], ids=["16^2", "8^4"])
@pytest.mark.parametrize("scheme", ["direct", "dpd"])
def test_a_table_read_back_from_its_file_is_the_streamed_table(tmp_path, monkeypatch, g, scheme):
    # the file holds the physical rows the stepper's blocks held, and the
    # gradient is taken of those, so every column both make has the same
    # bits
    streamed, fname = streamed_and_written(tmp_path, four_block_config(monkeypatch, g, scheme))
    from_file = read_back_table(fname)
    assert from_file.norms.keys() == set(streamed.norms) - {"ham3_steps"}
    for key, col in from_file.norms.items():
        assert np.array_equal(col, streamed.norms[key]), key


@pytest.mark.parametrize("g", [grid2d(), make_grid(4, 8, TWO_PI)], ids=["16^2", "8^4"])
@pytest.mark.parametrize("scheme", ["direct", "dpd"])
@pytest.mark.parametrize("source", ["stepper", "file"])
def test_the_gradient_takes_one_axis_pass_each_way(tmp_path, monkeypatch, g, scheme, source):
    # per block, one fft and one ifft along each axis over the whole stack
    # of gradient fields (v*, and Psi for dpd's partition columns), and no
    # n-d transform: a stepper block's ham3 reads its Fourier rows.  Its
    # physical noise rows dw are made when first read; they are read here
    # before add, so the count is the pass's own
    cfg = four_block_config(monkeypatch, g, scheme)
    fname = streamed_and_written(tmp_path, cfg)[1] if source == "file" else None
    calls, per_block, real_add = {}, [], diagnostics.NormAccumulator.add
    for name in ("fft", "ifft", "fftn", "ifftn"):
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def add(acc, block):
        if block.dw_hat is not None:
            assert block.dw is not None
        calls.clear()
        real_add(acc, block)
        per_block.append(dict(calls))

    monkeypatch.setattr(diagnostics.NormAccumulator, "add", add)
    if fname:
        read_back_table(fname)
    else:
        diagnostics.solve_tables([cfg], [0])
    assert per_block == [{"fft": g.dim, "ifft": g.dim}] * 4
