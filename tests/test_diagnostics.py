import numpy as np
import pytest

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

    def test_requires_noise_path(self):
        traj = stochastic_traj()
        traj.noise_path = None
        with pytest.raises(UsageError):
            diagnostics.ito_ledger(traj)

    def test_requires_unit_stride(self):
        g = grid2d(8)
        cfg = dynamics.SolverConfig(
            grid=g, t_final=0.1, dt=0.005, scheme="direct",
            noise=noise.multiplier_noise(g, 0.1, 3.0),
            initial_v=lattice.zero_field(g), snapshot_stride=2,
        )
        with pytest.raises(UsageError):
            diagnostics.ito_ledger(dynamics.solve(cfg))

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


class TestEnergyBoundReport:
    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            diagnostics.energy_bound_report([])

    def test_single_member(self):
        traj = stochastic_traj()
        rep = diagnostics.energy_bound_report([traj])
        es = [diagnostics.energy(traj.v_star_snapshot(i)) for i in range(traj.n_snapshots)]
        assert rep["n_members"] == 1
        assert rep["sup_energy_mean"] == pytest.approx(max(es), rel=1e-13)
        assert rep["sup_energy_se"] == 0.0

    def test_quantiles_ordered(self):
        trajs = [stochastic_traj(seed=s) for s in range(4)]
        rep = diagnostics.energy_bound_report(trajs)
        qs = rep["sup_energy_quantiles"]
        assert qs[0] <= qs[25] <= qs[50] <= qs[75] <= qs[100]
        assert rep["n_members"] == 4


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


class TestStrichartzReport:
    def test_free_flow_pair_constancy(self):
        # for the free group on v with no nonlinearity the Linf_t L2_x entry
        # equals ||grad u0||_L2 (an isometry in every Sobolev norm)
        g = grid2d()
        v0 = dynamics.initial_gaussian_bump(g, 0.2, 1.0)
        cfg = dynamics.SolverConfig(
            grid=g, t_final=0.2, dt=0.01, scheme="deterministic_gp",
            noise=noise.zero_noise(g), initial_v=v0, disable_nonlinearity=True,
        )
        traj = dynamics.solve(cfg)
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
    g = traj.grid
    traj.v_snapshots[index] = ComplexField(g, np.full(g.total_points, np.nan + 0j))
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
