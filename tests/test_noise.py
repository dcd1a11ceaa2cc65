import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snls import lattice, noise
from snls.errors import UsageError
from snls.lattice import ComplexField, make_grid

TWO_PI = 2.0 * np.pi


def small_grid():
    return make_grid(2, 16, TWO_PI)


class TestNoiseSpec:
    def test_zero_profile(self):
        g = small_grid()
        spec = noise.zero_noise(g)
        assert np.all(spec.multiplier_profile() == 0.0)

    def test_multiplier_profile_values(self):
        g = make_grid(1, 8, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=2.0, sigma=2.0)
        prof = spec.multiplier_profile()
        ks = g.wavenumbers
        expected = 2.0 / (1.0 + ks**2)
        assert np.allclose(prof, expected, atol=1e-14)

    def test_cutoff_zeroes_high_modes(self):
        g = make_grid(1, 16, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=1.0, sigma=0.0, cutoff=3.5)
        prof = spec.multiplier_profile()
        ks = g.wavenumbers
        assert np.all(prof[np.abs(ks) > 3.5] == 0.0)
        assert np.all(prof[np.abs(ks) <= 3.5] == 1.0)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(UsageError):
            noise.multiplier_noise(small_grid(), amplitude=-1.0, sigma=2.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(UsageError):
            noise.NoiseSpec(grid=small_grid(), kind="identity")


class TestHsNorm:
    def test_frozen_oracle_1d(self):
        # oracle: sqrt(sum over m in {-3..4} of (1+m^2)^(-2)) computed by a
        # separate scalar summation
        g = make_grid(1, 8, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=1.0, sigma=2.0)
        assert noise.hs_norm(spec, 0.0) == pytest.approx(1.2662780925264627, rel=1e-13)

    def test_amplitude_scaling(self):
        g = small_grid()
        a = noise.hs_norm(noise.multiplier_noise(g, 1.0, 3.0), 1.0)
        b = noise.hs_norm(noise.multiplier_noise(g, 2.5, 3.0), 1.0)
        assert b == pytest.approx(2.5 * a, rel=1e-13)

    def test_zero_operator(self):
        assert noise.hs_norm(noise.zero_noise(small_grid()), 1.0) == 0.0

    def test_sigma_zero_s_zero_counts_modes(self):
        g = make_grid(1, 8, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=1.0, sigma=0.0)
        assert noise.hs_norm(spec, 0.0) == pytest.approx(np.sqrt(8.0), rel=1e-13)

    def test_homogeneous_drops_zero_mode(self):
        g = make_grid(1, 8, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=1.0, sigma=0.0)
        got = noise.hs_norm(spec, -1.0, homogeneous=True)
        ks = g.wavenumbers
        expected = np.sqrt(sum(1.0 / k**2 for k in ks if k != 0))
        assert got == pytest.approx(expected, rel=1e-12)


class TestStepRng:
    def test_reproducible(self):
        a = noise.step_rng(7, 3, 11).standard_normal(5)
        b = noise.step_rng(7, 3, 11).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = noise.step_rng(7, 0, 0).standard_normal(5)
        b = noise.step_rng(7, 1, 0).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_steps_differ(self):
        a = noise.step_rng(7, 0, 0).standard_normal(5)
        b = noise.step_rng(7, 0, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_order_independent(self):
        # draws for step 5 must not change if step 4 was sampled first
        direct = noise.step_rng(1, 2, 5).standard_normal(4)
        noise.step_rng(1, 2, 4).standard_normal(1000)
        again = noise.step_rng(1, 2, 5).standard_normal(4)
        assert np.array_equal(direct, again)

    # draws that leave buffered state in the generator: a partly used Philox
    # block, and a spare 32-bit half (has_uint32) after an odd uint32 count
    DRAWS = {
        "random": lambda rng, n: rng.random(n),
        "uint32": lambda rng, n: rng.integers(0, 2**32 - 1, size=n, dtype=np.uint32),
        "normal": lambda rng, n: rng.standard_normal(n),
    }
    KEY = st.integers(0, 2**64 - 1)
    DRAW = st.tuples(st.sampled_from(sorted(DRAWS)), st.integers(1, 9))

    @settings(max_examples=300, deadline=None)
    @given(key=st.tuples(KEY, KEY, KEY), leftover=DRAW,
           draws=st.lists(DRAW, min_size=1, max_size=4))
    def test_matches_a_fresh_generator(self, key, leftover, draws):
        # the reset generator draws what a new Philox with the same counter
        # and key draws, whatever the previous call left in it
        self.DRAWS[leftover[0]](noise.step_rng(3, 4, 5), leftover[1])
        seed, stream, step = key
        got = noise.step_rng(seed, stream, step)
        fresh = np.random.Generator(np.random.Philox(
            counter=np.array([0, 0, step, 0], dtype=np.uint64),
            key=np.array([seed, stream], dtype=np.uint64),
        ))
        for name, n in draws:
            assert self.DRAWS[name](got, n).tobytes() == self.DRAWS[name](fresh, n).tobytes()


class TestWienerIncrement:
    def test_zero_noise_gives_zero(self):
        g = small_grid()
        inc = noise.sample_wiener_increment(noise.zero_noise(g), 0.1, noise.step_rng(0, 0, 0))
        assert np.all(inc.values == 0.0)

    def test_rejects_nonpositive_dt(self):
        g = small_grid()
        with pytest.raises(UsageError):
            noise.sample_wiener_increment(noise.multiplier_noise(g, 1.0, 2.0), 0.0, noise.step_rng(0, 0, 0))

    def test_l2_second_moment(self):
        # E||phi DW||_L2^2 = dt * ||phi||_HS^2 by the Ito isometry
        g = make_grid(1, 16, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=0.5, sigma=2.0)
        dt = 0.01
        sq = []
        for j in range(4000):
            inc = noise.sample_wiener_increment(spec, dt, noise.step_rng(11, 0, j))
            sq.append(lattice.lebesgue_norm(inc, 2.0) ** 2)
        sq = np.asarray(sq)
        target = dt * noise.hs_norm(spec, 0.0) ** 2
        z = (sq.mean() - target) / (sq.std(ddof=1) / np.sqrt(len(sq)))
        assert abs(z) < 4.0

    def test_mean_is_zero(self):
        g = make_grid(1, 16, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=1.0, sigma=2.0)
        acc = np.zeros(g.total_points, dtype=complex)
        n = 4000
        for j in range(n):
            acc += noise.sample_wiener_increment(spec, 1.0, noise.step_rng(5, 0, j)).values
        # componentwise standard error is O(1/sqrt(n))
        assert np.max(np.abs(acc / n)) < 6.0 / np.sqrt(n)


class TestComplexNormals:
    @pytest.mark.parametrize("shape", [(8,), (5, 3), (16, 16), (8, 8, 8, 8)])
    def test_bytes_match_the_scaled_sum(self, shape):
        # scaling each part before combining them rounds like scaling the
        # sum; one draw of both parts has the bits of two, real parts first;
        # a profile of ones leaves z as it is
        for seed in range(10):
            for variance in (1e-3, 0.02, 1.0):
                rng = noise.step_rng(seed, 1, seed)
                re, im = rng.standard_normal(shape), rng.standard_normal(shape)
                want = np.sqrt(variance / 2) * (re + 1j * im)
                normals = noise.step_rng(seed, 1, seed).standard_normal((2,) + shape)
                got = noise._phihat_z(1.0, normals, variance)
                assert got.tobytes() == want.tobytes()


class TestStochasticConvolution:
    def test_zero_noise_reduces_to_free_flow(self):
        g = small_grid()
        rng = np.random.default_rng(0)
        psi = ComplexField(g, rng.standard_normal(g.total_points) + 0j)
        out, inc = noise.step_stochastic_convolution(psi, noise.zero_noise(g), 0.3, noise.step_rng(0, 0, 0))
        free = lattice.apply_schrodinger_group(psi, 0.3)
        assert np.allclose(out.values, free.values, atol=1e-13)
        assert np.all(inc.values == 0.0)

    def test_accepts_prescribed_increment(self):
        g = small_grid()
        psi = lattice.zero_field(g)
        inc = ComplexField(g, np.full(g.total_points, 0.5 + 0.25j))
        out, used = noise.step_stochastic_convolution(psi, noise.zero_noise(g), 0.1, increment=inc)
        assert used is inc
        assert np.allclose(out.values, -1j * inc.values, atol=1e-14)

    def test_ito_isometry_multi_step(self):
        # after n steps from zero, E||Psi||_L2^2 = t * ||phi||_HS^2 exactly in
        # law; check the Monte Carlo z-score
        g = make_grid(2, 8, TWO_PI)
        spec = noise.multiplier_noise(g, amplitude=0.3, sigma=2.0)
        dt, n_steps, members = 0.05, 4, 1500
        sq = []
        for m in range(members):
            psi = lattice.zero_field(g)
            for j in range(n_steps):
                psi, _ = noise.step_stochastic_convolution(psi, spec, dt, noise.step_rng(3, m, j))
            sq.append(lattice.lebesgue_norm(psi, 2.0) ** 2)
        sq = np.asarray(sq)
        target = dt * n_steps * noise.hs_norm(spec, 0.0) ** 2
        z = (sq.mean() - target) / (sq.std(ddof=1) / np.sqrt(members))
        assert abs(z) < 4.0


class TestNoisePath:
    def test_generate_counts(self):
        g = small_grid()
        spec = noise.multiplier_noise(g, 0.2, 3.0)
        path = noise.generate_noise_path(spec, 0.01, 7, master_seed=9)
        assert path.n_steps == 7
        assert path.dt == 0.01

    def test_pieces_have_the_rows_of_the_whole_path(self):
        # rows drawn one at a time, and a shorter path, have the whole path's bytes
        spec = noise.multiplier_noise(small_grid(), 0.2, 3.0)
        whole = noise.generate_noise_path(spec, 0.01, 7, master_seed=9, stream_id=2)
        rows = list(noise.increment_rows(spec, 0.01, 9, 2, 7))
        assert np.array(rows).tobytes() == whole.dw_hat.tobytes()
        short = noise.generate_noise_path(spec, 0.01, 3, master_seed=9, stream_id=2)
        assert short.dw_hat.tobytes() == whole.dw_hat[:3].tobytes()

    def test_increment_rows_draw_on_demand(self, monkeypatch):
        keys = []
        step_rng = noise.step_rng

        def counting(*key):
            keys.append(key)
            return step_rng(*key)
        monkeypatch.setattr(noise, "step_rng", counting)
        rows = noise.increment_rows(noise.multiplier_noise(small_grid(), 0.2, 3.0), 0.01, 9, 2, 7)
        assert keys == []
        next(rows)
        next(rows)
        assert keys == [(9, 2, 0), (9, 2, 1)]

    @staticmethod
    def one_stream_row(spec, dt, seed, stream, step):
        """Row step of one stream drawn apart: two standard_normal calls,
        real parts first, each part scaled on its own, then phihat, then
        N/sqrt(V)."""
        g = spec.grid
        rng = noise.step_rng(seed, stream, step)
        z = np.empty(g.shape, dtype=np.complex128)
        np.multiply(rng.standard_normal(g.shape), np.sqrt(dt / 2.0), out=z.real)
        np.multiply(rng.standard_normal(g.shape), np.sqrt(dt / 2.0), out=z.imag)
        row = spec.multiplier_profile() * z
        row *= g.total_points / np.sqrt(g.volume)
        return row

    @pytest.mark.parametrize("dim, n", [(1, 8), (2, 16), (4, 8)])
    @pytest.mark.parametrize("streams", [[4], [2, 0, 5]])
    @pytest.mark.parametrize("dt", [0.01, 0.25])
    def test_member_rows_are_the_one_stream_rows(self, dim, n, streams, dt):
        # a cutoff profile, so some modes are multiplied by zero
        spec = noise.multiplier_noise(make_grid(dim, n, TWO_PI), 0.7, 2.0, cutoff=2.0)
        assert (spec.multiplier_profile() == 0.0).any()
        rows = list(noise.member_rows(spec, dt, 9, streams, 3))
        assert len(rows) == 3
        for j, got in enumerate(rows):
            assert got.shape == (len(streams),) + spec.grid.shape
            want = [self.one_stream_row(spec, dt, 9, s, j) for s in streams]
            assert got.tobytes() == np.array(want).tobytes()
        assert not np.shares_memory(rows[0], rows[1])  # a new array per step

    def test_member_rows_draw_on_demand_in_member_order(self, monkeypatch):
        keys = []
        step_rng = noise.step_rng

        def counting(*key):
            keys.append(key)
            return step_rng(*key)
        monkeypatch.setattr(noise, "step_rng", counting)
        rows = noise.member_rows(noise.multiplier_noise(small_grid(), 0.2, 3.0), 0.01, 9, [3, 1, 2], 4)
        assert keys == []
        next(rows)
        assert keys == [(9, 3, 0), (9, 1, 0), (9, 2, 0)]
        next(rows)
        assert keys[3:] == [(9, 3, 1), (9, 1, 1), (9, 2, 1)]  # one call per member and step

    def test_member_rows_of_zero_noise_are_zero(self):
        rows = list(noise.member_rows(noise.zero_noise(small_grid()), 0.01, 9, [0, 1], 2))
        assert [r.shape for r in rows] == [(2, 16, 16)] * 2
        assert not np.any(rows)

    def test_member_rows_reject_nonpositive_dt(self):
        with pytest.raises(UsageError):
            next(noise.member_rows(noise.multiplier_noise(small_grid(), 0.2, 3.0), 0.0, 9, [0], 2))

    def test_coarsen_sums_increments(self):
        g = make_grid(1, 8, TWO_PI)
        spec = noise.multiplier_noise(g, 0.2, 3.0)
        fine = noise.generate_noise_path(spec, 0.01, 8, master_seed=4)
        coarse = noise.coarsen_noise_path(fine, 4)
        assert coarse.n_steps == 2
        assert coarse.dt == pytest.approx(0.04)
        manual = fine.physical(0, 4).sum(axis=0)
        assert np.allclose(coarse.physical(0, 1)[0], manual, atol=1e-14)

    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_coarsen_bytes_match_sequential_sums(self, factor):
        g = make_grid(2, 16, 5.0)
        fine = noise.generate_noise_path(noise.multiplier_noise(g, 0.7, 2.0), 0.01, 8, master_seed=6, stream_id=1)
        want = []
        for j in range(0, 8, factor):
            acc = np.zeros(g.shape, dtype=complex)
            for row in fine.dw_hat[j : j + factor]:
                acc += row
            want.append(acc)
        coarse = noise.coarsen_noise_path(fine, factor)
        assert coarse.dw_hat.shape == (8 // factor,) + g.shape
        assert coarse.dw_hat.tobytes() == np.array(want).tobytes()

    def test_coarsen_by_one_is_the_path_itself(self):
        g = make_grid(2, 8, 5.0)
        fine = noise.generate_noise_path(noise.multiplier_noise(g, 0.7, 2.0), 0.01, 4, master_seed=6)
        assert noise.coarsen_noise_path(fine, 1) is fine

    def test_increments_are_row_views(self):
        # physical rows are made from the held Fourier rows when asked for, in
        # blocks or one at a time, with sample_wiener_increment's bytes
        g = make_grid(2, 8, 5.0)
        spec = noise.multiplier_noise(g, 0.7, 2.0)
        path = noise.generate_noise_path(spec, 0.01, 3, master_seed=1, stream_id=4)
        drawn = [noise.sample_wiener_increment(spec, 0.01, noise.step_rng(1, 4, j)).mesh for j in range(3)]
        assert path.physical().tobytes() == np.array(drawn).tobytes()
        assert path.physical(1, 2).tobytes() == drawn[1].tobytes()
        path.dw_hat[2] = 0.0
        assert not path.physical(2)[0].any() and path.physical(1, 2).any()

    def test_coarsen_rejects_non_divisor(self):
        g = make_grid(1, 8, TWO_PI)
        path = noise.generate_noise_path(noise.zero_noise(g), 0.01, 7, master_seed=0)
        with pytest.raises(UsageError):
            noise.coarsen_noise_path(path, 2)

    def test_file_round_trip(self, tmp_path):
        g = make_grid(2, 8, 5.0)
        spec = noise.multiplier_noise(g, 0.7, 2.0)
        path = noise.generate_noise_path(spec, 0.02, 3, master_seed=13, stream_id=2)
        fname = os.path.join(tmp_path, "p.bin")
        noise.write_noise_path(path, fname)
        back = noise.read_noise_path(fname, box_length=5.0)
        assert back.n_steps == 3
        assert back.dt == 0.02
        # the file holds the physical rows; the reader's Fourier rows are their transforms
        assert back.dw_hat.tobytes() == np.fft.fftn(path.physical(), axes=g.axes).tobytes()
        assert np.allclose(back.dw_hat, path.dw_hat, rtol=0, atol=1e-13 * np.abs(path.dw_hat).max())

    def test_empty_path_round_trip(self, tmp_path):
        # a header that promises no fields leaves an empty payload to read
        fname = os.path.join(tmp_path, "p.bin")
        empty = np.zeros((0, 8, 8), dtype=complex)
        noise.write_noise_path(noise.NoisePath(grid=make_grid(2, 8, 5.0), dt=0.02, dw_hat=empty), fname)
        assert noise.read_noise_path(fname, box_length=5.0).n_steps == 0

    def test_read_rejects_bad_magic(self, tmp_path):
        fname = os.path.join(tmp_path, "bad.bin")
        with open(fname, "wb") as fh:
            fh.write(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(UsageError):
            noise.read_noise_path(fname, box_length=1.0)
