import numpy as np
import pytest

from snls import lattice
from snls.errors import ConfigurationError, UsageError
from snls.lattice import (
    ComplexField,
    SpacetimeInterval,
    apply_schrodinger_group,
    lebesgue_norm,
    make_grid,
    sobolev_norm,
    spacetime_norm,
    x1_norm,
)

TWO_PI = 2.0 * np.pi


def plane_wave(grid, mode):
    xs = grid.coordinate_mesh()
    phase = np.zeros(grid.shape)
    for m, x in zip(mode, xs):
        phase = phase + (TWO_PI * m / grid.box_length) * x
    return lattice.field_from_mesh(grid, np.exp(1j * phase))


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.total_points) + 1j * rng.standard_normal(grid.total_points)
    return ComplexField(grid, scale * vals)


class TestMakeGrid:
    def test_1d_wavenumbers(self):
        g = make_grid(1, 8, TWO_PI)
        assert sorted(g.wavenumbers) == [-3, -2, -1, 0, 1, 2, 3, 4]

    def test_2d_counts(self):
        g = make_grid(2, 16, 1.0)
        assert g.total_points == 256
        assert g.spacing == 1.0 / 16

    def test_4d_counts(self):
        g = make_grid(4, 16, TWO_PI)
        assert g.total_points == 65536

    def test_spacing_roundtrip_exact(self):
        g = make_grid(3, 32, 1.7)
        assert g.spacing * g.points_per_axis == g.box_length

    def test_wavenumbers_closed_under_negation(self):
        g = make_grid(1, 16, 3.0)
        ks = set(np.round(g.wavenumbers, 12))
        nyquist = max(ks)
        for k in ks:
            if abs(k) != nyquist:
                assert -k in ks

    def test_wavenumbers_built_once_and_read_only(self):
        g = make_grid(3, 8, 1.3)
        assert g.wavenumbers is g.wavenumbers
        with pytest.raises(ValueError):
            g.wavenumbers[0] = 1.0

    @pytest.mark.parametrize("bad", [(0, 8, 1.0), (5, 8, 1.0), (2, 12, 1.0), (2, 4, 1.0), (2, 8, -1.0)])
    def test_rejects_bad_configs(self, bad):
        with pytest.raises(ConfigurationError):
            make_grid(*bad)


class TestSchrodingerGroup:
    def test_identity_at_t0(self):
        g = make_grid(2, 16, TWO_PI)
        f = random_field(g, 0)
        out = apply_schrodinger_group(f, 0.0)
        assert np.allclose(out.values, f.values, atol=1e-14)

    def test_plane_wave_eigenfunction(self):
        g = make_grid(1, 16, TWO_PI)
        f = plane_wave(g, (3,))
        t = 0.37
        out = apply_schrodinger_group(f, t)
        assert np.allclose(out.values, np.exp(-1j * 9 * t) * f.values, atol=1e-12)

    def test_l2_isometry(self):
        g = make_grid(2, 16, 1.0)
        f = random_field(g, 1)
        out = apply_schrodinger_group(f, 0.9)
        assert lebesgue_norm(out, 2.0) == pytest.approx(lebesgue_norm(f, 2.0), rel=1e-12)

    def test_group_law(self):
        g = make_grid(2, 16, TWO_PI)
        f = random_field(g, 2)
        a = apply_schrodinger_group(apply_schrodinger_group(f, 0.2), 0.5)
        b = apply_schrodinger_group(f, 0.7)
        assert np.allclose(a.values, b.values, atol=1e-10)

    def test_sobolev_isometry(self):
        g = make_grid(1, 32, TWO_PI)
        f = random_field(g, 3)
        out = apply_schrodinger_group(f, 1.3)
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert sobolev_norm(out, s) == pytest.approx(sobolev_norm(f, s), rel=1e-10)
            assert sobolev_norm(out, s, homogeneous=True) == pytest.approx(
                sobolev_norm(f, s, homogeneous=True), rel=1e-10
            )


class TestSpectralDerivatives:
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_one_axis_passes_match_the_nd_route(self, dim, n):
        # d_j u from one fft and one ifft along axis j against the n-d route
        # ifftn(i k_j fftn(u)), on a stack of two random complex fields,
        # whose Nyquist modes are not zero; and the sum of their squares
        # against gradient_magnitude, which takes that route
        g = make_grid(dim, n, 3.0)
        fields = [random_field(g, 10 * dim + n + i) for i in range(2)]
        stack = np.stack([f.mesh for f in fields])
        squares = np.zeros((2, g.total_points))
        derivatives = lattice.spectral_derivatives(g, stack, np.empty_like(stack))
        for km, d in zip(g.wavenumber_mesh(), derivatives):
            for f, total, got in zip(fields, squares, d):
                want = np.fft.ifftn(1j * km * np.fft.fftn(f.mesh))
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
                total += np.abs(got.ravel()) ** 2
        for f, total in zip(fields, squares):
            want = lattice.gradient_magnitude(f) ** 2
            assert np.max(np.abs(total - want)) <= 1e-14 * np.max(want)


class TestSobolevNorm:
    def test_zero_field(self):
        g = make_grid(2, 8, 1.0)
        assert sobolev_norm(lattice.zero_field(g), 1.5) == 0.0

    def test_constant_field_l2(self):
        g = make_grid(2, 8, 2.0)
        f = lattice.constant_field(g, 3.0 - 4.0j)
        assert sobolev_norm(f, 0.0) == pytest.approx(5.0 * 2.0, rel=1e-12)  # |c| * sqrt(V)

    def test_plane_wave_h1dot(self):
        # oracle: direct summation over the grid's spectrum gives |k|*sqrt(V)
        g = make_grid(1, 8, TWO_PI)
        f = plane_wave(g, (2,))
        assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(
            5.0132565492620005, rel=1e-12
        )

    def test_plancherel(self):
        g = make_grid(2, 16, 1.3)
        f = random_field(g, 4)
        assert sobolev_norm(f, 0.0) == pytest.approx(lebesgue_norm(f, 2.0), rel=1e-10)

    def test_monotone_in_s(self):
        g = make_grid(1, 32, TWO_PI)
        f = random_field(g, 5)
        norms = [sobolev_norm(f, s) for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_spectral_round_trip(self):
        g = make_grid(3, 8, 1.0)
        f = random_field(g, 6)
        back = lattice.field_from_spectral(g, lattice.spectral_coefficients(f))
        num = lebesgue_norm(ComplexField(g, back.values - f.values), 2.0)
        assert num <= 1e-12 * lebesgue_norm(f, 2.0)


class TestLebesgueNorm:
    def test_zero(self):
        g = make_grid(2, 8, 1.0)
        assert lebesgue_norm(lattice.zero_field(g), 4.0) == 0.0

    @pytest.mark.parametrize("r", [1.0, 2.0, 4.0, 6.0])
    def test_constant_one(self, r):
        g = make_grid(2, 8, 3.0)
        f = lattice.constant_field(g, 1.0)
        assert lebesgue_norm(f, r) == pytest.approx(9.0 ** (1.0 / r), rel=1e-12)

    def test_single_point(self):
        g = make_grid(2, 8, 1.0)
        vals = np.zeros(g.total_points, dtype=complex)
        vals[5] = 3.0 + 4.0j
        assert lebesgue_norm(ComplexField(g, vals), 2.0) == pytest.approx(
            5.0 * g.spacing, rel=1e-12
        )

    def test_infinity(self):
        g = make_grid(1, 8, 1.0)
        vals = np.arange(8).astype(complex)
        assert lebesgue_norm(ComplexField(g, vals), lattice.INF) == 7.0

    def test_rejects_small_exponent(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(UsageError):
            lebesgue_norm(lattice.zero_field(g), 0.5)


class TestSpacetimeNorm:
    def test_zero_trajectory(self):
        g = make_grid(2, 8, 1.0)
        fields = [lattice.zero_field(g)] * 4
        times = [0.0, 0.1, 0.2, 0.3]
        assert spacetime_norm(fields, times, SpacetimeInterval(0, 3), 6.0, 4.0) == 0.0

    def test_constant_in_time(self):
        g = make_grid(2, 8, TWO_PI)
        f = random_field(g, 7)
        times = np.linspace(0.0, 2.0, 9)
        fields = [f] * 9
        itv = SpacetimeInterval(0, 8)
        for q, r, j in ((2.0, 4.0, 0), (6.0, 2.4, 1)):
            got = spacetime_norm(fields, times, itv, q, r, j)
            if j == 0:
                spatial = lebesgue_norm(f, r)
            else:
                spatial = lattice._lp_of_values(lattice.gradient_magnitude(f), r, g.cell_measure)
            assert got == pytest.approx(2.0 ** (1.0 / q) * spatial, rel=1e-10)

    def test_single_snapshot_sup(self):
        g = make_grid(1, 16, 1.0)
        f = random_field(g, 8)
        got = spacetime_norm([f], [0.0], SpacetimeInterval(0, 0), lattice.INF, 2.0)
        assert got == pytest.approx(lebesgue_norm(f, 2.0), rel=1e-12)

    def test_out_of_range_interval(self):
        g = make_grid(1, 8, 1.0)
        with pytest.raises(UsageError):
            spacetime_norm([lattice.zero_field(g)], [0.0], SpacetimeInterval(0, 3), 2.0, 2.0)

    @pytest.mark.parametrize("make, match", [
        (lambda g: ComplexField(g, np.zeros(7, dtype=complex)),
         "field length 7 does not match grid \\(8 points\\)"),
        (lambda g: SpacetimeInterval(3, 2), "interval start_index exceeds end_index"),
        (lambda g: spacetime_norm([lattice.zero_field(g)], [0.0], SpacetimeInterval(0, 0), 2.0,
                                  2.0, derivative_order=2), "derivative_order must be 0 or 1"),
    ], ids=["field-length", "reversed-interval", "derivative-order"])
    def test_bad_arguments_are_named(self, make, match):
        with pytest.raises(UsageError, match=match):
            make(make_grid(1, 8, 1.0))


class TestX1Norm:
    def test_zero(self):
        g = make_grid(2, 8, 1.0)
        fields = [lattice.zero_field(g)] * 3
        assert x1_norm(fields, [0.0, 0.1, 0.2], SpacetimeInterval(0, 2)) == 0.0

    def test_constant_plane_wave(self):
        g = make_grid(1, 16, TWO_PI)
        f = plane_wave(g, (2,))
        times = np.linspace(0.0, 3.0, 7)
        got = x1_norm([f] * 7, times, SpacetimeInterval(0, 6))
        grad = lattice._lp_of_values(lattice.gradient_magnitude(f), 2.4, g.cell_measure)
        assert got == pytest.approx(3.0 ** (1.0 / 6.0) * grad, rel=1e-10)

    def test_matches_nested_loop_oracle(self):
        # independent quadrature: explicit DFT derivative sums, explicit
        # power sums, explicit trapezoid -- no package kernels
        g = make_grid(1, 8, TWO_PI)
        times = [0.0, 0.05, 0.13]
        fields = [random_field(g, 100 + i, scale=0.5) for i in range(3)]

        def oracle():
            n = g.points_per_axis
            ks = g.wavenumbers
            spatial = []
            for f in fields:
                u = f.values
                uhat = np.array([sum(u[m] * np.exp(-2j * np.pi * j * m / n) for m in range(n))
                                 for j in range(n)]) / n
                du = np.array([sum(1j * ks[j] * uhat[j] * np.exp(2j * np.pi * j * m / n)
                                   for j in range(n)) for m in range(n)])
                r = 12.0 / 5.0
                spatial.append((sum(abs(x) ** r for x in du) * g.spacing) ** (1.0 / r))
            total = 0.0
            for i in range(2):
                total += 0.5 * (times[i + 1] - times[i]) * (spatial[i] ** 6 + spatial[i + 1] ** 6)
            return total ** (1.0 / 6.0)

        got = x1_norm(fields, times, SpacetimeInterval(0, 2))
        assert got == pytest.approx(oracle(), rel=1e-10)


class TestAllFinite:
    # all_finite sums the floats first and scans them only when the sum is
    # not finite: an overflowing sum of finite values must still read finite
    @pytest.mark.parametrize("values, finite", [
        ([1.5e308, 1.5e308], True),
        ([1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j], True),
        ([np.nan], False),
        ([np.inf], False),
        ([-np.inf], False),
        ([1.0, np.nan], False),
        ([np.inf, -np.inf], False),
        ([complex(1.0, np.nan), 2.0], False),
        ([0.0, 1.0], True),
        ([], True),
    ])
    def test_one_sum_then_the_exact_scan(self, values, finite):
        assert lattice.all_finite(np.array(values, dtype=np.complex128)) is finite

    def test_a_stack_of_fields(self):
        a = np.full((3, 8, 8), 1e308 + 1e308j)
        assert lattice.all_finite(a)
        a[2, 7, 7] = complex(np.nan, 0.0)
        assert not lattice.all_finite(a)
