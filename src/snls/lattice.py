"""Periodic lattice geometry, spectral transforms, the free Schrodinger group,
and the spatial / space-time norm kernels.

Conventions:
    * the box is [0, L)^dim with n points per axis, spacing h = L/n;
    * per-axis wavenumbers are 2*pi*m/L with m in {-n/2+1, ..., n/2}
      (Nyquist mode carried with the positive sign);
    * spectral coefficients are normalized so that Plancherel holds with the
      physical cell measure h^dim:  sum_k |a(k)|^2 = ||u||_{L^2}^2.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ConfigurationError, FormatError, UsageError

INF = float("inf")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the periodic lattice."""

    dim: int
    points_per_axis: int
    box_length: float

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def total_points(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    @property
    def volume(self) -> float:
        return self.box_length**self.dim

    @property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis wavenumbers 2*pi*m/L in FFT bin order, Nyquist positive."""
        n = self.points_per_axis
        m = np.arange(n)
        m = np.where(m <= n // 2, m, m - n)
        return 2.0 * np.pi * m / self.box_length

    def wavenumber_mesh(self) -> list:
        """One |dim|-dimensional wavenumber array per axis (open meshgrid)."""
        return list(np.meshgrid(*([self.wavenumbers] * self.dim), indexing="ij", sparse=True))

    def ksq(self) -> np.ndarray:
        """|k|^2 on the full lattice, shape = grid.shape."""
        mesh = self.wavenumber_mesh()
        out = np.zeros(self.shape)
        for km in mesh:
            out = out + km**2
        return out

    def coordinate_mesh(self) -> list:
        x = np.arange(self.points_per_axis) * self.spacing
        return list(np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True))


@dataclass(frozen=True)
class ComplexField:
    """Complex-valued lattice function; values flat, row-major axis order."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.size != self.grid.total_points:
            raise UsageError(
                f"field length {self.values.size} does not match grid "
                f"({self.grid.total_points} points)"
            )

    @property
    def mesh(self) -> np.ndarray:
        """Values reshaped to the lattice shape (view, not a copy)."""
        return self.values.reshape(self.grid.shape)

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values.view(np.float64))))


@dataclass(frozen=True)
class SpacetimeInterval:
    """Inclusive snapshot-index range into a trajectory."""

    start_index: int
    end_index: int

    def __post_init__(self):
        if self.start_index > self.end_index:
            raise UsageError("interval start_index exceeds end_index")

    def validate(self, n_snapshots: int) -> None:
        if self.start_index < 0 or self.end_index >= n_snapshots:
            raise UsageError(
                f"interval [{self.start_index}, {self.end_index}] out of range "
                f"for {n_snapshots} snapshots"
            )


def make_grid(dim: int, points_per_axis: int, box_length: float) -> GridSpec:
    if dim not in (1, 2, 3, 4):
        raise ConfigurationError(f"dim must be in {{1,2,3,4}}, got {dim}")
    n = points_per_axis
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"points_per_axis must be a power of two >= 8, got {n}")
    if not (box_length > 0):
        raise ConfigurationError(f"box_length must be positive, got {box_length}")
    return GridSpec(dim=dim, points_per_axis=points_per_axis, box_length=box_length)


def field_from_mesh(grid: GridSpec, mesh_values: np.ndarray) -> ComplexField:
    return ComplexField(grid, np.ascontiguousarray(mesh_values, dtype=np.complex128).ravel())


def zero_field(grid: GridSpec) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.total_points, dtype=np.complex128))


def constant_field(grid: GridSpec, value: complex) -> ComplexField:
    return ComplexField(grid, np.full(grid.total_points, value, dtype=np.complex128))


# --- spectral transforms -------------------------------------------------
#
# spectral_coefficients returns a(k) = FFT(u)[k] * sqrt(V) / N, so that
# sum_k |a(k)|^2 = sum_x |u(x)|^2 h^d (discrete Plancherel with cell measure).


def spectral_coefficients(field: ComplexField) -> np.ndarray:
    g = field.grid
    return np.fft.fftn(field.mesh) * (np.sqrt(g.volume) / g.total_points)


def field_from_spectral(grid: GridSpec, coeffs: np.ndarray) -> ComplexField:
    vals = np.fft.ifftn(coeffs * (grid.total_points / np.sqrt(grid.volume)))
    return field_from_mesh(grid, vals)


def apply_schrodinger_group(field: ComplexField, t: float) -> ComplexField:
    """Free propagator S(t) = e^{it Laplacian}: multiply mode k by e^{-i|k|^2 t}."""
    g = field.grid
    uhat = np.fft.fftn(field.mesh)
    uhat *= np.exp(-1j * g.ksq() * t)
    return field_from_mesh(g, np.fft.ifftn(uhat))


def gradient_fields(field: ComplexField) -> list:
    """Spectral partial derivatives, one ComplexField per axis."""
    g = field.grid
    uhat = np.fft.fftn(field.mesh)
    mesh = g.wavenumber_mesh()
    return [field_from_mesh(g, np.fft.ifftn(1j * km * uhat)) for km in mesh]


def gradient_magnitude(field: ComplexField) -> np.ndarray:
    """|grad u|(x) = (sum_axes |d_j u|^2)^{1/2}, flat real array."""
    acc = np.zeros(field.grid.total_points)
    for d in gradient_fields(field):
        acc += np.abs(d.values) ** 2
    return np.sqrt(acc)


def laplacian(field: ComplexField) -> ComplexField:
    g = field.grid
    uhat = np.fft.fftn(field.mesh)
    return field_from_mesh(g, np.fft.ifftn(-g.ksq() * uhat))


# --- norms ---------------------------------------------------------------


def sobolev_weight(ksq: np.ndarray, s: float, homogeneous: bool = False) -> np.ndarray:
    """Per-mode weight of the squared H^s norm: (1+|k|^2)^s, or |k|^{2s}."""
    if not homogeneous:
        return (1.0 + ksq) ** s
    if s < 0:  # zero mode would divide by zero; it carries no homogeneous weight
        safe = np.where(ksq > 0, ksq, 1.0)
        return np.where(ksq > 0, safe**s, 0.0)
    if s == 0:
        return np.ones_like(ksq)
    return ksq**s


def sobolev_norm(field: ComplexField, s: float, homogeneous: bool = False) -> float:
    a = spectral_coefficients(field)
    w = sobolev_weight(field.grid.ksq(), s, homogeneous)
    return float(np.sqrt(np.sum(w * np.abs(a) ** 2)))


def _lp_of_values(values: np.ndarray, r: float, cell: float) -> float:
    mags = np.abs(values)
    if r == INF:
        return float(mags.max(initial=0.0))
    return float((np.sum(mags**r) * cell) ** (1.0 / r))


def lebesgue_norm(field: ComplexField, r: float) -> float:
    if r != INF and r < 1:
        raise UsageError(f"Lebesgue exponent must be >= 1 or inf, got {r}")
    return _lp_of_values(field.values, r, field.grid.cell_measure)


def trapezoid_steps(y, times: Sequence[float]) -> np.ndarray:
    """Trapezoid integrals of y, along axis 0, between consecutive snapshot times."""
    y = np.asarray(y)
    dt = np.diff(np.asarray(times, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    return 0.5 * dt * (y[1:] + y[:-1])


def time_norm(spatial, times: Sequence[float], q: float) -> float:
    """L^q norm in time of per-snapshot spatial norms, by the trapezoid rule
    on the snapshot times (0 for a single snapshot)."""
    spatial = np.asarray(spatial, dtype=float)
    if q == INF:
        return float(spatial.max(initial=0.0))
    return float(np.sum(trapezoid_steps(spatial**q, times)) ** (1.0 / q))


def spacetime_norm(
    fields: Sequence[ComplexField],
    times: Sequence[float],
    interval: SpacetimeInterval,
    q: float,
    r: float,
    derivative_order: int = 0,
) -> float:
    """Mixed L^q_t L^r_x norm over snapshot indices in `interval`.

    Time integration by the trapezoid rule on the stored snapshot times;
    derivative_order = 1 applies the norm to |grad u| (spectral gradient).
    """
    if derivative_order not in (0, 1):
        raise UsageError("derivative_order must be 0 or 1")
    interval.validate(len(fields))
    sl = slice(interval.start_index, interval.end_index + 1)
    spatial = []
    for f in fields[sl]:
        vals = gradient_magnitude(f) if derivative_order == 1 else f.values
        spatial.append(_lp_of_values(vals, r, f.grid.cell_measure))
    return time_norm(spatial, times[sl], q)


def x1_norm(
    fields: Sequence[ComplexField], times: Sequence[float], interval: SpacetimeInterval
) -> float:
    """Auxiliary norm: gradient in L^6_t L^{12/5}_x over the interval."""
    return spacetime_norm(fields, times, interval, 6.0, 12.0 / 5.0, derivative_order=1)


# --- binary field codec ----------------------------------------------------
#
# A field is stored as little-endian complex128 in row-major order, which has
# the same bytes as interleaved (re, im) little-endian float64.

FIELD_DTYPE = np.dtype("<c16")


def write_fields(fh, fields: Sequence[ComplexField]) -> None:
    """Append fields to an open binary file, one field at a time."""
    for f in fields:
        fh.write(np.ascontiguousarray(f.values, dtype=FIELD_DTYPE))


def read_header(fh, magic: bytes, fmt: str) -> tuple:
    """Check the magic at the start of an open binary file and unpack the
    struct-format header that follows it."""
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"{fh.name}: bad magic {got!r}")
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise FormatError(f"{fh.name}: header is truncated")
    return struct.unpack(fmt, raw)


def header_grid(fh, dim: int, points_per_axis: int, box_length: float, dt: float) -> GridSpec:
    """The grid a file header describes; its geometry and time step must be valid."""
    if not (0 < dt < INF and 0 < box_length < INF):
        raise FormatError(
            f"{fh.name}: box length {box_length} and time step {dt} must be positive and finite"
        )
    try:
        return make_grid(dim, points_per_axis, box_length)
    except ConfigurationError as exc:
        raise FormatError(f"{fh.name}: {exc}") from None


def read_fields(fh, grid: GridSpec, count: int) -> List[ComplexField]:
    """Read the `count` fields that make up the rest of an open binary file.

    The remaining bytes must be exactly `count` fields and every value must
    be finite.  The returned arrays are writable.
    """
    nbytes = grid.total_points * FIELD_DTYPE.itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != count * nbytes:
        raise FormatError(
            f"{fh.name}: payload has {left} bytes, the header implies {count * nbytes}"
        )
    out = []
    for i in range(count):
        buf = bytearray(nbytes)
        fh.readinto(buf)
        f = ComplexField(grid, np.frombuffer(buf, dtype=FIELD_DTYPE))
        if not f.is_finite():
            raise FormatError(f"{fh.name}: field {i} holds a non-finite value")
        out.append(f)
    return out
