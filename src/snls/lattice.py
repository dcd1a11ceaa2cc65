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

import math
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, FormatError, UsageError

INF = float("inf")
TINY = 2.0**-1022  # the least normal float


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

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis wavenumbers 2*pi*m/L in FFT bin order, Nyquist positive;
        built once per grid and read-only."""
        n = self.points_per_axis
        m = np.arange(n)
        m = np.where(m <= n // 2, m, m - n)
        k = 2.0 * np.pi * m / self.box_length
        k.flags.writeable = False
        return k

    @property
    def axes(self) -> tuple:
        """The trailing axes of a stack of fields in lattice shape."""
        return tuple(range(-self.dim, 0))

    def wavenumber_mesh(self) -> tuple:
        """One |dim|-dimensional wavenumber array per axis (open meshgrid);
        built once per grid and read-only."""
        return self._wavenumber_mesh

    @cached_property
    def _wavenumber_mesh(self) -> tuple:
        mesh = tuple(np.meshgrid(*([self.wavenumbers] * self.dim), indexing="ij", sparse=True))
        for km in mesh:
            km.flags.writeable = False
        return mesh

    def ksq(self) -> np.ndarray:
        """|k|^2 on the full lattice, shape = grid.shape; computed once per
        grid and read-only."""
        return self._ksq

    @cached_property
    def _ksq(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for km in self.wavenumber_mesh():
            out = out + km**2
        out.flags.writeable = False
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
    if not 0 < box_length < INF:
        raise ConfigurationError(f"box_length must be positive and finite, got {box_length}")
    grid = GridSpec(dim=dim, points_per_axis=points_per_axis, box_length=box_length)
    try:  # float ** raises OverflowError, and underflows to 0.0 without a word
        normal = all(TINY <= m < INF for m in (grid.volume, grid.cell_measure))
    except OverflowError:
        normal = False
    if not normal:
        raise ConfigurationError(f"box_length = {box_length!r} in {dim}-d puts the volume "
                                 "or the cell measure outside the normal floats")
    return grid


def all_finite(values: np.ndarray) -> bool:
    """True when every entry of a complex array is finite.  A nan or an
    infinity makes the sum of its floats non-finite, so the exact scan (and
    its bool array) runs only then, or when finite values overflow the sum."""
    flat = values.view(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(flat, axis=None)
    return math.isfinite(total) or bool(np.all(np.isfinite(flat)))


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


# Bytes of rows per block when snapshots are streamed or a stack is walked
# block by block.  Per block a run holds its snapshots' Fourier rows, their
# physical copy, its noise rows and their physical copy dw, and the norm
# pass holds a stack of Fourier rows, one derivative block of the stack's
# shape that takes each axis in turn, the squares of each gradient field
# and three more real half-size arrays: all made once and held from block
# to block (held), so the block sets the peak memory of a run on large
# grids.  When each block's arrays were allocated afresh, blocks of two
# 128^2 rows (512 KiB) made the heap grow and shrink every block: 26,720
# page faults per simulate-128sq simulate against 7,974 at 256 KiB, and
# about 15% fewer steps/s.  Held, a simulate repeated in one interpreter
# takes about 600 minor page faults, against about 10,100 allocated per
# block (2-CPU x86 VM, glibc malloc).
BLOCK_BYTES = 1 << 18

_HELD: dict = {}  # name -> buffer


def held(name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
    """The module's scratch array `name` in this shape: a contiguous view of
    one buffer per name, made at first use and made again only when a
    larger one is asked for, so a caller that asks block after block
    allocates nothing once its largest block has come.  Its values last
    until the next call that asks for `name`, and no longer, and
    release_held() lets every buffer go."""
    size = math.prod(shape)
    buf = _HELD.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        _HELD.pop(name, None)  # the old buffer goes before the new one is made
        buf = _HELD[name] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def release_held() -> None:
    """Let every held buffer go: the drivers call this once a run's blocks
    are done, so no run's scratch outlives it."""
    _HELD.clear()


def row_blocks(count: int, row_bytes: int):
    """Slices covering count rows of row_bytes each, each about BLOCK_BYTES
    of rows and at least one row."""
    rows = max(1, BLOCK_BYTES // row_bytes)
    for first in range(0, count, rows):
        yield slice(first, min(first + rows, count))


def schrodinger_phase(grid: GridSpec, t: float) -> np.ndarray:
    """The multiplier e^{-i|k|^2 t} of the free propagator S(t), lattice shape."""
    return np.exp(-1j * grid.ksq() * t)


def apply_schrodinger_group(field: ComplexField, t: float) -> ComplexField:
    """Free propagator S(t) = e^{it Laplacian}: multiply mode k by e^{-i|k|^2 t}."""
    uhat = np.fft.fftn(field.mesh)
    uhat *= schrodinger_phase(field.grid, t)
    return ComplexField(field.grid, np.fft.ifftn(uhat).ravel())


def spectral_derivatives(grid: GridSpec, u: np.ndarray, out: np.ndarray):
    """Yield d_j u = ifft(i k_j fft(u, axis=j), axis=j) for each axis j in
    turn, of one physical field or of a stack of them over the trailing
    grid axes: one forward and one inverse pass along axis j alone, 2 dim
    passes in all.  Each derivative is made in place in out, u's shape, and
    lasts until the next is yielded."""
    ik = 1j * grid.wavenumbers
    for axis in grid.axes:
        np.fft.fft(u, axis=axis, out=out)
        out *= ik.reshape((-1,) + (1,) * (-1 - axis))  # k_j along axis j
        np.fft.ifft(out, axis=axis, out=out)
        yield out


def gradient_magnitude(field: ComplexField) -> np.ndarray:
    """|grad u|(x) = (sum_axes |d_j u|^2)^{1/2}, flat, for spacetime_norm, by
    the n-d route d_j u = ifftn(i k_j fftn(u)): the tests' reference for
    spectral_derivatives, as laplacian is for ham3's Laplacian term."""
    grid, uhat = field.grid, np.fft.fftn(field.mesh)
    squares = np.zeros(grid.total_points)
    part = np.empty_like(squares)
    for km in grid.wavenumber_mesh():
        flat = np.fft.ifftn(1j * km * uhat).reshape(squares.shape)
        squares += np.square(flat.real, out=part)
        squares += np.square(flat.imag, out=part)
    return np.sqrt(squares, out=part)


def laplacian(field: ComplexField) -> ComplexField:
    """Lap u by spectral derivatives."""
    lap = np.fft.ifftn(-field.grid.ksq() * np.fft.fftn(field.mesh))
    return ComplexField(field.grid, lap.ravel())


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


def _lp_of_values(values: np.ndarray, r: float, cell: float):
    """L^r norm of flat field values, or one per field of a stack (leading
    axes)."""
    mags = np.abs(values)
    if r == INF:
        return mags.max(axis=-1, initial=0.0)
    return root(np.sum(mags**r, axis=-1) * cell, r)


def root(sums: np.ndarray, r: float):
    """sums ** (1/r), one sum or an array of them, taken in scalar
    arithmetic, so a stacked field's norm is the one it has alone."""
    return np.array([s ** (1.0 / r) for s in sums.tolist()]) if sums.ndim else sums ** (1.0 / r)


def lebesgue_norm(field: ComplexField, r: float) -> float:
    if r != INF and r < 1:
        raise UsageError(f"Lebesgue exponent must be >= 1 or inf, got {r}")
    return float(_lp_of_values(field.values, r, field.grid.cell_measure))


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


def write_fields(fh, values: np.ndarray) -> None:
    """Append one field, or a stack of fields, to an open binary file."""
    fh.write(np.ascontiguousarray(values, dtype=FIELD_DTYPE))


class FieldWriter:
    """A binary file of a header and then fields in the codec, written in any
    order: write(index, rows) puts a stack of fields at field index onward.
    A context manager that closes the file."""

    def __init__(self, filename: str, header: bytes, grid: GridSpec):
        self.fh = open(filename, "wb")
        self.fh.write(header)
        self.start = len(header)
        self.field_bytes = grid.total_points * FIELD_DTYPE.itemsize

    def write(self, index: int, rows: np.ndarray) -> None:
        self.fh.seek(self.start + index * self.field_bytes)
        write_fields(self.fh, rows)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.fh.close()


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


def check_payload(fh, grid: GridSpec, count: int) -> None:
    """The bytes after an open binary file's position must be exactly `count`
    fields."""
    nbytes = grid.total_points * FIELD_DTYPE.itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != count * nbytes:
        raise FormatError(
            f"{fh.name}: payload has {left} bytes, the header implies {count * nbytes}"
        )


def read_rows(fh, grid: GridSpec, count: int, first: int = 0, out=None) -> np.ndarray:
    """Read `count` fields from an open binary file's position into one
    writable (count, *grid.shape) array, out if given.  Every value must be
    finite: a FormatError names the first field that is not, counting the
    fields read as the file's fields first, first + 1, ..."""
    values = np.empty((count,) + grid.shape, dtype=FIELD_DTYPE) if out is None else out
    if fh.readinto(values) != values.nbytes:
        raise FormatError(f"{fh.name}: payload is truncated")
    finite = np.isfinite(values.view(np.float64)).reshape(count, 2 * grid.total_points).all(axis=1)
    if not finite.all():
        raise FormatError(f"{fh.name}: field {first + int(np.argmin(finite))} holds a non-finite value")
    return values


def read_fields(fh, grid: GridSpec, count: int) -> np.ndarray:
    """Read the `count` fields that make up the rest of an open binary file
    (check_payload, then read_rows)."""
    check_payload(fh, grid, count)
    return read_rows(fh, grid, count)
