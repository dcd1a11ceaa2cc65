"""Hilbert-Schmidt noise operators, cylindrical Wiener increments, and exact
sampling of the stochastic convolution.

The orthonormal basis of L^2 on the box is fixed to the Fourier exponentials
e_k(x) = exp(ik.x)/sqrt(V), so a multiplier-type operator is diagonal:
phi e_k = phihat(k) e_k.  A Wiener increment phi dW then has spectral
coefficient phihat(k) z_k with z_k complex Gaussian of total variance dt
(real and imaginary parts i.i.d. with variance dt/2 each).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence

import numpy as np

from . import lattice
from .errors import UsageError
from .lattice import ComplexField, GridSpec

_MASK64 = (1 << 64) - 1
NOISE_MAGIC = b"SNLSNSE1"
_NOISE_HEADER = "<QQQd"  # dim, points per axis, step count, dt


@dataclass(frozen=True)
class NoiseSpec:
    """The operator phi: a spectral multiplier profile, or zero."""

    grid: GridSpec
    kind: str = "zero"  # {"multiplier", "zero"}
    amplitude: float = 0.0
    sigma: float = 0.0
    cutoff: Optional[float] = None  # hard spectral cutoff on |k|

    def __post_init__(self):
        if self.kind not in ("multiplier", "zero"):
            raise UsageError(f"unknown noise kind {self.kind!r}")
        if self.kind == "multiplier" and self.amplitude < 0:
            raise UsageError("multiplier amplitude must be nonnegative")

    def multiplier_profile(self) -> np.ndarray:
        """phihat(k) = amplitude * (1+|k|^2)^(-sigma/2) on the lattice, with
        cutoff (0 for zero noise); computed once per spec and read-only."""
        return self._profile

    @cached_property
    def _profile(self) -> np.ndarray:
        ksq = self.grid.ksq()
        if self.kind == "zero":
            prof = np.zeros_like(ksq)
        else:
            prof = self.amplitude * (1.0 + ksq) ** (-self.sigma / 2.0)
            if self.cutoff is not None:
                prof = np.where(ksq <= self.cutoff**2, prof, 0.0)
        prof.flags.writeable = False
        return prof


def zero_noise(grid: GridSpec) -> NoiseSpec:
    return NoiseSpec(grid=grid, kind="zero")


def multiplier_noise(
    grid: GridSpec, amplitude: float, sigma: float, cutoff: Optional[float] = None
) -> NoiseSpec:
    return NoiseSpec(grid=grid, kind="multiplier", amplitude=amplitude, sigma=sigma, cutoff=cutoff)


def hs_norm(spec: NoiseSpec, s: float, homogeneous: bool = False) -> float:
    """Hilbert-Schmidt norm of phi from L^2 into H^s (or homogeneous H^s)."""
    w = lattice.sobolev_weight(spec.grid.ksq(), s, homogeneous)
    return float(np.sqrt(np.sum(w * spec.multiplier_profile() ** 2)))


# --- counter-based RNG ----------------------------------------------------


@cache
def _generator() -> tuple:
    """The one Philox generator of this process and the one state dict that
    every step_rng call rewrites (counter and key in place) and sets: a
    reset takes about 2 us, one that builds a new dict about 5 us, and a new
    Philox and Generator about 14 us (2-CPU x86 VM, numpy 2.4.6).  Made on
    first use, so importing snls does not import numpy.random."""
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.zeros(2, dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # the buffer is empty: the next draw makes a new block
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(np.random.Philox(key=0)), state


def step_rng(master_seed: int, stream_id: int, step: int) -> np.random.Generator:
    """Generator keyed by (seed, stream) with a disjoint counter block per step.

    Reproducible independently of thread scheduling: the draw for a given
    (stream, step) never depends on what other streams or steps consumed.
    The generator is the process's one generator with its state reset to the
    one np.random.Philox(counter=[0, 0, step, 0], key=[seed, stream]) starts
    in, so it draws the same numbers.  It is valid until the next step_rng
    call in the process, which resets it again.  Not thread-safe: the
    generator and the state dict it is reset from are shared by every
    thread.
    """
    rng, state = _generator()
    state["state"]["counter"][2] = step & _MASK64
    key = state["state"]["key"]
    key[0] = master_seed & _MASK64
    key[1] = stream_id & _MASK64
    rng.bit_generator.state = state
    return rng


def _phihat_z(profile, normals: np.ndarray, dt: float) -> np.ndarray:
    """phihat(k) z_k from standard normals (2, ...): z has the real parts
    sqrt(dt/2) normals[0] and the imaginary parts sqrt(dt/2) normals[1], so
    its parts are i.i.d. with variance dt/2.  The one formula of the draw:
    each operation runs once over whatever stack of rows normals holds."""
    scale = np.sqrt(dt / 2.0)
    z = np.empty(normals.shape[1:], dtype=np.complex128)
    np.multiply(normals[0], scale, out=z.real)
    np.multiply(normals[1], scale, out=z.imag)
    return np.multiply(profile, z, out=z)


def sample_wiener_increment(
    spec: NoiseSpec, dt: float, rng_state: np.random.Generator
) -> ComplexField:
    """One increment phi*DeltaW over a step of length dt (physical space):
    the spectral coefficients phihat(k) z_k, the real parts of z drawn
    first (zero noise draws nothing), through field_from_spectral."""
    if dt <= 0:
        raise UsageError(f"dt must be positive, got {dt}")
    g = spec.grid
    if spec.kind == "zero":
        coeffs = np.zeros(g.shape, dtype=np.complex128)
    else:
        coeffs = _phihat_z(spec.multiplier_profile(), rng_state.standard_normal((2,) + g.shape), dt)
    return lattice.field_from_spectral(g, coeffs)


def step_stochastic_convolution(
    psi: ComplexField,
    spec: NoiseSpec,
    dt: float,
    rng_state: Optional[np.random.Generator] = None,
    increment: Optional[ComplexField] = None,
) -> tuple:
    """Advance Psi by one step: Psi(t+dt) = S(dt) Psi(t) - i * (phi DeltaW).

    Exact in law because |e^{-i|k|^2 tau}| = 1 makes the Ito-integral variance
    of each mode exactly dt * phihat(k)^2.  Returns (psi_next, increment).
    This is the physical-space reference for dynamics.stochastic_convolution,
    the Fourier recursion that a dpd step, noise-stats and duhamel_residual
    run: the one production code advancing Psi.
    """
    if increment is None:
        if rng_state is None:
            raise UsageError("step_stochastic_convolution needs an rng_state or an increment")
        increment = sample_wiener_increment(spec, dt, rng_state)
    if increment.grid != psi.grid:
        raise UsageError("increment grid does not match psi grid")
    moved = lattice.apply_schrodinger_group(psi, dt)
    return ComplexField(psi.grid, moved.values - 1j * increment.values), increment


# --- noise paths ----------------------------------------------------------


@dataclass
class NoisePath:
    """The phi*DeltaW increments consumed by one trajectory, held as their
    Fourier rows fftn(phi*DeltaW) (lattice shape), step-major."""

    grid: GridSpec
    dt: float
    dw_hat: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.dw_hat)

    def physical(self, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """The physical increments of steps start .. stop - 1, one new row each:
        the bits sample_wiener_increment gives for a drawn row."""
        return np.fft.ifftn(self.dw_hat[start:stop], axes=self.grid.axes)


def member_rows(spec: NoiseSpec, dt: float, master_seed: int, stream_ids: Sequence[int],
                n_steps: int):
    """Fourier rows 0 .. n_steps - 1 of the paths keyed by (master_seed, s)
    for each s in stream_ids: one new (M, *grid.shape) array per step, drawn
    when asked for; a row's draw depends only on its own key.  A step calls
    step_rng once per member, in order, and draws its real parts, then its
    imaginary ones, with one standard_normal call into a held
    (M, 2, *grid.shape) array; _phihat_z and the scaling by N/sqrt(V) then
    run once over the stack.  A row is the array field_from_spectral
    transforms (zero noise draws nothing)."""
    if dt <= 0:
        raise UsageError(f"dt must be positive, got {dt}")
    g = spec.grid
    shape = (len(stream_ids),) + g.shape
    scale = g.total_points / np.sqrt(g.volume)
    normals = np.empty((len(stream_ids), 2) + g.shape)
    for j in range(n_steps):
        if spec.kind == "zero":
            yield np.zeros(shape, dtype=np.complex128)
            continue
        for m, s in enumerate(stream_ids):
            step_rng(master_seed, s, j).standard_normal(out=normals[m])
        rows = _phihat_z(spec.multiplier_profile(), normals.swapaxes(0, 1), dt)
        rows *= scale
        yield rows


def increment_rows(spec: NoiseSpec, dt: float, master_seed: int, stream_id: int, n_steps: int):
    """Fourier rows 0 .. n_steps - 1 of the path keyed by (master_seed,
    stream_id): member_rows of the one stream, each row drawn when asked
    for."""
    return (rows[0] for rows in member_rows(spec, dt, master_seed, [stream_id], n_steps))


def generate_noise_path(
    spec: NoiseSpec, dt: float, n_steps: int, master_seed: int, stream_id: int = 0
) -> NoisePath:
    """The first n_steps rows of increment_rows, held as one array."""
    dw_hat = np.empty((n_steps,) + spec.grid.shape, dtype=np.complex128)
    for j, row in enumerate(increment_rows(spec, dt, master_seed, stream_id, n_steps)):
        dw_hat[j] = row
    return NoisePath(grid=spec.grid, dt=dt, dw_hat=dw_hat)


def coarsen_noise_path(path: NoisePath, factor: int) -> NoisePath:
    """Sum consecutive fine increments into coarse ones (Brownian-consistent)."""
    if factor < 1 or path.n_steps % factor != 0:
        raise UsageError(f"coarsening factor {factor} does not divide {path.n_steps} steps")
    if factor == 1:
        return path  # the sum of one row is that row: no copy of the fine path
    dw_hat = path.dw_hat.reshape((-1, factor) + path.grid.shape).sum(axis=1)
    return NoisePath(grid=path.grid, dt=path.dt * factor, dw_hat=dw_hat)


class NoisePathWriter(lattice.FieldWriter):
    """noise_path.bin written block by block: magic, dim/n/steps as u64 LE,
    dt as LE double, then the physical increments in the lattice field
    codec, step-major.  Called with a SnapshotBlock, it writes the block's
    physical noise rows at their steps."""

    def __init__(self, filename: str, grid: GridSpec, dt: float, n_steps: int):
        header = struct.pack(_NOISE_HEADER, grid.dim, grid.points_per_axis, n_steps, dt)
        super().__init__(filename, NOISE_MAGIC + header, grid)

    def __call__(self, block) -> None:
        if block.dw_hat is not None and block.dw_hat.shape[1]:
            self.write(block.start, block.dw[0])


def write_noise_path(path: NoisePath, filename: str) -> None:
    """Binary export of a held path (NoisePathWriter), its physical rows made
    from the Fourier rows block by block."""
    g = path.grid
    with NoisePathWriter(filename, g, path.dt, path.n_steps) as writer:
        for sl in lattice.row_blocks(path.n_steps, g.total_points * 16):
            writer.write(sl.start, path.physical(sl.start, sl.stop))


def read_noise_path(filename: str, box_length: float) -> NoisePath:
    """Read back a file written by write_noise_path, transforming its rows to
    Fourier rows in place; raises FormatError when it is malformed or holds a
    non-finite value."""
    with open(filename, "rb") as fh:
        dim, n, steps, dt = lattice.read_header(fh, NOISE_MAGIC, _NOISE_HEADER)
        grid = lattice.header_grid(fh, dim, n, box_length, dt)
        values = lattice.read_fields(fh, grid, steps)
    np.fft.fftn(values, axes=grid.axes, out=values)
    return NoisePath(grid=grid, dt=dt, dw_hat=values)


# --- ensemble statistics ------------------------------------------------


def mean_and_se(samples: Sequence[float]) -> tuple:
    """Sample mean and its standard error (0 for a single sample)."""
    vals = np.asarray(samples, dtype=float)
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se
