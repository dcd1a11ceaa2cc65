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
from functools import cached_property
from typing import List, Optional, Sequence

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


def step_rng(master_seed: int, stream_id: int, step: int) -> np.random.Generator:
    """Generator keyed by (seed, stream) with a disjoint counter block per step.

    Reproducible independently of thread scheduling: the draw for a given
    (stream, step) never depends on what other streams or steps consumed.
    """
    key = np.array([master_seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, step & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _complex_normals(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Complex Gaussians with i.i.d. parts of variance variance/2, the real parts drawn first."""
    scale = np.sqrt(variance / 2.0)
    z = np.empty(shape, dtype=np.complex128)
    np.multiply(rng.standard_normal(shape), scale, out=z.real)
    np.multiply(rng.standard_normal(shape), scale, out=z.imag)
    return z


def sample_wiener_increment(
    spec: NoiseSpec, dt: float, rng_state: np.random.Generator
) -> ComplexField:
    """One increment phi*DeltaW over a step of length dt (physical space)."""
    if dt <= 0:
        raise UsageError(f"dt must be positive, got {dt}")
    g = spec.grid
    if spec.kind == "zero":
        return lattice.zero_field(g)
    z = _complex_normals(rng_state, g.shape, dt)
    coeffs = spec.multiplier_profile() * z
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
    This is the physical-space reference for the Fourier-space Psi update in
    dynamics.solve, which is the one production code path advancing Psi.
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
    """The phi*DeltaW fields consumed by one trajectory, one per row of dw
    (lattice shape), step-major."""

    grid: GridSpec
    dt: float
    dw: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.dw)

    @cached_property
    def increments(self) -> List[ComplexField]:
        """Writable ComplexField views of the rows of dw."""
        return [ComplexField(self.grid, row.ravel()) for row in self.dw]


def generate_noise_path(
    spec: NoiseSpec, dt: float, n_steps: int, master_seed: int, stream_id: int = 0,
    first_step: int = 0,
) -> NoisePath:
    """Steps first_step .. first_step + n_steps - 1 of the path keyed by
    (master_seed, stream_id): each step's draw depends only on its own key,
    so a path drawn in pieces has the rows of one drawn whole."""
    dw = np.empty((n_steps,) + spec.grid.shape, dtype=np.complex128)
    for j in range(n_steps):
        rng = step_rng(master_seed, stream_id, first_step + j)
        dw[j] = sample_wiener_increment(spec, dt, rng).mesh
    return NoisePath(grid=spec.grid, dt=dt, dw=dw)


def coarsen_noise_path(path: NoisePath, factor: int) -> NoisePath:
    """Sum consecutive fine increments into coarse ones (Brownian-consistent)."""
    if factor < 1 or path.n_steps % factor != 0:
        raise UsageError(f"coarsening factor {factor} does not divide {path.n_steps} steps")
    dw = path.dw.reshape((-1, factor) + path.grid.shape).sum(axis=1)
    return NoisePath(grid=path.grid, dt=path.dt * factor, dw=dw)


def write_noise_path(path: NoisePath, filename: str) -> None:
    """Binary export: magic, dim/n/steps as u64 LE, dt as LE double, then
    the increments in the lattice field codec, step-major."""
    g = path.grid
    with open(filename, "wb") as fh:
        fh.write(NOISE_MAGIC)
        fh.write(struct.pack(_NOISE_HEADER, g.dim, g.points_per_axis, path.n_steps, path.dt))
        lattice.write_fields(fh, path.dw)


def read_noise_path(filename: str, box_length: float) -> NoisePath:
    """Read back a file written by write_noise_path; raises FormatError when
    it is malformed or holds a non-finite value."""
    with open(filename, "rb") as fh:
        dim, n, steps, dt = lattice.read_header(fh, NOISE_MAGIC, _NOISE_HEADER)
        grid = lattice.header_grid(fh, dim, n, box_length, dt)
        values = lattice.read_fields(fh, grid, steps)
    return NoisePath(grid=grid, dt=dt, dw=values)


# --- statistics over Psi ensembles ---------------------------------------


def mean_and_se(samples: Sequence[float]) -> tuple:
    """Sample mean and its standard error (0 for a single sample)."""
    vals = np.asarray(samples, dtype=float)
    se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return float(vals.mean()), se


def psi_moment_estimate(
    ensembles: Sequence[Sequence[ComplexField]],
    times: Sequence[float],
    t: float,
    s: float,
    p: float,
) -> tuple:
    """Monte Carlo estimate of E[ sup_{tau <= t} ||Psi(tau)||_{H^s}^p ].

    Each element of `ensembles` is one Psi trajectory sampled on `times`.
    Returns (estimate, standard_error).
    """
    if len(ensembles) == 0:
        raise UsageError("empty ensemble")
    if p < 2:
        raise UsageError(f"moment order p must be >= 2, got {p}")
    times = np.asarray(times, dtype=float)
    upto = np.searchsorted(times, t + 1e-12 * max(1.0, abs(t)), side="right")
    sups = []
    for traj in ensembles:
        norms = [lattice.sobolev_norm(f, s) for f in traj[:upto]]
        sups.append(max(norms) ** p)
    return mean_and_se(sups)
