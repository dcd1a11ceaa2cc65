"""Time integration of the stochastic Gross-Pitaevskii equation.

Two stochastic routes share the same noise realization:
    * direct -- Strang split-step on u = 1 + v with the additive increment
      applied after the splitting sandwich each step;
    * dpd    -- the decomposition u = 1 + v + Psi, where Psi is advanced by
      the exact-in-law stochastic-convolution update and v solves the
      remainder equation; both are carried as Fourier coefficients.

Deterministic schemes: deterministic_gp (same equation, zero noise) and
deterministic_cubic (i u_t + Lap u = |u|^2 u, the gauge image of GP).
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

from . import lattice, noise as noise_mod
from .errors import BlowUpError, ConfigurationError, FormatError, UsageError
from .lattice import ComplexField, GridSpec
from .noise import NoisePath, NoiseSpec

SCHEMES = ("direct", "dpd", "deterministic_gp", "deterministic_cubic")
TRAJ_MAGIC = b"SNLSTRJ1"
# dim, points per axis, snapshot count, box length, snapshot spacing, scheme tag
_TRAJ_HEADER = "<QQQddB"


def is_whole(x: float) -> bool:
    """True when x is a finite integer up to a relative 1e-9: the test that a
    time span is a whole number of steps, or one step a multiple of another."""
    return math.isfinite(x) and abs(x - round(x)) <= 1e-9 * max(1.0, x)


def stride_divides(stride: int, steps: float) -> bool:
    """True when a snapshot stride is at least 1 and divides the whole step
    count `steps` (t_final/dt, already checked with is_whole)."""
    return stride >= 1 and round(steps) % stride == 0


@dataclass(frozen=True)
class SolverConfig:
    grid: GridSpec
    t_final: float
    dt: float
    scheme: str
    noise: NoiseSpec
    initial_v: ComplexField
    snapshot_stride: int = 1
    master_seed: int = 0
    stream_id: int = 0
    disable_nonlinearity: bool = False  # linear flow only: noise-stats' Psi-only dpd run
    prescribed_path: Optional[NoisePath] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0 or self.t_final <= 0 or self.dt > self.t_final:
            raise ConfigurationError("need 0 < dt <= t_final")
        steps = self.t_final / self.dt
        if not is_whole(steps):
            raise ConfigurationError(f"t_final/dt = {steps} is not an integer")
        if not stride_divides(self.snapshot_stride, steps):
            raise ConfigurationError("snapshot_stride must divide the step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def stochastic(self) -> bool:
        """True when the scheme consumes Wiener increments."""
        return self.scheme in ("direct", "dpd") and self.noise.kind != "zero"


@dataclass
class Trajectory:
    """Snapshots of one run, one per row of v (lattice shape), and of Psi in
    psi for dpd (None otherwise: Psi = 0).  A trajectory read from a file has
    no solver config and no noise path."""

    grid: GridSpec
    scheme: str
    times: np.ndarray
    v: np.ndarray
    psi: Optional[np.ndarray] = None
    config: Optional[SolverConfig] = None
    held_path: Optional[NoisePath] = None  # the path solve kept; read noise_path
    frame: str = "gp"  # "gp" or "cubic" (gauge-transformed)
    norms: Optional[dict] = field(default=None, init=False, repr=False, compare=False)  # snapshot_norms

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    @cached_property
    def noise_path(self) -> Optional[NoisePath]:
        """The path that drove the run: the one solve kept, else, for a
        stochastic config, the same rows drawn again from their (seed,
        stream, step) keys; None for a deterministic run or a file."""
        cfg = self.config
        if self.held_path is not None or cfg is None or not cfg.stochastic:
            return self.held_path
        return noise_mod.generate_noise_path(
            cfg.noise, cfg.dt, cfg.n_steps, cfg.master_seed, cfg.stream_id
        )

    @cached_property
    def v_snapshots(self) -> List[ComplexField]:
        """Writable ComplexField views of the rows of v."""
        return [ComplexField(self.grid, row.ravel()) for row in self.v]

    @cached_property
    def psi_snapshots(self) -> List[ComplexField]:
        """Writable views of the rows of psi; without psi, one shared zero field."""
        if self.psi is None:
            return [lattice.zero_field(self.grid)] * self.n_snapshots
        return [ComplexField(self.grid, row.ravel()) for row in self.psi]

    def solver_config(self, caller: str) -> SolverConfig:
        if self.config is None:
            raise UsageError(
                f"{caller} needs the solver config, which a trajectory read from a file lacks"
            )
        return self.config

    def u_snapshot(self, i: int) -> ComplexField:
        """Reconstruct u = 1 + v (+ Psi for the dpd scheme)."""
        vals = 1.0 + self.v_snapshots[i].values + self.psi_snapshots[i].values
        return ComplexField(self.grid, vals)

    def v_star_snapshot(self, i: int) -> ComplexField:
        """u - 1 = v + Psi (equals v for non-dpd schemes)."""
        vals = self.v_snapshots[i].values + self.psi_snapshots[i].values
        return ComplexField(self.grid, vals)


# --- nonlinearities -------------------------------------------------------


def gp_nonlinearity(u_field: ComplexField) -> ComplexField:
    """(|u|^2 - 1) u pointwise."""
    u = u_field.values
    return ComplexField(u_field.grid, (np.abs(u) ** 2 - 1.0) * u)


def dpd_nonlinearity(v_field: ComplexField, psi_field: ComplexField) -> ComplexField:
    """|v|^2 v plus the expanded remainder nonlinearity, summand by summand.

    Algebraically identical to (|v + 1 + psi|^2 - 1)(v + 1 + psi), the form
    strang_step_dpd evaluates.
    """
    if v_field.grid != psi_field.grid:
        raise UsageError("v and psi live on different grids")
    v = v_field.values
    p = psi_field.values
    re_v = v.real
    re_p = p.real
    re_vbar_p = (np.conj(v) * p).real
    abs_v2 = np.abs(v) ** 2
    abs_p2 = np.abs(p) ** 2
    out = abs_v2 * v
    out += 2.0 * re_v * v + 2.0 * re_p * v + 2.0 * re_vbar_p * v + abs_p2 * v
    out += abs_v2 + 2.0 * re_v + 2.0 * re_p + 2.0 * re_vbar_p + abs_p2
    out += abs_v2 * p + 2.0 * re_v * p + 2.0 * re_p * p + 2.0 * re_vbar_p * p + abs_p2 * p
    return ComplexField(v_field.grid, out)


def nonlinear_phase_substep(u_field: ComplexField, dt: float) -> ComplexField:
    """Exact integrator of i u_t = (|u|^2 - 1) u: u * exp(-i(|u|^2 - 1) dt)."""
    u = u_field.values
    return ComplexField(u_field.grid, u * np.exp(-1j * (np.abs(u) ** 2 - 1.0) * dt))


def _cubic_phase_substep(u_field: ComplexField, dt: float) -> ComplexField:
    u = u_field.values
    return ComplexField(u_field.grid, u * np.exp(-1j * np.abs(u) ** 2 * dt))


# --- single steps ---------------------------------------------------------
#
# Steps multiply by phase tables schrodinger_phase(grid, dt / 2) ("half") and
# schrodinger_phase(grid, dt) ("full") that solve builds once per run.


def _strang_u_step(v: np.ndarray, half: np.ndarray, substep, grid: GridSpec, dt: float) -> np.ndarray:
    """Strang sandwich on u = 1 + v (flat values) around the pointwise
    substep (None skips it); returns the updated v = u - 1."""
    u = lattice.free_flow(1.0 + v, half)
    if substep is not None:
        u = substep(ComplexField(grid, u), dt).values
    return lattice.free_flow(u, half) - 1.0


def strang_step_dpd(v_hat: np.ndarray, psi_mid: np.ndarray, half: np.ndarray, dt: float) -> np.ndarray:
    """Strang step for the remainder v, carried as its Fourier coefficients
    v_hat = fftn(v), with Psi frozen over the step at psi_mid.

    Half linear step, one classical RK4 substep of the pointwise ODE
    v' = -i (|w|^2 - 1) w with w = 1 + v + psi_mid, half linear step.  The
    caller passes the midpoint-consistent Psi (step-start value freely
    propagated by dt/2) in physical space, lattice shape, or 0.0 for a zero
    Psi.  Returns the new coefficients.
    """
    y = np.fft.ifftn(v_hat * half)
    c = 1.0 + psi_mid

    def nl(y: np.ndarray) -> np.ndarray:
        """(|w|^2 - 1) w; the factor -i sits in the stage coefficients."""
        w = y + c
        return (w.real**2 + w.imag**2 - 1.0) * w

    k1 = nl(y)
    k2 = nl(y + (-0.5j * dt) * k1)
    k3 = nl(y + (-0.5j * dt) * k2)
    k4 = nl(y + (-1j * dt) * k3)
    y += (-1j * dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    v_hat = np.fft.fftn(y)
    v_hat *= half
    return v_hat


# --- full solve -----------------------------------------------------------


def solve(config: SolverConfig) -> Trajectory:
    """Integrate from config.initial_v, storing every snapshot_stride-th step.

    Row j of the noise path drives step j.  The path is config.prescribed_path
    if given, else, for a stochastic scheme, generate_noise_path's: drawn
    whole before the first step at snapshot_stride 1 (the trajectory then
    holds a row per step already, and the ledger reads the path), otherwise
    drawn one step at a time and dropped once used, so memory does not grow
    with the step count.  direct and the deterministic schemes carry v in
    physical space; dpd carries the Fourier coefficients of v and Psi and
    transforms them back only at snapshot steps."""
    g = config.grid
    n_steps = config.n_steps
    stride = config.snapshot_stride
    dt = config.dt
    path = config.prescribed_path
    if path is not None:
        if path.n_steps != n_steps:
            raise ConfigurationError(
                f"prescribed path has {path.n_steps} steps, solver needs {n_steps}"
            )
        if path.grid != g:
            raise ConfigurationError(f"prescribed path is on {path.grid}, solver on {g}")
        # relative 1e-9, the slack converge's is_whole(dt / dt_min) leaves in a
        # coarsened path's dt; also catches nan
        if not abs(path.dt - dt) <= 1e-9 * dt:
            raise ConfigurationError(f"prescribed path has dt = {path.dt}, solver dt = {dt}")
    if path is None and config.stochastic and stride == 1:
        path = noise_mod.generate_noise_path(
            config.noise, dt, n_steps, config.master_seed, config.stream_id
        )
    dpd = config.scheme == "dpd"
    half = lattice.schrodinger_phase(g, dt / 2.0)
    if config.disable_nonlinearity:
        substep = None
    elif config.scheme == "deterministic_cubic":
        substep = _cubic_phase_substep
    else:
        substep = nonlinear_phase_substep

    v = config.initial_v.values  # steps rebind v, never write into it
    v_rows = np.empty((n_steps // stride + 1,) + g.shape, dtype=np.complex128)
    v_rows[0] = v.reshape(g.shape)
    psi_rows = np.zeros_like(v_rows) if dpd else None
    if dpd:
        full = lattice.schrodinger_phase(g, dt)
        v_hat = np.fft.fftn(v.reshape(g.shape))
        psi_hat = np.zeros(g.shape, dtype=np.complex128)

    for j, dw in zip(range(n_steps), _path_rows(config, path)):
        if not dpd:
            v = _strang_u_step(v, half, substep, g, dt)
            if dw is not None:
                v = v - 1j * dw.ravel()
            finite = lattice.all_finite(v)
        else:
            if substep is None:
                v_hat *= full
            else:
                # midpoint-consistent convention: the step-start Psi (zero until
                # the first increment) is freely propagated to the step midpoint before
                # entering the frozen-Psi nonlinear substep (adapted: uses no new increment)
                psi_mid = np.fft.ifftn(psi_hat * half) if dw is not None and j > 0 else 0.0
                v_hat = strang_step_dpd(v_hat, psi_mid, half, dt)
            # Psi(t+dt) = S(dt) Psi(t) - i * (phi DeltaW), exactly in Fourier space
            psi_hat *= full
            if dw is not None:
                psi_hat -= 1j * np.fft.fftn(dw)
            finite = lattice.all_finite(v_hat) and lattice.all_finite(psi_hat)

        if not finite:
            raise BlowUpError(j + 1, (j + 1) * dt)

        if (j + 1) % stride == 0:
            k = (j + 1) // stride
            if dpd:
                v_rows[k] = np.fft.ifftn(v_hat)
                psi_rows[k] = np.fft.ifftn(psi_hat)
            else:
                v_rows[k] = v.reshape(g.shape)

    return Trajectory(
        grid=g,
        scheme=config.scheme,
        times=np.arange(0, n_steps + 1, stride) * dt,
        v=v_rows,
        psi=psi_rows,
        config=config,
        held_path=path,
    )


def _path_rows(config: SolverConfig, path: Optional[NoisePath]):
    """Row j of the run's noise path for each step j: the rows of path when
    solve holds one, else (stochastic scheme) each row drawn as its step
    comes, else None for every step."""
    if path is not None:
        return iter(path.dw)
    if not config.stochastic:
        return itertools.repeat(None)
    return (
        noise_mod.generate_noise_path(
            config.noise, config.dt, 1, config.master_seed, config.stream_id, first_step=j
        ).dw[0]
        for j in range(config.n_steps)
    )


# --- oracles and transforms ------------------------------------------------


def duhamel_residual(traj: Trajectory, time_index: int) -> float:
    """L^2 norm of the defect of the Duhamel formulation at a snapshot time.

    u(t) - S(t) u0 + i int_0^t S(t-t') (|u|^2-1)u dt' + i * (noise convolution),
    with trapezoid quadrature for the drift term and the recorded increments
    for the convolution.  Expected O(dt), not zero.
    """
    if time_index < 0 or time_index >= traj.n_snapshots:
        raise UsageError("time_index out of range")
    g = traj.grid
    cfg = traj.solver_config("duhamel_residual")
    if cfg.stochastic and traj.noise_path is None:
        raise UsageError("duhamel_residual needs the recorded noise path")
    t = float(traj.times[time_index])
    u_t = traj.u_snapshot(time_index).values
    free = lattice.apply_schrodinger_group(traj.u_snapshot(0), t).values

    # trapezoid of S(t-t') N(u(t')) over the snapshots up to time_index
    ts = traj.times[: time_index + 1]
    integrands = np.array([
        lattice.apply_schrodinger_group(gp_nonlinearity(traj.u_snapshot(m)), t - s).values
        for m, s in enumerate(ts)
    ])
    drift = lattice.trapezoid_steps(integrands, ts).sum(axis=0)

    conv = np.zeros(g.total_points, dtype=np.complex128)
    if cfg.stochastic:
        path = traj.noise_path
        n_used = time_index * cfg.snapshot_stride
        for j in range(n_used):
            t_end = (j + 1) * path.dt
            moved = lattice.apply_schrodinger_group(path.increments[j], t - t_end)
            conv += -1j * moved.values

    defect = u_t - free + 1j * drift - conv
    return lattice.lebesgue_norm(ComplexField(g, defect), 2.0)


def gauge_transform(traj: Trajectory) -> Trajectory:
    """Multiply every u-snapshot at time t by e^{-it} (cubic-NLS frame)."""
    u = 1.0 + traj.v if traj.psi is None else 1.0 + traj.v + traj.psi
    phase = np.exp(-1j * traj.times).reshape((-1,) + (1,) * traj.grid.dim)
    return Trajectory(
        grid=traj.grid,
        scheme=traj.scheme,
        times=traj.times.copy(),
        v=phase * u - 1.0,
        psi=None if traj.psi is None else np.zeros_like(u),
        config=traj.config,
        held_path=traj.held_path,
        frame="cubic",
    )


# --- initial data ----------------------------------------------------------


def initial_constant(grid: GridSpec, alpha: complex = 1.0) -> ComplexField:
    """v0 for the constant state u0 = alpha."""
    return lattice.constant_field(grid, alpha - 1.0)


def initial_plane_wave(grid: GridSpec, mode: tuple) -> ComplexField:
    """v0 for u0 = exp(i k.x) with k = 2*pi*mode/L."""
    if len(mode) != grid.dim:
        raise ConfigurationError("plane-wave mode must have one integer per axis")
    xs = grid.coordinate_mesh()
    phase = np.zeros(grid.shape)
    for m, x in zip(mode, xs):
        phase = phase + (2.0 * np.pi * m / grid.box_length) * x
    return lattice.field_from_mesh(grid, np.exp(1j * phase) - 1.0)


def initial_gaussian_bump(grid: GridSpec, amplitude: float, width: float) -> ComplexField:
    """Real Gaussian bump centered mid-box: v0 = A exp(-|x-c|^2 / (2 w^2))."""
    xs = grid.coordinate_mesh()
    c = grid.box_length / 2.0
    r2 = np.zeros(grid.shape)
    for x in xs:
        r2 = r2 + (x - c) ** 2
    return lattice.field_from_mesh(grid, amplitude * np.exp(-r2 / (2.0 * width**2)))


def initial_random_band(
    grid: GridSpec, h1_norm: float, band_max: float, seed: int = 0
) -> ComplexField:
    """Band-limited random field rescaled to a prescribed homogeneous H^1 norm."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    ksq = grid.ksq()
    mask = (ksq > 0) & (ksq <= band_max**2)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    coeffs[mask] = z[mask]
    f = lattice.field_from_spectral(grid, coeffs)
    cur = lattice.sobolev_norm(f, 1.0, homogeneous=True)
    if cur == 0:
        raise ConfigurationError("band_max excludes every nonzero mode")
    return ComplexField(grid, f.values * (h1_norm / cur))


# --- binary export ----------------------------------------------------------


def write_trajectory(traj: Trajectory, filename: str) -> None:
    """Binary export; the stored dt is the snapshot spacing (solver dt times
    the snapshot stride), so a reader can reconstruct snapshot times."""
    cfg = traj.solver_config("write_trajectory")
    g = traj.grid
    header = struct.pack(
        _TRAJ_HEADER, g.dim, g.points_per_axis, traj.n_snapshots, g.box_length,
        cfg.dt * cfg.snapshot_stride, SCHEMES.index(traj.scheme),
    )
    with open(filename, "wb") as fh:
        fh.write(TRAJ_MAGIC + header)
        lattice.write_fields(fh, traj.v)
        if traj.psi is not None:
            lattice.write_fields(fh, traj.psi)


def _read_header(fh) -> tuple:
    """(grid, snapshot count, snapshot spacing, scheme) of an open trajectory file."""
    dim, n, snaps, box_length, dt, tag = lattice.read_header(fh, TRAJ_MAGIC, _TRAJ_HEADER)
    if tag >= len(SCHEMES):
        raise FormatError(f"{fh.name}: unknown scheme tag {tag}")
    return lattice.header_grid(fh, dim, n, box_length, dt), snaps, dt, SCHEMES[tag]


def read_trajectory(filename: str) -> Trajectory:
    """Read back a file written by write_trajectory.  The stored dt is the
    snapshot spacing, so times are i * dt.  Raises FormatError when the file
    is malformed or holds a non-finite value."""
    with open(filename, "rb") as fh:
        grid, snaps, dt, scheme = _read_header(fh)
        fields = lattice.read_fields(fh, grid, 2 * snaps if scheme == "dpd" else snaps)
    return Trajectory(
        grid=grid, scheme=scheme, times=np.arange(snaps) * dt,
        v=fields[:snaps], psi=fields[snaps:] if scheme == "dpd" else None,
    )


def read_trajectory_header(filename: str) -> dict:
    with open(filename, "rb") as fh:
        grid, snaps, dt, scheme = _read_header(fh)
    return {
        "dim": grid.dim,
        "points_per_axis": grid.points_per_axis,
        "n_snapshots": snaps,
        "box_length": grid.box_length,
        "dt": dt,
        "scheme": scheme,
    }
