"""Time integration of the stochastic Gross-Pitaevskii equation.

Two stochastic routes share the same noise realization:
    * direct -- Strang split-step on u = 1 + v with the additive increment
      applied after the splitting sandwich each step;
    * dpd    -- the decomposition u = 1 + v + Psi, where Psi is advanced by
      the exact-in-law stochastic-convolution sampler and v solves the
      remainder equation with the fully expanded nonlinearity.

Deterministic schemes: deterministic_gp (same equation, zero noise) and
deterministic_cubic (i u_t + Lap u = |u|^2 u, the gauge image of GP).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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
    disable_nonlinearity: bool = False  # debug switch: pure linear evolution
    prescribed_path: Optional[NoisePath] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.dt <= 0 or self.t_final <= 0 or self.dt > self.t_final:
            raise ConfigurationError("need 0 < dt <= t_final")
        steps = self.t_final / self.dt
        if not is_whole(steps):
            raise ConfigurationError(f"t_final/dt = {steps} is not an integer")
        if self.snapshot_stride < 1 or round(steps) % self.snapshot_stride != 0:
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
    """Snapshots of one run.  A trajectory read from a file has no solver
    config and no noise path."""

    grid: GridSpec
    scheme: str
    times: np.ndarray
    v_snapshots: List[ComplexField]
    psi_snapshots: List[ComplexField]
    config: Optional[SolverConfig] = None
    noise_path: Optional[NoisePath] = None
    frame: str = "gp"  # "gp" or "cubic" (gauge-transformed)

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

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

    Algebraically identical to (|v + 1 + psi|^2 - 1)(v + 1 + psi).
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


def _strang_u_step(v: ComplexField, dt: float, cubic: bool, skip_nl: bool) -> ComplexField:
    """Strang sandwich on u = 1 + v; returns updated v = u - 1."""
    g = v.grid
    u = ComplexField(g, 1.0 + v.values)
    u = lattice.apply_schrodinger_group(u, dt / 2.0)
    if not skip_nl:
        u = _cubic_phase_substep(u, dt) if cubic else nonlinear_phase_substep(u, dt)
    u = lattice.apply_schrodinger_group(u, dt / 2.0)
    return ComplexField(g, u.values - 1.0)


def strang_step_dpd(v_field: ComplexField, psi_field: ComplexField, dt: float) -> ComplexField:
    """Strang step for the remainder v with Psi frozen over the step.

    Half linear step, one classical RK4 substep of the pointwise ODE
    v' = -i (|v|^2 v + g(v, Psi)), half linear step.  The caller passes the
    midpoint-consistent Psi (step-start value freely propagated by dt/2).
    """
    if v_field.grid != psi_field.grid:
        raise UsageError("v and psi live on different grids")
    g = v_field.grid
    v = lattice.apply_schrodinger_group(v_field, dt / 2.0)

    def rhs(vals: np.ndarray) -> np.ndarray:
        return -1j * dpd_nonlinearity(ComplexField(g, vals), psi_field).values

    y = v.values
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return lattice.apply_schrodinger_group(ComplexField(g, y), dt / 2.0)


# --- full solve -----------------------------------------------------------


def solve(config: SolverConfig) -> Trajectory:
    g = config.grid
    n_steps = config.n_steps
    stride = config.snapshot_stride
    path = config.prescribed_path
    if path is not None and path.n_steps != n_steps:
        raise ConfigurationError(
            f"prescribed path has {path.n_steps} steps, solver needs {n_steps}"
        )

    v = ComplexField(g, config.initial_v.values.copy())
    psi = lattice.zero_field(g)
    zero = lattice.zero_field(g)
    record = NoisePath(
        grid=g, dt=config.dt, rng_seed=config.master_seed, stream_id=config.stream_id
    )

    times = [0.0]
    v_snaps = [v]
    psi_snaps = [psi if config.scheme == "dpd" else zero]

    for j in range(n_steps):
        if path is not None:
            inc = path.increments[j]
        elif config.stochastic:
            rng = noise_mod.step_rng(config.master_seed, config.stream_id, j)
            inc = noise_mod.sample_wiener_increment(config.noise, config.dt, rng)
        else:
            inc = None

        if config.scheme in ("direct", "deterministic_gp"):
            v = _strang_u_step(v, config.dt, cubic=False, skip_nl=config.disable_nonlinearity)
            if inc is not None:
                v = ComplexField(g, v.values - 1j * inc.values)
        elif config.scheme == "deterministic_cubic":
            v = _strang_u_step(v, config.dt, cubic=True, skip_nl=config.disable_nonlinearity)
        else:  # dpd
            if config.disable_nonlinearity:
                v = lattice.apply_schrodinger_group(v, config.dt)
            else:
                # midpoint-consistent convention: the step-start Psi is freely
                # propagated to the step midpoint before entering the frozen-
                # Psi nonlinear substep (adapted: uses no new increment)
                psi_mid = lattice.apply_schrodinger_group(psi, config.dt / 2.0)
                v = strang_step_dpd(v, psi_mid, config.dt)
            if inc is not None:
                psi, inc = noise_mod.step_stochastic_convolution(
                    psi, config.noise, config.dt, increment=inc
                )
            else:
                psi = lattice.apply_schrodinger_group(psi, config.dt)

        if inc is not None:
            record.increments.append(inc)

        if not v.is_finite() or (config.scheme == "dpd" and not psi.is_finite()):
            raise BlowUpError(j + 1, (j + 1) * config.dt)

        if (j + 1) % stride == 0:
            times.append((j + 1) * config.dt)
            v_snaps.append(v)
            psi_snaps.append(psi if config.scheme == "dpd" else zero)

    return Trajectory(
        grid=g,
        scheme=config.scheme,
        times=np.asarray(times),
        v_snapshots=v_snaps,
        psi_snapshots=psi_snaps,
        config=config,
        noise_path=record if record.n_steps else None,
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
    g = traj.grid
    v_new, zero = [], lattice.zero_field(g)
    for i, t in enumerate(traj.times):
        u = traj.u_snapshot(i).values
        v_new.append(ComplexField(g, np.exp(-1j * float(t)) * u - 1.0))
    return Trajectory(
        grid=g,
        scheme=traj.scheme,
        times=traj.times.copy(),
        v_snapshots=v_new,
        psi_snapshots=[zero] * traj.n_snapshots,
        config=traj.config,
        noise_path=traj.noise_path,
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
        lattice.write_fields(fh, traj.v_snapshots)
        if traj.scheme == "dpd":
            lattice.write_fields(fh, traj.psi_snapshots)


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
    if scheme == "dpd":
        psi_snaps = fields[snaps:]
    else:
        psi_snaps = [lattice.zero_field(grid)] * snaps
    return Trajectory(
        grid=grid, scheme=scheme, times=np.arange(snaps) * dt,
        v_snapshots=fields[:snaps], psi_snapshots=psi_snaps,
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
