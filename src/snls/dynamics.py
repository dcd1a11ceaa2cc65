"""Time integration of the stochastic Gross-Pitaevskii equation.

Two stochastic routes share the same noise realization:
    * direct -- Strang split-step on u = 1 + v with the additive increment
      applied after the splitting sandwich each step;
    * dpd    -- the decomposition u = 1 + v + Psi, where Psi is advanced by
      stochastic_convolution, the exact-in-law Fourier recursion that
      noise-stats and duhamel_residual run on the rows alone, and v solves
      the remainder equation; both are carried as Fourier coefficients.

Deterministic schemes: deterministic_gp (same equation, zero noise) and
deterministic_cubic (i u_t + Lap u = |u|^2 u, the gauge image of GP).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import struct
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import List, Optional, Sequence

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


def consumes_noise(scheme: str, noise_kind: str) -> bool:
    """True when the scheme draws Wiener increments from noise of this kind."""
    return scheme in ("direct", "dpd") and noise_kind != "zero"


def stride_divides(stride: int, steps: float) -> bool:
    """True when a snapshot stride is at least 1 and divides the whole step
    count `steps` (t_final/dt, already checked with is_whole)."""
    return stride >= 1 and round(steps) % stride == 0


@dataclass(frozen=True)
class SolverConfig:
    """One run and all it consumes.  The run steps on noise rows if and only
    if it is stochastic (a direct or dpd scheme with noise that is not
    zero): its prescribed_path when given, else the rows its (master_seed,
    stream_id) keys draw, which solve keeps as its path at any stride.
    Checked when made: the noise and initial_v live on the run's grid,
    initial_v is finite, and a prescribed path is given only to a
    stochastic run, on its grid, with its step count and its dt to a
    relative 1e-9."""

    grid: GridSpec
    t_final: float
    dt: float
    scheme: str
    noise: NoiseSpec
    initial_v: ComplexField
    snapshot_stride: int = 1
    master_seed: int = 0
    stream_id: int = 0
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
        for name, on in (("noise", self.noise.grid), ("initial_v", self.initial_v.grid)):
            if on != self.grid:
                raise ConfigurationError(f"{name} is on {on}, solver on {self.grid}")
        if not lattice.all_finite(self.initial_v.values):
            raise ConfigurationError("initial_v holds a non-finite value")
        path = self.prescribed_path
        if path is None:
            return
        if not self.stochastic:
            raise ConfigurationError(f"scheme {self.scheme} with {self.noise.kind} noise "
                                     "draws no noise, so it takes no prescribed path")
        if path.n_steps != self.n_steps:
            raise ConfigurationError(
                f"prescribed path has {path.n_steps} steps, solver needs {self.n_steps}"
            )
        if path.grid != self.grid:
            raise ConfigurationError(f"prescribed path is on {path.grid}, solver on {self.grid}")
        # relative 1e-9, is_whole's slack: a coarsened path's dt carries
        # rounding (3 * 0.1); also catches nan
        if not abs(path.dt - self.dt) <= 1e-9 * self.dt:
            raise ConfigurationError(f"prescribed path has dt = {path.dt}, solver dt = {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def n_snapshots(self) -> int:
        return self.n_steps // self.snapshot_stride + 1

    @property
    def snapshot_times(self) -> np.ndarray:
        return np.arange(0, self.n_steps + 1, self.snapshot_stride) * self.dt

    @property
    def stochastic(self) -> bool:
        """True when the scheme consumes Wiener increments."""
        return consumes_noise(self.scheme, self.noise.kind)


@dataclass
class Trajectory:
    """Snapshots of one run, one per row of v (lattice shape), and of Psi in
    psi for dpd (None otherwise: Psi = 0), with the run's config, its noise
    path (every row a stochastic run stepped on, at any stride: see solve),
    and the Fourier rows solve's blocks carried (v_hat, psi_hat).
    Snapshots that are not a run's, those read_trajectory reads from a file
    or gauge_transform makes, have no config, no path and no Fourier rows."""

    grid: GridSpec
    scheme: str
    times: np.ndarray
    v: np.ndarray
    psi: Optional[np.ndarray] = None
    config: Optional[SolverConfig] = None
    noise_path: Optional[NoisePath] = None
    v_hat: Optional[np.ndarray] = None  # Fourier rows as solve's run held them (SnapshotBlock)
    psi_hat: Optional[np.ndarray] = None
    norms: Optional[dict] = field(default=None, init=False, repr=False, compare=False)  # snapshot_norms
    duhamel: Optional[list] = field(default=None, init=False, repr=False, compare=False)  # duhamel_residual

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

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

    def blocks(self):
        """The snapshots as SnapshotBlocks of one member, about
        lattice.BLOCK_BYTES of v rows each, with the rows of the noise path
        when it has one per step, and the Fourier rows when it has them."""
        path = self.noise_path
        steps = path.n_steps if path is not None and path.n_steps == self.n_snapshots - 1 else 0

        def rows(a, sl):
            return None if a is None else a[np.newaxis, sl]

        for sl in lattice.row_blocks(self.n_snapshots, self.grid.total_points * 16):
            yield SnapshotBlock(
                grid=self.grid, start=sl.start, times=self.times[sl], v=rows(self.v, sl),
                psi=rows(self.psi, sl),
                dw_hat=path.dw_hat[np.newaxis, sl.start:min(sl.stop, steps)] if sl.start < steps else None,
                v_hat=rows(self.v_hat, sl), psi_hat=rows(self.psi_hat, sl),
            )

    def u_snapshot(self, i: int) -> ComplexField:
        """Reconstruct u = 1 + v (+ Psi when psi is held)."""
        vals = 1.0 + self.v_snapshots[i].values + self.psi_snapshots[i].values
        return ComplexField(self.grid, vals)

    def v_star_snapshot(self, i: int) -> ComplexField:
        """u - 1 = v + Psi (equals v without psi)."""
        vals = self.v_snapshots[i].values + self.psi_snapshots[i].values
        return ComplexField(self.grid, vals)


def run_config(run, caller: str) -> SolverConfig:
    """The solver config of a run's Trajectory or NormTable; UsageError
    naming caller when it has none, as snapshots that are not a run's."""
    if run.config is None:
        raise UsageError(f"{caller} needs the solver config, which only a solved run's "
                         "snapshots carry")
    return run.config


# --- nonlinearities -------------------------------------------------------


def gp_nonlinearity(u_field: ComplexField) -> ComplexField:
    """(|u|^2 - 1) u pointwise."""
    u = u_field.values
    return ComplexField(u_field.grid, (np.abs(u) ** 2 - 1.0) * u)


def dpd_nonlinearity(v_field: ComplexField, psi_field: ComplexField) -> ComplexField:
    """|v|^2 v plus the expanded remainder nonlinearity, summand by summand.

    Algebraically identical to (|w|^2 - 1) w with w = 1 + v + psi, the form
    strang_step_dpd evaluates on w itself: _dpd_step forms w from the
    coefficients of v + psi in one inverse FFT, and never forms v alone.
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


def _phase_substep(u: np.ndarray, dt: float, offset: float) -> np.ndarray:
    """Exact integrator of i u_t = (|u|^2 - offset) u pointwise on an array:
    offset 1 for the GP equation, 0 for the cubic one.

    The product is always u * f with f the held exponential: with FMA, f * u
    rounds differently, and numpy's temporary elision would pick one order or
    the other by the array's size, so a field's bits would depend on how many
    members are stacked with it.  f = cos(theta) + i sin(-theta) for
    theta = (|u|^2 - offset) dt has the bits of exp(-1j * theta), with no
    complex temporary."""
    theta = np.abs(u) ** 2
    theta -= offset
    theta *= dt
    f = np.empty(u.shape, dtype=np.complex128)
    np.cos(theta, out=f.real)
    np.sin(np.negative(theta, out=theta), out=f.imag)
    np.multiply(u, f, out=f)
    return f


def nonlinear_phase_substep(u_field: ComplexField, dt: float) -> ComplexField:
    """Exact integrator of i u_t = (|u|^2 - 1) u: u * exp(-i(|u|^2 - 1) dt)."""
    return ComplexField(u_field.grid, _phase_substep(u_field.values, dt, 1.0))


# --- single steps ---------------------------------------------------------
#
# A step maps a state, the tuple of Fourier coefficient arrays a scheme
# carries, and the step's Fourier noise row (None without noise) to the next
# state.  It multiplies by phase tables schrodinger_phase(grid, dt / 2)
# ("half") and schrodinger_phase(grid, dt) ("full") that _run builds once per
# run, and transforms over the tables' axes, the trailing axes of the state.


def _over_table(fft, a: np.ndarray, table: np.ndarray, out=None) -> np.ndarray:
    """fft (np.fft.fftn or ifftn) of a over the trailing axes a phase table
    spans, into out= if given.  Giving s, the table's shape, with axes spares
    numpy a per-call lookup of the axes' lengths that costs about a quarter
    of a 16^2 transform."""
    return fft(a, s=table.shape, axes=tuple(range(-table.ndim, 0)), out=out)


def _add_increment(a_hat: np.ndarray, dw_hat: Optional[np.ndarray]) -> np.ndarray:
    """a_hat - i * dw_hat in place, the step's additive noise; a_hat without noise."""
    if dw_hat is not None:
        a_hat -= 1j * dw_hat
    return a_hat


def stochastic_convolution(psi_hat: np.ndarray, rows, full: np.ndarray) -> np.ndarray:
    """Psi_hat <- full * Psi_hat - i * row in place for each row in order
    (None without noise), full = schrodinger_phase(grid, dt); returns psi_hat.
    _dpd_step advances Psi by it, so from zero it gives each member of a
    stack of rows the Psi_hat of a dpd run on them, bit for bit."""
    for dw_hat in rows:
        psi_hat *= full
        _add_increment(psi_hat, dw_hat)
    return psi_hat


def dpd_work(shape: tuple) -> tuple:
    """The work arrays of strang_step_dpd for a state of this shape, held
    memory (lattice.held): w, the stage argument, the stage and the running
    stage sum (complex), and |w|^2 - 1 (real).  They hold nothing from one
    step to the next, so runs that ask for them in one shape, as the dpd
    levels of a lockstep do, share one set."""
    return (tuple(lattice.held(f"dpd.{name}", shape) for name in ("w", "s", "k", "acc"))
            + (lattice.held("dpd.r", shape, np.float64),))


def strang_step_dpd(dt: float, work: tuple) -> np.ndarray:
    """One classical RK4 step of the pointwise ODE w' = -i (|w|^2 - 1) w from
    w = work[0]: dpd's nonlinear substep, where w = 1 + v + Psi_mid
    and Psi_mid is frozen, so w' = v'.  Returns Delta = w(dt) - w(0) in
    work[3].

    Every operation writes into the held arrays with out=, so no temporary
    is made, and numpy's temporary elision cannot change an operand order
    with the array's size: a member's bits do not depend on its batch."""
    w, s, k, acc, r = work

    def stage(src: np.ndarray, out: np.ndarray) -> None:
        """out = (|src|^2 - 1) src; the factor -i sits in the stage
        coefficients.  The squares pass through out's memory."""
        np.square(src.view(np.float64), out=out.view(np.float64))
        np.add(out.real, out.imag, out=r)
        np.subtract(r, 1.0, out=r)
        np.multiply(src, r, out=out)

    def argument(kj: np.ndarray, c: complex) -> None:
        """s = w + c kj."""
        np.multiply(kj, c, out=s)
        np.add(s, w, out=s)

    stage(w, acc)  # acc = k1
    argument(acc, -0.5j * dt)
    for c in (-0.5j * dt, -1j * dt):  # k2, then k3
        stage(s, k)
        argument(k, c)
        k *= 2.0
        acc += k
    stage(s, k)  # k4
    acc += k
    acc *= -1j * dt / 6.0
    return acc


def _strang_step(state: tuple, dw_hat, half: np.ndarray, dt: float, offset: float) -> tuple:
    """direct and the deterministic schemes, state (u_hat,): half free step,
    the exact phase substep, half free step, then the increment."""
    u = _phase_substep(_over_table(np.fft.ifftn, state[0] * half, half), dt, offset)
    u_hat = _over_table(np.fft.fftn, u, half)
    u_hat *= half
    return (_add_increment(u_hat, dw_hat),)


def _dpd_step(state: tuple, dw_hat, half: np.ndarray, full: np.ndarray, dt: float,
              work: tuple) -> tuple:
    """dpd, state (v_hat, psi_hat): Psi frozen over the step at its step-start
    value freely propagated to the step midpoint (midpoint-consistent
    convention, adapted: it uses no new increment), half free step of v, one
    RK4 substep, half free step.  One inverse FFT gives the substep's start
    w = 1 + ifftn(half (v_hat + psi_hat)); strang_step_dpd integrates w over
    the step to its change Delta; then v_hat <- full v_hat + half fftn(Delta),
    since half^2 = full.  v alone is never formed in physical space.  Psi
    advances exactly in Fourier space: S(dt) Psi(t) - i * (phi DeltaW)."""
    v_hat, psi_hat = state
    w = work[0]
    np.add(v_hat, psi_hat, out=w)
    w *= half
    _over_table(np.fft.ifftn, w, half, out=w)
    w += 1.0
    delta = _over_table(np.fft.fftn, strang_step_dpd(dt, work), half, out=work[3])
    delta *= half
    v_hat *= full
    v_hat += delta
    return v_hat, stochastic_convolution(psi_hat, (dw_hat,), full)


# --- full solve -----------------------------------------------------------


def member_bytes(config: SolverConfig) -> int:
    """Bytes one member of a streamed batch holds, about, in fields: its
    state arrays and the step's temporaries (4 fields for the Strang step;
    for dpd the held dpd_work arrays, four complex and one real, 5 rounded
    up, which a lockstep's dpd levels share); its share of a one-snapshot
    block (its coefficient rows and their physical copy, a noise row and
    its physical dw), and of the second set of coefficient and noise rows
    that a pipelined lockstep (one snapshot over the batch tops
    lattice.BLOCK_BYTES, as in any batch harness.BATCH_BYTES limits) fills
    while its sink reads the first; the norm pass's held work over it (one
    derivative row per gradient field, for dpd the v* rows and a stack of
    v*_hat and psi_hat, and half-size real arrays: the squares of each
    gradient field, for dpd those of grad v, and three more); and for a
    stochastic scheme its row of the normals noise.member_rows holds.  It
    keeps no snapshots and no path."""
    dpd = config.scheme == "dpd"
    arrays = 2 if dpd else 1  # v and Psi for dpd; so too the gradient fields, v* and Psi
    norm_pass = arrays + (3 if dpd else 0) + (arrays + 1)
    rows = (arrays + (5 if dpd else 4) + 3 * arrays + 3 + norm_pass
            + (1 if config.stochastic else 0))
    return rows * config.grid.total_points * 16


@dataclass
class SnapshotBlock:
    """Consecutive snapshots start .. start + b - 1 of M members: physical v
    rows (M, b, *grid.shape), Psi rows for dpd (None otherwise), and, when
    the run's noise rows are kept (stride 1), the Fourier rows dw_hat
    (M, r, *grid.shape) of steps start .. start + r - 1, each paired with its
    left-point snapshot (r = b, one fewer in the block holding the last
    snapshot).  A failed member's rows after its blow-up are those of a
    zeroed state.

    v_hat and psi_hat (None without Psi) are the Fourier rows of v and Psi
    as the stepper held them (for direct and the deterministic schemes its
    u_hat = fftn(1 + v) less the constant's mode).  They are None for any
    other block, a file's or that of a trajectory without Fourier rows,
    and the norm pass then transforms v and psi itself.  The pass never
    reads their zero mode.  dw is made once, when first read, from dw_hat.

    How long the arrays are valid: a block made by _run holds its physical
    rows and dw in held memory (lattice.held) and its Fourier rows in its
    run's own arrays, so a sink must be done with a block when it returns;
    the next block overwrites them.  A made dw lasts until the next block
    makes its own.  A block of a kept Trajectory holds views of its
    arrays."""

    grid: GridSpec
    start: int
    times: np.ndarray
    v: np.ndarray
    psi: Optional[np.ndarray] = None
    dw_hat: Optional[np.ndarray] = None
    v_hat: Optional[np.ndarray] = None
    psi_hat: Optional[np.ndarray] = None

    @cached_property
    def dw(self) -> np.ndarray:
        """The physical noise rows: the bits sample_wiener_increment gives
        for a drawn row."""
        return np.fft.ifftn(self.dw_hat, axes=self.grid.axes,
                            out=lattice.held("block.dw", self.dw_hat.shape))


def _store(stores: list, i: int, state: tuple) -> None:
    """Snapshot i of a block: each array of state into its store."""
    for store, a_hat in zip(stores, state):
        store[:, i] = a_hat


def _zero_failed(state: tuple, failures: list, j: int, dt: float) -> bool:
    """Zero the rows of each member whose rows of state are not finite
    after j steps, and record its BlowUpError unless it has one.  True
    when every member has failed."""
    finite = np.all([np.isfinite(a_hat.view(np.float64).reshape(len(failures), -1)).all(axis=1)
                     for a_hat in state], axis=0)
    for m in np.flatnonzero(~finite):
        if failures[m] is None:  # a zeroed member may blow up again: keep its first step
            failures[m] = BlowUpError(j, j * dt)
        for a_hat in state:
            a_hat[m] = 0.0
    return None not in failures


def _deliver(sink, config: SolverConfig, times, first: int, hats: list, dw_hat) -> None:
    """Hand sink the block of snapshots first onward, at their run's times,
    whose coefficient rows _run holds in hats, with its noise rows dw_hat
    (None when not kept): their physical copy is made first, one inverse
    FFT per array into held memory, and snapshot 0's rows are the initial
    state, so they take no transform of their own."""
    g, held = config.grid, hats[0].shape[1]
    physical = [lattice.held(name, hats[0].shape) for name in ("block.v", "block.psi")[:len(hats)]]
    back = slice(0 if first else 1, held)
    with np.errstate(over="ignore", invalid="ignore"):
        for a_hat, a in zip(hats, physical):
            if back.start < held:  # no empty transform for a block of snapshot 0 alone
                np.fft.ifftn(a_hat[:, back], axes=g.axes, out=a[:, back])
    if first == 0:
        for a, a0 in zip(physical, (config.initial_v.mesh, 0.0)):
            a[:, 0] = a0
    dpd = len(hats) == 2
    sink(SnapshotBlock(
        grid=g, start=first, times=times[first:first + held], v=physical[0],
        psi=physical[1] if dpd else None, dw_hat=dw_hat, v_hat=hats[0],
        psi_hat=hats[1] if dpd else None))


def _run(config: SolverConfig, m_count: int, factor: int, sink, pipe):
    """One run of M members stepped as one (M, *grid.shape) state, as a
    generator: lockstep primes it, then sends it every row at a dt factor
    times finer ((M, *grid.shape), or lattice-shaped for every member
    alike; None when no level draws noise), and it returns the members'
    failures.  A stochastic run steps on the rows, a step summing its
    factor rows in order into a copy of the first, the bits
    coarsen_noise_path gives; any other run steps without them.  A dpd
    run fetches its dpd_work arrays when primed.

    The snapshots go to sink in SnapshotBlocks of consecutive snapshots, at
    most lattice.BLOCK_BYTES of v rows over all members and at least one
    snapshot; at stride 1 a stochastic run keeps its steps' rows in them.
    Every scheme carries Fourier coefficients (u_hat = fftn(1 + v), or for
    dpd those of v and Psi); a block stores each snapshot's coefficients as
    they come, in arrays the run holds from block to block, and when it is
    full hands them to sink as the block's coefficients with their
    physical copy (_deliver).  u_hat less the constant's mode N^d is
    v_hat, so v = ifftn(v_hat) rounds to the size of v, not of 1 + v, as
    the coefficients the norm pass reads do.  Given a pipe (a _Consumer,
    else None), the run fills two sets of these arrays in turn and puts
    each block's _deliver to the pipe, which returns once the block
    before, the last to use the other set, is done.

    A member whose state is not finite after step j (from 0) gets
    BlowUpError(j + 1) in failures and its rows are zeroed, so later steps
    stay finite on them; when every member has failed, the block so far
    is the last.  Every operation acts on each member's rows alone, so a
    member's bits do not depend on the batch or on the block size."""
    g, dt, stride, n_snap = config.grid, config.dt, config.snapshot_stride, config.n_snapshots
    dpd, noisy = config.scheme == "dpd", config.stochastic
    shape, v0 = (m_count,) + g.shape, config.initial_v.mesh
    half, full = lattice.schrodinger_phase(g, dt / 2.0), lattice.schrodinger_phase(g, dt)
    if dpd:
        step = partial(_dpd_step, half=half, full=full, dt=dt, work=dpd_work(shape))
    else:
        offset = 0.0 if config.scheme == "deterministic_cubic" else 1.0
        step = partial(_strang_step, half=half, dt=dt, offset=offset)
    del half, full  # the step holds the tables it uses, and no other is kept
    state = (np.broadcast_to(np.fft.fftn(v0 if dpd else 1.0 + v0, axes=g.axes), shape).copy(),)
    if dpd:
        state += (np.zeros(shape, dtype=np.complex128),)
    failures, keep, times = [None] * m_count, noisy and stride == 1, config.snapshot_times
    blocks = lattice.row_blocks(n_snap, m_count * g.total_points * 16)  # not listed: a huge
    block = next(blocks)  # run's blocks would not fit in memory; the first is the largest
    size = m_count * (block.stop - block.start) * g.total_points
    # a block's coefficient rows and noise rows, held from block to block
    sets = [([np.empty(size, dtype=np.complex128) for _ in state],
             np.empty(size, dtype=np.complex128) if keep else None)
            for _ in range(1 if pipe is None else 2)]

    def shaped(buf, n):
        return buf[:m_count * n * g.total_points].reshape((m_count, n) + g.shape)

    for k, sl in enumerate(itertools.chain([block], blocks)):
        first, stop = sl.start, sl.stop  # the block of snapshots first .. stop - 1
        steps = range(first * stride, min(stop, n_snap - 1) * stride)
        store_bufs, row_buf = sets[k % len(sets)]
        stores = [shaped(buf, stop - first) for buf in store_bufs]
        dw_hat = shaped(row_buf, len(steps)) if keep else None
        _store(stores, 0, state)
        held, end = 1, steps.stop
        for j in steps:
            row = yield
            if not noisy:
                row = None  # the rows are another level's
            if factor > 1 and row is not None:
                row = row.copy()  # the fine rows are every level's
                for _ in range(factor - 1):
                    row += yield
            else:
                for _ in range(factor - 1):
                    yield
            with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is named by its BlowUpError
                if dw_hat is not None:
                    dw_hat[:, j - steps.start] = row
                state, row = step(state, row), None
                if not all(lattice.all_finite(a_hat) for a_hat in state) and (
                        _zero_failed(state, failures, j + 1, dt)):
                    end = j + 1  # every member has failed: this block is the last
                    break
                if (j + 1) % stride == 0 and held < stop - first:
                    _store(stores, held, state)
                    held += 1
        hats = [a[:, :held] for a in stores]
        if not dpd:  # v_hat = u_hat less the constant's mode
            hats[0][(Ellipsis,) + (0,) * g.dim] -= g.total_points
        job = partial(_deliver, sink, config, times, first, hats,
                      None if dw_hat is None else dw_hat[:, :end - steps.start])
        if pipe is None:
            job()
        else:
            pipe.put(job)
        if None not in failures:
            break
    return failures


class _Consumer(threading.Thread):
    """The thread that runs a pipelined lockstep's sinks, in a copy of its
    maker's context (numpy's errstate is in it).  put(job) waits until the
    job before has returned and hands job over, None to end the thread; it
    raises what a job raised, and from then on hands over only None."""

    def __init__(self):
        super().__init__(target=contextvars.copy_context().run, args=(self._serve,), daemon=True)
        self.job = self.error = None
        self.handed, self.free = threading.Semaphore(0), threading.Semaphore(1)
        self.start()

    def _serve(self) -> None:
        while self.handed.acquire() and self.job is not None:
            try:
                self.job()
            except BaseException as exc:  # put raises it on the caller's thread
                self.error = exc
            self.free.release()

    def put(self, job) -> None:
        self.free.acquire()
        if self.error is not None and job is not None:
            self.free.release()  # for put(None)
            raise self.error
        self.job = job
        self.handed.release()


def lockstep(configs: Sequence[SolverConfig], stream_ids: Sequence[int], sinks) -> list:
    """Step the runs of configs, the levels, on one Brownian path per stream
    id: one _run generator each, handing its blocks to the callable
    sinks[k] and sent every row of one stream at the finest dt: f_k rows a
    step for a level whose dt is f_k times the finest.

    The rows are the finest level's prescribed_path when it has one, the
    same for every member; else, when some level is stochastic, they are
    drawn once, as their step comes, all members' rows of a step by one
    noise.member_rows generator for that level's noise and seed; else they
    are None.  Each level steps on them when it is stochastic
    (SolverConfig).  The levels must share the grid and t_final, the
    stochastic ones their noise and master_seed, and only the finest level
    may have a prescribed path; each of these, and a dt that is not a
    whole multiple of the finest, raises UsageError naming the field.  No
    row is drawn once every level has returned.  Returns per level the
    members' failures: BlowUpError, naming the level's own step, or None.

    One level whose snapshot over the members tops lattice.BLOCK_BYTES is
    pipelined, with the serial path's bits: a _Consumer thread makes each
    block's physical rows and calls the sink while this thread draws and
    steps the next block.  A sink's exception is raised here, and the
    thread ends before the held memory goes, whatever ends the call."""
    noisy = [c for c in configs if c.stochastic]
    for name, levels in (("grid", configs), ("t_final", configs), ("noise", noisy),
                         ("master_seed", noisy)):
        for c in levels:
            if getattr(c, name) != getattr(levels[0], name):
                raise UsageError(f"lockstep levels differ in {name}: {getattr(levels[0], name)} "
                                 f"and {getattr(c, name)}")
    dt_fine = min(c.dt for c in configs)
    n_fine = int(round(configs[0].t_final / dt_fine))
    factors = [int(round(c.dt / dt_fine)) for c in configs]
    for c, f in zip(configs, factors):
        if c.n_steps * f != n_fine:
            raise UsageError(f"dt = {c.dt} is not a whole multiple of the finest dt "
                             f"{dt_fine} over t_final = {configs[0].t_final}")
    path = configs[factors.index(1)].prescribed_path
    for c in configs:
        if c.prescribed_path is not None and c.prescribed_path is not path:
            raise UsageError(f"the level at dt = {c.dt} has its own prescribed_path; "
                             "lockstep reads the finest level's only")
    if path is not None:
        rows = iter(path.dw_hat)  # lattice-shaped rows, broadcast over the members
    else:  # drawn for the stochastic levels' one noise and seed, if any
        rows = (noise_mod.member_rows(noisy[0].noise, dt_fine, noisy[0].master_seed, stream_ids,
                                      n_fine) if noisy else itertools.repeat(None, n_fine))
    pipe = (_Consumer() if len(configs) == 1 and (
        len(stream_ids) * configs[0].grid.total_points * 16 >= lattice.BLOCK_BYTES) else None)
    runs = [_run(c, len(stream_ids), f, sink, pipe) for c, f, sink in zip(configs, factors, sinks)]
    failures, live = [None] * len(runs), list(range(len(runs)))
    try:
        for run in runs:
            next(run)  # to its first yield
        for row in rows:
            for k in list(live):
                try:
                    runs[k].send(row)
                except StopIteration as returned:
                    failures[k] = returned.value
                    live.remove(k)
            if not live:  # every level has returned: draw no more rows
                break
    finally:
        if pipe is not None:
            pipe.put(None)
            pipe.join()
        lattice.release_held()  # the blocks' held memory, the dpd work, and the sinks'
    if pipe is not None and pipe.error is not None:
        raise pipe.error  # the last block's sink raised
    return failures


class _Collector:
    """A sink that copies one member's SnapshotBlocks into whole arrays:
    v, Psi for dpd (psi, else None), and the coefficient rows of blocks
    that carry them (v_hat and psi_hat, None while no block has)."""

    def __init__(self, grid: GridSpec, n_snapshots: int, dpd: bool):
        self.v = np.empty((n_snapshots,) + grid.shape, dtype=np.complex128)
        self.psi = np.empty_like(self.v) if dpd else None
        self.v_hat = self.psi_hat = None

    def __call__(self, block: SnapshotBlock) -> None:
        sl = slice(block.start, block.start + len(block.times))
        self.v[sl] = block.v[0]
        if self.psi is not None:
            self.psi[sl] = block.psi[0]
        if block.v_hat is not None:
            if self.v_hat is None:
                self.v_hat = np.empty_like(self.v)
                self.psi_hat = None if self.psi is None else np.empty_like(self.v)
            self.v_hat[sl] = block.v_hat[0]
            if self.psi_hat is not None:
                self.psi_hat[sl] = block.psi_hat[0]


def solve(config: SolverConfig) -> Trajectory:
    """Integrate one trajectory on config.stream_id: a one-level lockstep
    with its blocks collected.  It keeps every snapshot with its Fourier
    rows, and a path by one rule: the prescribed path itself, if given;
    else, for a stochastic run at any snapshot_stride, generate_noise_path's
    for its seed and stream, drawn whole before the first step and stepped
    on as a prescribed path; else none.  Raises BlowUpError at the first
    step whose state is not finite."""
    path = config.prescribed_path
    if path is None and config.stochastic:
        path = noise_mod.generate_noise_path(config.noise, config.dt, config.n_steps,
                                             config.master_seed, config.stream_id)
    rows = _Collector(config.grid, config.n_snapshots, config.scheme == "dpd")
    ((failure,),) = lockstep([replace(config, prescribed_path=path)], [config.stream_id], [rows])
    if failure is not None:
        raise failure
    return Trajectory(
        grid=config.grid, scheme=config.scheme, times=config.snapshot_times, v=rows.v,
        psi=rows.psi, config=config, noise_path=path, v_hat=rows.v_hat, psi_hat=rows.psi_hat,
    )


# --- oracles and transforms ------------------------------------------------


def duhamel_residual(traj: Trajectory, time_index: int) -> float:
    """L^2 norm of the defect of the Duhamel formulation at a snapshot time.

    u(t) - S(t) u0 + i int_0^t S(t-t') (|u|^2-1)u dt' + i * (noise convolution),
    with trapezoid quadrature for the drift term and the increments for the
    convolution.  Expected O(dt), not zero.  A stochastic trajectory without
    its path raises UsageError.  The first call makes every snapshot's
    defect in one pass, kept in traj.duhamel: pulled back by S(-t_m) it is
    S(-t_m)(u_hat_m - Psi_hat_m) - u_hat_0 + i C_m, with C_m the trapezoid
    sum of S(-t) fftn(N(u)) up to t_m and Psi_hat_m the path's rows up to
    step m * stride through stochastic_convolution; Parseval gives its
    norm, (V sum_k |f_hat_k|^2)^(1/2) / N with N the grid's points.
    """
    cfg = run_config(traj, "duhamel_residual")
    if cfg.stochastic and traj.noise_path is None:
        raise UsageError("duhamel_residual needs the trajectory's noise path")
    if time_index < 0 or time_index >= traj.n_snapshots:
        raise UsageError("time_index out of range")
    if traj.duhamel is None:
        g, stride, times, defects = traj.grid, cfg.snapshot_stride, traj.times, []
        rows = traj.noise_path.dw_hat if cfg.stochastic else [None] * cfg.n_steps
        full, psi_hat = lattice.schrodinger_phase(g, cfg.dt), np.zeros(g.shape, dtype=complex)
        for m, t in enumerate(times):
            u, back = traj.u_snapshot(m), lattice.schrodinger_phase(g, -t)
            integrand, u_hat = back * np.fft.fftn(gp_nonlinearity(u).mesh), np.fft.fftn(u.mesh)
            if m == 0:
                u0_hat, drift = u_hat, 0.0
            else:
                drift += 0.5 * (t - times[m - 1]) * (last + integrand)
                stochastic_convolution(psi_hat, rows[(m - 1) * stride:m * stride], full)
            defect = back * (u_hat - psi_hat) - u0_hat + 1j * drift
            defects.append(math.sqrt(g.volume * np.vdot(defect, defect).real) / g.total_points)
            last = integrand
        traj.duhamel = defects
    return traj.duhamel[time_index]


def gauge_transform(traj: Trajectory) -> Trajectory:
    """The snapshots e^{-it} u(t) of a trajectory, in the cubic-NLS frame:
    v is e^{-it} u - 1, Psi included, so psi is None.  They are not a run:
    they have no config, no path and no Fourier rows, and ito_ledger,
    duhamel_residual and write_trajectory refuse them (run_config)."""
    u = 1.0 + traj.v if traj.psi is None else 1.0 + traj.v + traj.psi
    phase = np.exp(-1j * traj.times).reshape((-1,) + (1,) * traj.grid.dim)
    return Trajectory(grid=traj.grid, scheme=traj.scheme, times=traj.times.copy(),
                      v=phase * u - 1.0)


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


class TrajectoryWriter(lattice.FieldWriter):
    """trajectory.bin written block by block: the header, whose snapshot
    count is known up front, then the v snapshots and, for dpd, the Psi
    snapshots after them.  Called with a one-member SnapshotBlock, it writes
    the block's rows at their places.  The stored dt is the snapshot
    spacing (solver dt times the snapshot stride), so a reader can
    reconstruct snapshot times."""

    def __init__(self, filename: str, grid: GridSpec, scheme: str, n_snapshots: int,
                 spacing: float):
        header = struct.pack(_TRAJ_HEADER, grid.dim, grid.points_per_axis, n_snapshots,
                             grid.box_length, spacing, SCHEMES.index(scheme))
        super().__init__(filename, TRAJ_MAGIC + header, grid)
        self.n_snapshots = n_snapshots

    def __call__(self, block: SnapshotBlock) -> None:
        self.write(block.start, block.v[0])
        if block.psi is not None:
            self.write(self.n_snapshots + block.start, block.psi[0])


def write_trajectory(traj: Trajectory, filename: str) -> None:
    """Binary export of a kept trajectory (TrajectoryWriter)."""
    cfg = run_config(traj, "write_trajectory")
    with TrajectoryWriter(filename, traj.grid, traj.scheme, traj.n_snapshots,
                          cfg.dt * cfg.snapshot_stride) as writer:
        for block in traj.blocks():
            writer(block)


def trajectory_blocks(filename: str) -> tuple:
    """Open a file written by write_trajectory: check its header, and its
    size against the header.  Returns (grid, scheme, times, blocks), with
    times i * dt (the stored dt is the snapshot spacing) and blocks a
    generator of the file's one-member SnapshotBlocks in order, about
    lattice.BLOCK_BYTES of v rows each.  Raises FormatError when the file is
    malformed, and the generator when a block holds a non-finite value,
    naming the first such field in file order."""
    with open(filename, "rb") as fh:
        dim, n, snaps, box_length, dt, tag = lattice.read_header(fh, TRAJ_MAGIC, _TRAJ_HEADER)
        if tag >= len(SCHEMES):
            raise FormatError(f"{fh.name}: unknown scheme tag {tag}")
        grid, scheme = lattice.header_grid(fh, dim, n, box_length, dt), SCHEMES[tag]
        lattice.check_payload(fh, grid, 2 * snaps if scheme == "dpd" else snaps)
        start = fh.tell()
    times = np.arange(snaps) * dt
    return grid, scheme, times, _file_blocks(filename, start, grid, scheme == "dpd", times)


def _file_blocks(filename: str, start: int, grid: GridSpec, dpd: bool, times: np.ndarray):
    """The blocks of trajectory_blocks: each block's v rows, then its Psi
    rows, checked as they are read."""
    snaps, field_bytes = len(times), grid.total_points * lattice.FIELD_DTYPE.itemsize
    blocks = list(lattice.row_blocks(snaps, field_bytes))

    def read(name, first, count):  # into held memory: a block is valid until the next is read
        fh.seek(start + first * field_bytes)
        return lattice.read_rows(fh, grid, count, first,
                                 lattice.held(name, (count,) + grid.shape, lattice.FIELD_DTYPE))

    with open(filename, "rb") as fh:
        for k, sl in enumerate(blocks):
            v = read("file.v", sl.start, sl.stop - sl.start)
            psi = None
            if dpd:
                try:
                    psi = read("file.psi", snaps + sl.start, sl.stop - sl.start)
                except FormatError:
                    # a non-finite v field in a later block comes first in the file
                    for later in blocks[k + 1:]:
                        read("file.v", later.start, later.stop - later.start)
                    raise
            yield SnapshotBlock(grid=grid, start=sl.start, times=times[sl], v=v[np.newaxis],
                                psi=None if psi is None else psi[np.newaxis])


def read_trajectory(filename: str) -> Trajectory:
    """Read back a file written by write_trajectory: trajectory_blocks,
    collected.  Raises FormatError when the file is malformed or holds a
    non-finite value."""
    grid, scheme, times, blocks = trajectory_blocks(filename)
    rows = _Collector(grid, len(times), scheme == "dpd")
    for block in blocks:
        rows(block)
    return Trajectory(grid=grid, scheme=scheme, times=times, v=rows.v, psi=rows.psi)
