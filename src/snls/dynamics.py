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
    psi for dpd (None otherwise: Psi = 0), with the noise path solve kept, if
    any.  A trajectory read from a file has no solver config and no path."""

    grid: GridSpec
    scheme: str
    times: np.ndarray
    v: np.ndarray
    psi: Optional[np.ndarray] = None
    config: Optional[SolverConfig] = None
    noise_path: Optional[NoisePath] = None
    frame: str = "gp"  # "gp" or "cubic" (gauge-transformed)
    norms: Optional[dict] = field(default=None, init=False, repr=False, compare=False)  # snapshot_norms

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
        when it has one per step."""
        path = self.noise_path
        steps = path.n_steps if path is not None and path.n_steps == self.n_snapshots - 1 else 0
        for sl in lattice.row_blocks(self.n_snapshots, self.grid.total_points * 16):
            yield SnapshotBlock(
                grid=self.grid, start=sl.start, times=self.times[sl], v=self.v[np.newaxis, sl],
                psi=None if self.psi is None else self.psi[np.newaxis, sl],
                dw_hat=path.dw_hat[np.newaxis, sl.start:min(sl.stop, steps)] if sl.start < steps else None,
            )

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
# ("half") and schrodinger_phase(grid, dt) ("full") that solve builds once per
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


def dpd_work(shape: tuple) -> tuple:
    """The held work arrays of strang_step_dpd for a state of this shape:
    w, the stage argument, the stage and the running stage sum (complex),
    and |w|^2 - 1 (real)."""
    return (tuple(np.empty(shape, dtype=np.complex128) for _ in range(4))
            + (np.empty(shape, dtype=np.float64),))


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
    psi_hat *= full
    return v_hat, _add_increment(psi_hat, dw_hat)


def _linear_step(state: tuple, dw_hat, full: np.ndarray) -> tuple:
    """The free flow of every array, then the increment into the last one:
    u_hat, or psi_hat for dpd."""
    for a_hat in state:
        a_hat *= full
    return state[:-1] + (_add_increment(state[-1], dw_hat),)


# --- full solve -----------------------------------------------------------


def member_bytes(config: SolverConfig) -> int:
    """Bytes one member of a streamed batch holds, about: its state arrays,
    the step's temporaries (4 fields for the Strang step; for dpd the held
    work arrays of dpd_work, four complex and one real, 5 rounded up), and
    its share of one snapshot block with the norm pass's temporaries over it
    (about ten rows).  It keeps no snapshots and no path."""
    rows = (2 + 5 if config.scheme == "dpd" else 1 + 4) + 10
    return rows * config.grid.total_points * 16


@dataclass
class SnapshotBlock:
    """Consecutive snapshots start .. start + b - 1 of M members: physical v
    rows (M, b, *grid.shape), Psi rows for dpd (None otherwise), and, when
    the run's noise rows are kept (stride 1), the Fourier rows dw_hat
    (M, r, *grid.shape) of steps start .. start + r - 1, each paired with its
    left-point snapshot (r = b, one fewer in the block holding the last
    snapshot).  failures holds per member its BlowUpError so far, or None;
    a failed member's rows after its blow-up are zero."""

    grid: GridSpec
    start: int
    times: np.ndarray
    v: np.ndarray
    psi: Optional[np.ndarray] = None
    dw_hat: Optional[np.ndarray] = None
    failures: tuple = ()

    @cached_property
    def dw(self) -> np.ndarray:
        """The physical noise rows, made once per block: the bits
        sample_wiener_increment gives for a drawn row."""
        return np.fft.ifftn(self.dw_hat, axes=self.grid.axes)


def _drawn_rows(config: SolverConfig, stream_ids: Sequence[int], dt: float, n_steps: int):
    """Rows 0 .. n_steps - 1 of the members' paths at step dt, one
    (M, *grid.shape) array per step, drawn from increment_rows as their
    step comes; None per step without noise."""
    if not config.stochastic:
        return itertools.repeat(None, n_steps)
    draws = [noise_mod.increment_rows(config.noise, dt, config.master_seed, s, n_steps)
             for s in stream_ids]
    return map(lambda *rows: np.stack(rows), *draws)


class Stepper:
    """One run of M members stepped as one (M, *grid.shape) state, fed its
    noise rows one step at a time (advance) and emitting its snapshots in
    SnapshotBlocks of consecutive snapshots (emit), at most
    lattice.BLOCK_BYTES of v rows over all members and at least one
    snapshot each.  Nothing is held from one block to the next but the
    state, the step's phase tables and work arrays.

    Every scheme carries Fourier coefficients, and the noise's Fourier
    rows enter them directly: direct and the deterministic schemes
    u_hat = fftn(1 + v), dpd those of v and Psi.  A block's snapshots are
    the held coefficients, transformed back in place by one inverse FFT
    per block and array; row 0 of the run is initial_v as given (and
    Psi = 0).  At snapshot_stride 1, a run with noise keeps the rows of a
    block's steps in the block.

    A member whose state is not finite after step j (from 0) gets
    BlowUpError(j + 1) in failures and its rows are zeroed, so later steps
    stay finite on them; a zeroed member that blows up again keeps its
    first step.  When every member has failed, the block so far is the
    last.  Every operation acts on each member's rows alone, so a
    member's bits do not depend on the batch or on the block size."""

    def __init__(self, config: SolverConfig, m_count: int, work: Optional[tuple] = None):
        """work: dpd_work arrays of the state's shape to step in, made here
        if not given.  They hold nothing from one step to the next, so
        steppers that take their steps one at a time can share them."""
        g, dt = config.grid, config.dt
        self.config, self.m_count = config, m_count
        self.keep_rows = config.snapshot_stride == 1 and (
            config.prescribed_path is not None or config.stochastic)
        self.dpd = config.scheme == "dpd"
        half = lattice.schrodinger_phase(g, dt / 2.0)
        full = lattice.schrodinger_phase(g, dt)
        shape = (m_count,) + g.shape
        if config.disable_nonlinearity:
            self.step = partial(_linear_step, full=full)
        elif self.dpd:
            self.step = partial(_dpd_step, half=half, full=full, dt=dt,
                                work=dpd_work(shape) if work is None else work)
        else:
            offset = 0.0 if config.scheme == "deterministic_cubic" else 1.0
            self.step = partial(_strang_step, half=half, dt=dt, offset=offset)
        v0 = config.initial_v.mesh
        if self.dpd:
            self.state = (np.broadcast_to(np.fft.fftn(v0, axes=g.axes), shape).copy(),
                          np.zeros(shape, dtype=np.complex128))
        else:
            self.state = (np.broadcast_to(np.fft.fftn(1.0 + v0, axes=g.axes), shape).copy(),)
        self.size = max(1, lattice.BLOCK_BYTES // (m_count * g.total_points * 16))
        self.stride = config.snapshot_stride
        self.failures = [None] * m_count
        self.j = 0  # steps taken
        self.done = False  # the last block is emitted
        self._open(0)

    def _open(self, first: int) -> None:
        """Bound the block of snapshots first .. stop - 1.  Its arrays are
        made when it takes its first step or is emitted (_fill), so the
        block emitted before it is consumed first, as a generator's would
        be, and its memory can be reused."""
        self.first = first
        self.stop = min(first + self.size, self.config.n_snapshots)
        self.last_step = min(self.stop, self.config.n_snapshots - 1) * self.stride
        self.stores = None

    def _fill(self) -> None:
        """Make the open block's arrays, holding snapshot first."""
        cfg, m_count, shape, first = self.config, self.m_count, self.config.grid.shape, self.first
        self.stores = [np.empty((m_count, self.stop - first) + shape, dtype=np.complex128)
                       for _ in self.state]
        self.dw_hat = (np.empty((m_count, self.last_step - self.j) + shape, dtype=np.complex128)
                       if self.keep_rows else None)
        if first == 0:  # in physical space as given, and not transformed
            self.stores[0][:, 0] = cfg.initial_v.mesh
            if self.dpd:
                self.stores[1][:, 0] = 0.0
        else:
            for store, a_hat in zip(self.stores, self.state):
                store[:, 0] = a_hat
        self.held = 1  # snapshots stored in this block

    @property
    def ready(self) -> bool:
        """True when the open block has taken all its steps: emit it next."""
        return not self.done and self.j == self.last_step

    def advance(self, dw_hat_row: Optional[np.ndarray]) -> None:
        """Take step j with its Fourier noise row ((M, *grid.shape), or
        lattice-shaped for every member alike; None without noise)."""
        if self.stores is None:
            self._fill()
        j = self.j
        if self.dw_hat is not None:
            self.dw_hat[:, j - self.first] = dw_hat_row
        state = self.state = self.step(self.state, dw_hat_row)
        self.j = j = j + 1
        if not all(lattice.all_finite(a_hat) for a_hat in state):
            self._zero_failed(state)
            if None not in self.failures:
                self.last_step = j
                return
        if j % self.stride == 0 and self.held < self.stop - self.first:
            for store, a_hat in zip(self.stores, state):
                store[:, self.held] = a_hat
            self.held += 1

    def _zero_failed(self, state: tuple) -> None:
        """Zero the rows of each member whose rows of state are not finite,
        and record its BlowUpError at the steps taken unless it has one."""
        finite = np.all([np.isfinite(a_hat.view(np.float64).reshape(self.m_count, -1)).all(axis=1)
                         for a_hat in state], axis=0)
        for m in np.flatnonzero(~finite):
            if self.failures[m] is None:  # a zeroed member may blow up again: keep its first step
                self.failures[m] = BlowUpError(self.j, self.j * self.config.dt)
            for a_hat in state:
                a_hat[m] = 0.0

    def emit(self) -> SnapshotBlock:
        """The open block, its snapshots back in physical space, once it is
        ready; then the next block opens, unless this one is the last."""
        if self.stores is None:
            self._fill()
        g, first, held, stores = self.config.grid, self.first, self.held, self.stores
        # back to physical space in place, with no temporary
        done = 1 if first == 0 else 0
        if held > done:
            for store in stores:
                np.fft.ifftn(store[:, done:held], axes=g.axes, out=store[:, done:held])
            if not self.dpd:
                stores[0][:, done:held] -= 1.0
        block = SnapshotBlock(
            grid=g, start=first, times=self.config.snapshot_times[first:first + held],
            v=stores[0][:, :held], psi=stores[1][:, :held] if self.dpd else None,
            dw_hat=(None if self.dw_hat is None
                    else self.dw_hat[:, :self.last_step - first * self.stride]),
            failures=tuple(self.failures),
        )
        self.done = None not in self.failures or self.stop == self.config.n_snapshots
        if not self.done:
            self._open(self.stop)
        return block


def snapshot_blocks(config: SolverConfig, stream_ids: Sequence[int]):
    """Integrate from config.initial_v one member per stream id, all M of them
    as one Stepper, and yield its SnapshotBlocks.

    Row j of a member's noise path drives its step j.  The rows come from
    config.prescribed_path if given, the same for every member; else, for a
    stochastic scheme, they are drawn as their step comes (_drawn_rows)."""
    n_steps, path = config.n_steps, config.prescribed_path
    if path is not None:
        g, dt = config.grid, config.dt
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
        rows = iter(path.dw_hat)  # lattice-shaped rows, broadcast over the members
    else:
        rows = _drawn_rows(config, stream_ids, config.dt, n_steps)
    stepper = Stepper(config, len(stream_ids))
    while not stepper.done:
        while not stepper.ready:
            stepper.advance(next(rows))
        yield stepper.emit()


def lockstep(configs: Sequence[SolverConfig], stream_ids: Sequence[int], sinks) -> list:
    """Step the runs of configs, the levels, on one Brownian path per stream
    id: one Stepper each, fed from one stream of rows drawn once at the
    finest dt.  Level k with dt = f_k times the finest sums f_k rows in
    order, the bits coarsen_noise_path gives, and steps when it has them;
    each of its blocks goes to the callable sinks[k].  A level without
    noise steps with None.  The levels must share the grid, t_final, noise
    and seed, and their configs' prescribed paths are not read; dpd levels
    step in one set of work arrays.  Returns per level the members'
    failures: BlowUpError, naming the level's own step, or None."""
    dt_fine = min(c.dt for c in configs)
    n_fine = int(round(configs[0].t_final / dt_fine))
    factors = [int(round(c.dt / dt_fine)) for c in configs]
    for c, f in zip(configs, factors):
        if c.n_steps * f != n_fine:
            raise UsageError(f"dt = {c.dt} is not a whole multiple of the finest dt "
                             f"{dt_fine} over t_final = {configs[0].t_final}")
    noisy = next((c for c in configs if c.stochastic), configs[0])  # draws the rows, if any
    rows = _drawn_rows(noisy, stream_ids, dt_fine, n_fine)
    work = (dpd_work((len(stream_ids),) + configs[0].grid.shape)
            if any(c.scheme == "dpd" for c in configs) else None)
    steppers = [Stepper(c, len(stream_ids), work) for c in configs]
    sums = [None] * len(configs)
    for i, row in enumerate(rows):
        for k, (cfg, stepper, f, sink) in enumerate(zip(configs, steppers, factors, sinks)):
            if stepper.done:
                continue
            step_row = row if cfg.stochastic else None
            if f > 1 and step_row is not None:
                if i % f == 0:
                    sums[k] = step_row.copy()
                else:
                    sums[k] += step_row
                step_row = sums[k]
            if (i + 1) % f == 0:
                stepper.advance(step_row)
                while stepper.ready:
                    sink(stepper.emit())
        if all(s.done for s in steppers):  # every level has blown up: draw no more rows
            break
    return [s.failures for s in steppers]


def solve(config: SolverConfig) -> Trajectory:
    """Integrate one trajectory on config.stream_id: solve_members with one
    member.  Raises BlowUpError at the first step whose state is not finite."""
    (result,) = solve_members(config, [config.stream_id])
    if isinstance(result, BlowUpError):
        raise result
    return result


def solve_members(config: SolverConfig, stream_ids: Sequence[int]) -> list:
    """snapshot_blocks collected into one Trajectory per stream id: every
    snapshot, and the noise path at snapshot_stride 1 (the prescribed one
    itself, if given), or the member's BlowUpError in place of its
    trajectory.  A trajectory's arrays are views into the batch's."""
    g = config.grid
    dpd = config.scheme == "dpd"
    stores = [np.empty((len(stream_ids), config.n_snapshots) + g.shape, dtype=np.complex128)
              for _ in range(2 if dpd else 1)]
    paths = None
    block = None
    for block in snapshot_blocks(config, stream_ids):
        sl = slice(block.start, block.start + len(block.times))
        stores[0][:, sl] = block.v
        if dpd:
            stores[1][:, sl] = block.psi
        if block.dw_hat is not None and config.prescribed_path is None:
            if paths is None:
                paths = np.empty((len(stream_ids), config.n_steps) + g.shape, dtype=np.complex128)
            paths[:, block.start:block.start + block.dw_hat.shape[1]] = block.dw_hat
    return [
        failure if failure is not None else Trajectory(
            grid=g,
            scheme=config.scheme,
            times=config.snapshot_times,
            v=stores[0][m],
            psi=stores[1][m] if dpd else None,
            config=config if s == config.stream_id else replace(config, stream_id=s),
            noise_path=(config.prescribed_path if paths is None
                        else NoisePath(g, config.dt, paths[m])),
        )
        for m, (s, failure) in enumerate(zip(stream_ids, block.failures))
    ]


# --- oracles and transforms ------------------------------------------------


def duhamel_residual(traj: Trajectory, time_index: int) -> float:
    """L^2 norm of the defect of the Duhamel formulation at a snapshot time.

    u(t) - S(t) u0 + i int_0^t S(t-t') (|u|^2-1)u dt' + i * (noise convolution),
    with trapezoid quadrature for the drift term and the increments for the
    convolution: the Fourier rows of the trajectory's path, else the rows its
    (seed, stream) keys draw, summed by Horner's rule in S(dt) and transformed
    back once.  Expected O(dt), not zero.
    """
    if time_index < 0 or time_index >= traj.n_snapshots:
        raise UsageError("time_index out of range")
    g = traj.grid
    cfg = traj.solver_config("duhamel_residual")
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
        # sum_j S(t - (j+1) dt) dW_j over the n_used steps up to t
        n_used = time_index * cfg.snapshot_stride
        rows = (traj.noise_path.dw_hat[:n_used] if traj.noise_path is not None else
                noise_mod.increment_rows(cfg.noise, cfg.dt, cfg.master_seed, cfg.stream_id, n_used))
        full = lattice.schrodinger_phase(g, cfg.dt)
        acc = np.zeros(g.shape, dtype=np.complex128)
        for dw_hat in rows:
            acc *= full
            acc += dw_hat
        conv = -1j * np.fft.ifftn(acc).ravel()

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
    cfg = traj.solver_config("write_trajectory")
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
    with open(filename, "rb") as fh:
        for k, sl in enumerate(blocks):
            fh.seek(start + sl.start * field_bytes)
            v = lattice.read_rows(fh, grid, sl.stop - sl.start, sl.start)
            psi = None
            if dpd:
                fh.seek(start + (snaps + sl.start) * field_bytes)
                try:
                    psi = lattice.read_rows(fh, grid, sl.stop - sl.start, snaps + sl.start)
                except FormatError:
                    # a non-finite v field in a later block comes first in the file
                    for later in blocks[k + 1:]:
                        fh.seek(start + later.start * field_bytes)
                        lattice.read_rows(fh, grid, later.stop - later.start, later.start)
                    raise
            yield SnapshotBlock(grid=grid, start=sl.start, times=times[sl], v=v[np.newaxis],
                                psi=None if psi is None else psi[np.newaxis])


def read_trajectory(filename: str) -> Trajectory:
    """Read back a file written by write_trajectory: trajectory_blocks,
    collected.  Raises FormatError when the file is malformed or holds a
    non-finite value."""
    grid, scheme, times, blocks = trajectory_blocks(filename)
    v = np.empty((len(times),) + grid.shape, dtype=np.complex128)
    psi = np.empty_like(v) if scheme == "dpd" else None
    for block in blocks:
        sl = slice(block.start, block.start + len(block.times))
        v[sl] = block.v[0]
        if psi is not None:
            psi[sl] = block.psi[0]
    return Trajectory(grid=grid, scheme=scheme, times=times, v=v, psi=psi)
