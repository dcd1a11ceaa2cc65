"""Energy functional, the Ito energy ledger, interval partitioning, and
Strichartz-family norm reports over stored trajectories.

The ledger decomposes E(u)(t) - E(u)(0) into a deterministic drift (ham1),
a quadratic-variation integral (ham2), and a martingale term (ham3).  The
ham1/ham2 terms are implemented literally as printed in the source identity;
the ledger additionally carries a "balanced" variant derived from Ito's
lemma under this package's increment convention (total variance dt per
mode), so that a failing literal residual can be arbitrated.  See
EnergyLedger.residual vs EnergyLedger.residual_balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import dynamics, lattice, noise as noise_mod
from .dynamics import SolverConfig
from .errors import BlowUpError, UsageError
from .lattice import ComplexField, GridSpec, SpacetimeInterval


# --- energy -----------------------------------------------------------------


def energy(v_star_field: ComplexField) -> float:
    """Ginzburg-Landau energy of u = 1 + v*:
    0.5 * int |grad v*|^2 + 0.25 * int (|v*|^2 + 2 Re v*)^2, the norm
    table's energy column of a one-snapshot block."""
    g = v_star_field.grid
    block = dynamics.SnapshotBlock(grid=g, start=0, times=np.zeros(1),
                                   v=v_star_field.mesh[np.newaxis, np.newaxis])
    return float(norm_table(g, [block], columns=("energy",)).norms["energy"][0])


# --- Ito ledger ---------------------------------------------------------------


@dataclass
class EnergyLedger:
    times: np.ndarray
    energy: np.ndarray
    ham1: np.ndarray
    ham2: np.ndarray
    ham3: np.ndarray
    residual: np.ndarray
    # drift terms re-derived from Ito's lemma for the variance-dt convention
    ham1_balanced: np.ndarray
    ham2_balanced: np.ndarray
    residual_balanced: np.ndarray
    x1_cum: np.ndarray
    l6_cum: np.ndarray

    CSV_COLUMNS = ("time", "energy", "ham1", "ham2", "ham3", "residual", "x1_cum", "l6_cum")

    def csv_rows(self) -> List[dict]:
        series = (
            self.times, self.energy, self.ham1, self.ham2,
            self.ham3, self.residual, self.x1_cum, self.l6_cum,
        )
        return [
            dict(zip(self.CSV_COLUMNS, (float(col[i]) for col in series)))
            for i in range(len(self.times))
        ]


_SIXTH_POWERED = ("grad_l12o5", "l6", "v_grad_l12o5", "psi_grad_l12o5")
# the norm table's columns, in the order _checked looks for a non-finite one
COLUMNS = ("grad_l4", "grad_l12o5", "grad_l2", "l6", "energy", "qv", "qv_balanced", "ham3_steps",
           "v_grad_l12o5", "psi_grad_l12o5")
LEDGER_COLUMNS = ("grad_l12o5", "l6", "energy", "qv", "qv_balanced", "ham3_steps")  # ito_ledger's
PARTITION_COLUMNS = ("v_grad_l12o5", "psi_grad_l12o5")  # partition_intervals'
_GRADIENT = {"grad_l4", "grad_l12o5", "grad_l2", "energy"} | set(PARTITION_COLUMNS)
_PHYSICAL = {"l6", "energy", "qv", "qv_balanced", "ham3_steps"}


@dataclass
class NormTable:
    """The checked norm table of one run's snapshots (see snapshot_norms),
    with their times and the run's solver config (None for a file): what
    the ledger, the partition and the Strichartz report read of a run whose
    fields were streamed and not kept."""

    grid: GridSpec
    times: np.ndarray
    norms: dict
    config: Optional[SolverConfig] = None


class NormAccumulator:
    """The one pass over snapshot fields, fed SnapshotBlocks in order: the
    per-snapshot quantities the diagnostics read, for v* = u - 1 = v + Psi:
    ||grad v*|| in L^4, L^12/5, L^2, ||v*||_{L^6}, E(1 + v*), ham2's
    integrals of |v*|^2 + (Im v*)^2 + 4 Re v* (qv) and |v*|^2 + 2 Re v*
    (qv_balanced), ||grad v|| and ||grad Psi|| in L^12/5, and, for blocks
    that carry noise rows, each step's ham3 term (ham3_steps).

    Columns on demand: it keeps only the given columns (any subset of
    COLUMNS, all of them by default; LEDGER_COLUMNS for the ledger,
    PARTITION_COLUMNS for the partition), and makes them by group.  Any
    gradient column makes grad_l12o5, which v_grad_l12o5 is without Psi;
    grad_l2, grad_l4 or energy makes grad_l2 and grad_l4; a partition
    column makes dpd's split.  Any physical column makes l6, qv,
    qv_balanced, ham3_steps for a block with noise rows, and energy when
    it is asked for.  Each column has one formula whatever the others are,
    so its bits do not depend on them.

    It reads the block's Fourier rows, v_hat and psi_hat, and for a block
    without them (a file's) transforms v and psi forward itself, one fftn
    each.  Its gradient takes one inverse FFT per axis
    (lattice.spectral_derivatives) over a stack of every member's rows:
    v*_hat = v_hat + psi_hat and, when the partition's columns are made for
    dpd, psi_hat.  As each axis's derivative arrives, its squares are added
    to |grad v*|^2 (and |grad Psi|^2), and for the partition those of
    d_j v = d_j v* - d_j Psi to |grad v|^2, so the pass holds one
    derivative buffer.  Powers of |grad| are taken of its square, with no
    root: |grad|^{12/5} = (|grad|^2)^1.2.  ham3 reads the block's physical
    and Fourier noise rows.  Every block-sized array is held memory
    (lattice.held), so no block allocates one.  A non-finite snapshot
    raises UsageError naming it.  Columns are kept per member, and
    tables() checks each member's on its own.  A name not in COLUMNS
    raises UsageError."""

    def __init__(self, grid: GridSpec, columns: Sequence[str] = COLUMNS):
        unknown = [key for key in columns if key not in COLUMNS]
        if unknown:
            raise UsageError(f"unknown norm table column {unknown[0]!r}")
        self.grid = grid
        self.columns = [key for key in COLUMNS if key in columns]
        self.blocks = []  # per block: key -> (members, rows) column
        self.times = []
        self.m_count = 1  # the blocks' members; one until a block comes

    @np.errstate(over="ignore", invalid="ignore")  # the columns are checked in tables()
    def add(self, block) -> None:
        g, cell, want, held = self.grid, self.grid.cell_measure, set(self.columns), lattice.held
        m_count, b = block.v.shape[:2]
        self.m_count = m_count
        n, size = m_count * b, g.total_points
        rows = (n, size)
        dpd = block.psi is not None
        w = block.v.reshape(rows)  # v* rows
        if dpd:
            w = np.add(w, block.psi.reshape(rows), out=held("norms.w", rows))
        finite = np.isfinite(w.view(np.float64), out=held("norms.finite", (n, 2 * size), bool))
        finite = finite.all(axis=1)
        if not finite.all():
            raise UsageError(f"snapshot {block.start + int(np.argmin(finite)) % b} "
                             "holds a non-finite value")
        cols, r = {}, held("norms.r", rows, np.float64)  # r: a real scratch row per field

        def l12o5(squares):
            return lattice._lp_of_powers(np.power(squares, 1.2, out=r), 2.4, cell)

        def add_squares(total, f):  # total += |f|^2, flat per field
            f = f.reshape(rows)
            total += np.square(f.real, out=r)
            total += np.square(f.imag, out=r)

        def forward(given, a, name):  # the stepper's rows, else fftn of the physical ones
            if given is not None or a is None:
                return given
            return np.fft.fftn(a, axes=g.axes, out=held(name, a.shape))

        v_hat = forward(block.v_hat, block.v, "norms.v_hat")
        psi_hat = forward(block.psi_hat, block.psi, "norms.psi_hat")
        parts = dpd and bool(want & set(PARTITION_COLUMNS))
        if dpd:  # the gradient's stack: v*_hat, then psi_hat for the partition
            stack = held("norms.stack", (2 if parts else 1,) + v_hat.shape)
            w_hat = np.add(v_hat, psi_hat, out=stack[0])
            if parts:
                np.copyto(stack[1], psi_hat)
        else:
            w_hat, stack = v_hat, v_hat[np.newaxis]
        if want & _GRADIENT:  # every gradient column reads grad_l12o5 or its alias
            # |grad v*|^2 and, for the partition, |grad Psi|^2 and |grad v|^2,
            # summed axis by axis as each derivative of the stack arrives
            squares = held("norms.squares", (3 if parts else 1,) + rows, np.float64)
            squares.fill(0.0)
            for d in lattice.spectral_derivatives(g, stack, held("norms.d", stack.shape)):
                for total, f in zip(squares, d):
                    add_squares(total, f)
                if parts:
                    d[0] -= d[1]  # grad v = grad v* - grad Psi
                    add_squares(squares[2], d[0])
            sq = squares[0]
            cols["grad_l12o5"] = l12o5(sq)
            if want & {"grad_l2", "grad_l4", "energy"}:
                cols["grad_l2"] = lattice._lp_of_powers(sq, 2.0, cell)
                cols["grad_l4"] = lattice._lp_of_powers(np.square(sq, out=r), 4.0, cell)
            if parts:
                cols["psi_grad_l12o5"] = l12o5(squares[1])
                cols["v_grad_l12o5"] = l12o5(squares[2])
            elif not dpd:  # Psi = 0
                cols["v_grad_l12o5"], cols["psi_grad_l12o5"] = cols["grad_l12o5"], np.zeros(n)
        if want & _PHYSICAL:
            abs2 = np.abs(w, out=held("norms.abs2", rows, np.float64))
            np.square(abs2, out=abs2)
            cube = np.square(abs2, out=r)
            cube *= abs2
            cols["l6"] = lattice._lp_of_powers(cube, 6.0, cell)
            q = np.multiply(w.real, 2.0, out=held("norms.q", rows, np.float64))
            q += abs2  # |u|^2 - 1
            if "energy" in want:
                cols["energy"] = (0.5 * cols["grad_l2"] ** 2
                                  + 0.25 * np.sum(np.square(q, out=r), axis=1) * cell)
            cols["qv_balanced"] = np.sum(q, axis=1) * cell
            abs2 += np.square(w.imag, out=r)
            abs2 += np.multiply(w.real, 4.0, out=r)
            cols["qv"] = np.sum(abs2, axis=1) * cell
            steps = 0 if block.dw_hat is None else block.dw_hat.shape[1]
            if steps:
                # Im int G(v*) phi dW dx paired with each left-point snapshot,
                # for G(v*) = (|u|^2 - 1) conj(u) - Lap conj(v*) and u = 1 + v*.
                # The first term is real arithmetic on the physical rows; the
                # second is, by Parseval, (1/N) sum_k |k|^2 Im(conj(w_hat)
                # dw_hat) on the Fourier rows, with no transform (and no
                # weight on the zero mode).
                shape = (m_count, steps, size)
                w_s, q_s = (a.reshape(m_count, b, size)[:, :steps] for a in (w, q))
                w_hat_s = w_hat.reshape(m_count, b, size)[:, :steps]
                dw, dw_hat = (a.reshape(shape) for a in (block.dw, block.dw_hat))
                r_s = held("norms.r", shape, np.float64)
                # term and lap take the memory of abs2, read no more, and of q
                term = np.add(w_s.real, 1.0, out=held("norms.abs2", shape, np.float64))
                term *= dw.imag
                term -= np.multiply(w_s.imag, dw.real, out=r_s)
                term *= q_s
                lap = np.multiply(w_hat_s.real, dw_hat.imag, out=held("norms.q", shape, np.float64))
                lap -= np.multiply(w_hat_s.imag, dw_hat.real, out=r_s)
                lap *= g.ksq().reshape(-1)
                ham3 = np.sum(term, axis=-1) + np.sum(lap, axis=-1) / size
                cols["ham3_steps"] = ham3 * cell
        self.blocks.append({key: cols[key].reshape(m_count, -1)
                            for key in self.columns if key in cols})
        self.times.append(block.times)

    def tables(self, config: Optional[SolverConfig]) -> list:
        """Per member of the blocks fed (one when none was), in block order,
        its checked NormTable under the run's config, or the BlowUpError
        naming the first column that overflows float64 on its finite
        snapshots, or a running sum of the sixth powers the diagnostics
        integrate."""
        times = np.concatenate(self.times) if self.times else np.zeros(0)
        keys = list(dict.fromkeys(key for b in self.blocks for key in b))
        out = []
        for m in range(self.m_count):
            table = {key: np.concatenate([b[key][m] for b in self.blocks if key in b])
                     for key in keys}
            out.append(_checked(table, times, config) or NormTable(self.grid, times, table, config))
        return out


def _checked(table: dict, times: np.ndarray, cfg) -> Optional[BlowUpError]:
    """The BlowUpError for the first non-finite entry of a column, or of the
    running sums of the sixth powers the ledger, the partition and the
    Strichartz report integrate; None when every one is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        checked = list(table.items()) + [(f"{key}^6 (running sum)", np.cumsum(table[key] ** 6))
                                         for key in _SIXTH_POWERED if key in table]
        bad = [(int(np.argmin(np.isfinite(col))), key) for key, col in checked
               if not np.isfinite(col).all()]
    if not bad:
        return None
    i, key = min(bad, key=lambda b: b[0])
    step = i * (cfg.snapshot_stride if cfg is not None else 1)
    t = float(times[i])
    return BlowUpError(step, t, f"norm table column {key} is not finite at "
                                f"snapshot {i} (t = {t:.6g})")


def snapshot_norms(traj) -> dict:
    """The checked norm table of a trajectory's snapshots (NormAccumulator),
    its rows fed in blocks of lattice.BLOCK_BYTES with, given a noise path
    with one increment per step, the path's rows; a NormTable's own.  Kept
    in traj.norms: snapshots must not change once a diagnostic has read
    them.  Raises the table's BlowUpError, or the accumulator's UsageError."""
    if traj.norms is None:
        traj.norms = norm_table(traj.grid, traj.blocks(), traj.config).norms
    return traj.norms


def norm_table(grid: GridSpec, blocks, config: Optional[SolverConfig] = None,
               columns: Sequence[str] = COLUMNS) -> NormTable:
    """One member's SnapshotBlocks fed through a NormAccumulator making
    columns: its checked NormTable.  Raises the table's BlowUpError."""
    acc = NormAccumulator(grid, columns)
    try:
        for block in blocks:
            acc.add(block)
    finally:
        lattice.release_held()
    (table,) = acc.tables(config)
    if isinstance(table, BlowUpError):
        raise table
    return table


def solve_tables(configs: Sequence[SolverConfig], stream_ids: Sequence[int], sinks=(),
                 columns: Sequence[str] = COLUMNS) -> list:
    """Stream the members' snapshot blocks at every level of configs (one
    dynamics.lockstep) into each of sinks, called with every block in
    order, and then into the level's own NormAccumulator making columns.
    Returns per level, per stream id, its NormTable or its BlowUpError: the
    solve's, else the table's.  No snapshot is kept."""
    accs = [NormAccumulator(config.grid, columns) for config in configs]

    def feed(acc):
        def sink(block):
            for s in sinks:
                s(block)
            acc.add(block)
        return sink

    levels = dynamics.lockstep(configs, stream_ids, [feed(acc) for acc in accs])
    return [[table if failure is None else failure
             for failure, table in zip(failures, acc.tables(config))]
            for config, acc, failures in zip(configs, accs, levels)]


def _cumulative(y: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y over [times[0], times[i]] for every i."""
    return np.concatenate(([0.0], np.cumsum(lattice.trapezoid_steps(y, times))))


def ito_ledger(traj) -> EnergyLedger:
    """Per-snapshot energy ledger for a trajectory with its recorded noise path.

    ham2 uses the trapezoid rule on snapshot times; ham3 pairs the left-point
    integrand with each recorded increment (Ito convention).  Requires
    snapshot_stride = 1 for stochastic trajectories so every consumed
    increment has a matching left-point state.
    """
    cfg = dynamics.run_config(traj, "ito_ledger")
    if cfg.stochastic and cfg.snapshot_stride != 1:
        raise UsageError(f"ito_ledger requires snapshot_stride = 1, got {cfg.snapshot_stride}")
    table = snapshot_norms(traj)
    if cfg.stochastic and "ham3_steps" not in table:
        raise UsageError("ito_ledger needs the trajectory's recorded noise path")
    times = np.asarray(traj.times, dtype=float)
    energies = table["energy"]

    # a scheme that applies no noise has no noise drift, whatever cfg.noise names
    spec = cfg.noise if cfg.stochastic else noise_mod.zero_noise(traj.grid)
    hs_h1dot = noise_mod.hs_norm(spec, 1.0, homogeneous=True) ** 2
    hs_l2 = noise_mod.hs_norm(spec, 0.0) ** 2
    ham1 = times * (hs_h1dot + hs_l2)
    ham1_b = 0.5 * ham1

    # sum_n |phi e_n(x)|^2, the same at every x for a multiplier (Plancherel)
    density = hs_l2 / traj.grid.volume
    ham2 = _cumulative(density * table["qv"], times)
    ham2_b = _cumulative(density * table["qv_balanced"], times)

    ham3 = np.zeros(len(times))
    if cfg.stochastic:
        ham3[1:] = np.cumsum(table["ham3_steps"])

    residual = energies - energies[0] - ham1 - ham2 - ham3
    residual_b = energies - energies[0] - ham1_b - ham2_b - ham3

    # cumulative space-time norms of u - 1 = v* over [0, t_i]
    x1_cum = _cumulative(table["grad_l12o5"]**6, times) ** (1.0 / 6.0)
    l6_cum = _cumulative(table["l6"]**6, times) ** (1.0 / 6.0)

    return EnergyLedger(
        times=times, energy=energies, ham1=ham1, ham2=ham2, ham3=ham3,
        residual=residual, ham1_balanced=ham1_b, ham2_balanced=ham2_b,
        residual_balanced=residual_b, x1_cum=x1_cum, l6_cum=l6_cum,
    )


def quantile_summary(samples: Sequence[float]) -> dict:
    """Minimum, quartiles and maximum, keyed by percentile."""
    qs = np.quantile(np.asarray(samples, dtype=float), [0.0, 0.25, 0.5, 0.75, 1.0])
    return {p: float(q) for p, q in zip((0, 25, 50, 75, 100), qs)}


# --- interval partition -------------------------------------------------------


@dataclass
class IntervalPartition:
    eta: float
    intervals: List[SpacetimeInterval]
    norms: List[float]
    irreducible: List[bool] = field(default_factory=list)

    @property
    def J(self) -> int:
        return len(self.intervals)


def partition_intervals(traj, eta: float) -> IntervalPartition:
    """Greedy left-to-right maximal intervals with combined X^1 norm <= eta.

    The combined norm is the X^1 norm of the v part plus that of the Psi
    part.  Consecutive intervals share one endpoint snapshot.  A single-step
    interval whose norm already exceeds eta is kept and flagged irreducible.
    """
    if not 0 < eta < lattice.INF:
        raise UsageError(f"eta must be positive and finite, got {eta}")
    n = len(traj.times)
    if n < 2:
        raise UsageError("partitioning needs at least 2 snapshots")
    # per-step pieces of ||grad v||^6_{L^12/5} and ||grad Psi||^6_{L^12/5}
    table = snapshot_norms(traj)
    a = lattice.trapezoid_steps(table["v_grad_l12o5"]**6, traj.times)
    b = lattice.trapezoid_steps(table["psi_grad_l12o5"]**6, traj.times)
    intervals, norms = [], []
    i = 0
    while i < n - 1:
        # running sums from the left end i: differences of global prefix
        # sums would cancel
        j, sa, sb = i + 1, a[i], b[i]
        norm = sa ** (1.0 / 6.0) + sb ** (1.0 / 6.0)
        while norm <= eta and j < n - 1:
            cand = (sa + a[j]) ** (1.0 / 6.0) + (sb + b[j]) ** (1.0 / 6.0)
            if cand > eta:
                break
            sa, sb, norm, j = sa + a[j], sb + b[j], cand, j + 1
        intervals.append(SpacetimeInterval(i, j))
        norms.append(float(norm))
        i = j
    return IntervalPartition(eta, intervals, norms, irreducible=[x > eta for x in norms])


# --- Strichartz report ----------------------------------------------------------


def strichartz_report(traj, interval: SpacetimeInterval) -> dict:
    """Named space-time norms over the interval: the three shipped admissible
    pairs applied to grad u, the L^6_{t,x} norm of u - 1, and the X^1 norm.
    The s1_proxy entry, the max over the three computed pairs, is the
    supremum of ||grad u||_{L^q_t L^r_x} over every 4-d admissible pair,
    2/q + 4/r = 2 with 2 <= q <= inf: by Hoelder the mixed norm is
    log-convex in (1/q, 1/r) along that segment, for the trapezoid sums too
    (their weights are positive and do not depend on q), so its supremum
    is at an endpoint, (2, 4) or (inf, 2).  Since grad u = grad v*, every
    entry is read off the norm table's columns for v* = u - 1."""
    interval.validate(len(traj.times))
    sl = slice(interval.start_index, interval.end_index + 1)
    table = snapshot_norms(traj)
    times = traj.times[sl]
    rep = {
        "grad_L2t_L4x": lattice.time_norm(table["grad_l4"][sl], times, 2.0),
        "grad_L6t_L12/5x": lattice.time_norm(table["grad_l12o5"][sl], times, 6.0),
        "grad_Linft_L2x": lattice.time_norm(table["grad_l2"][sl], times, lattice.INF),
    }
    rep["s1_proxy"] = max(rep.values())
    rep["L6_tx_u_minus_1"] = lattice.time_norm(table["l6"][sl], times, 6.0)
    rep["x1"] = rep["grad_L6t_L12/5x"]
    return rep
