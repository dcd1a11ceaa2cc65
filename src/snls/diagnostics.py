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

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from . import dynamics, lattice, noise as noise_mod
from .dynamics import SolverConfig, Trajectory
from .errors import BlowUpError, UsageError
from .lattice import ComplexField, GridSpec, SpacetimeInterval


# --- energy -----------------------------------------------------------------


def energy(v_star_field: ComplexField) -> float:
    """Ginzburg-Landau energy of u = 1 + v*:
    0.5 * int |grad v*|^2 + 0.25 * int (|v*|^2 + 2 Re v*)^2."""
    one = Trajectory(v_star_field.grid, "direct", np.zeros(1), v_star_field.mesh[np.newaxis])
    return float(snapshot_norms(one)["energy"][0])


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
    """The one pass over snapshot fields, fed SnapshotBlocks in order: every
    per-snapshot quantity the diagnostics read, for v* = u - 1 = v + Psi:
    ||grad v*|| in L^4, L^12/5, L^2, ||v*||_{L^6}, E(1 + v*), ham2's
    integrals of |v*|^2 + (Im v*)^2 + 4 Re v* (qv) and |v*|^2 + 2 Re v*
    (qv_balanced), ||grad v|| and ||grad Psi|| in L^12/5, and, for blocks
    that carry noise rows, each step's ham3 term (ham3_steps).

    One forward transform per block of v* (and of v and Psi for dpd) over
    every member's rows at once, into a work array kept from block to
    block; ham3 reads the block's physical and Fourier noise rows and takes
    no transform of its own.  A non-finite snapshot raises UsageError naming
    it.  Columns are kept per member, and tables() checks each member's on
    its own."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.blocks = []  # per block: key -> (members, rows) column
        self.times = []
        self._work = np.empty(0, dtype=np.complex128)  # a block's forward transforms

    @np.errstate(over="ignore", invalid="ignore")  # the columns are checked in tables()
    def add(self, block) -> None:
        g, cell = self.grid, self.grid.cell_measure
        m_count, b = block.v.shape[:2]
        v = block.v.reshape((m_count * b,) + g.shape)
        psi = None if block.psi is None else block.psi.reshape(v.shape)
        w = v if psi is None else v + psi  # v* rows
        flat = w.reshape(len(w), -1)
        finite = np.isfinite(flat.view(np.float64)).all(axis=1)
        if not finite.all():
            raise UsageError(f"snapshot {block.start + int(np.argmin(finite)) % b} "
                             "holds a non-finite value")
        if self._work.shape != w.shape:  # the same for every block but the last
            self._work = np.empty(w.shape, dtype=np.complex128)
        w_hat = np.fft.fftn(w, s=g.shape, axes=g.axes, out=self._work)
        grad = lattice.gradient_magnitude(g, w_hat)  # non-negative: no abs
        l12o5 = lattice._lp_of_powers(grad ** 2.4, 2.4, cell)
        l2 = lattice._lp_of_powers(np.square(grad, out=grad), 2.0, cell)
        l4 = lattice._lp_of_powers(np.square(grad, out=grad), 4.0, cell)
        # in this order, _checked names the first non-finite column
        cols = {"grad_l4": l4, "grad_l12o5": l12o5, "grad_l2": l2}
        abs2 = np.abs(flat) ** 2
        cube = np.square(abs2, out=grad)  # grad's buffer, no longer read
        cube *= abs2
        cols["l6"] = lattice._lp_of_powers(cube, 6.0, cell)
        del grad, cube
        q = 2.0 * flat.real
        q += abs2  # |u|^2 - 1
        cols["energy"] = 0.5 * cols["grad_l2"] ** 2 + 0.25 * np.sum(np.square(q), axis=1) * cell
        qv_balanced = np.sum(q, axis=1) * cell
        abs2 += np.square(flat.imag)
        abs2 += 4.0 * flat.real
        cols["qv"] = np.sum(abs2, axis=1) * cell
        cols["qv_balanced"] = qv_balanced
        del abs2
        steps = 0 if block.dw_hat is None else block.dw_hat.shape[1]
        if steps:
            # Im int G(v*) phi dW dx paired with each left-point snapshot, for
            # G(v*) = (|u|^2 - 1) conj(u) - Lap conj(v*) and u = 1 + v*.  The
            # first term is real arithmetic on the physical rows; the second
            # is, by Parseval, (1/N) sum_k |k|^2 Im(conj(w_hat) dw_hat)
            # on the Fourier rows, with no transform.
            rows = (m_count, b, -1)
            w_s, q_s, w_hat_s = (a.reshape(rows)[:, :steps] for a in (flat, q, w_hat))
            dw, dw_hat = (a.reshape(m_count, steps, -1) for a in (block.dw, block.dw_hat))
            term = 1.0 + w_s.real
            term *= dw.imag
            term -= w_s.imag * dw.real
            term *= q_s
            lap_term = w_hat_s.real * dw_hat.imag
            lap_term -= w_hat_s.imag * dw_hat.real
            lap_term *= g.ksq().reshape(-1)
            ham3 = np.sum(term, axis=-1) + np.sum(lap_term, axis=-1) / g.total_points
            cols["ham3_steps"] = ham3 * cell
            del term, lap_term, w_s, q_s, w_hat_s
        del w_hat, q, flat, w
        if psi is not None:
            for key, part in (("v_grad_l12o5", v), ("psi_grad_l12o5", psi)):
                part_hat = np.fft.fftn(part, s=g.shape, axes=g.axes, out=self._work)
                part_grad = lattice.gradient_magnitude(g, part_hat)
                cols[key] = lattice._lp_of_powers(part_grad ** 2.4, 2.4, cell)
        self.blocks.append({key: col.reshape(m_count, -1) for key, col in cols.items()})
        self.times.append(block.times)

    def tables(self, configs: Sequence[Optional[SolverConfig]]) -> list:
        """Per member, in block order, its checked NormTable, or the
        BlowUpError naming the first column that overflows float64 on its
        finite snapshots, or a running sum of the sixth powers the
        diagnostics integrate."""
        times = np.concatenate(self.times) if self.times else np.zeros(0)
        keys = list(dict.fromkeys(key for b in self.blocks for key in b))
        out = []
        for m, cfg in enumerate(configs):
            table = {key: np.concatenate([b[key][m] for b in self.blocks if key in b])
                     for key in keys}
            if "grad_l12o5" in table and "psi_grad_l12o5" not in table:  # Psi = 0
                table["v_grad_l12o5"], table["psi_grad_l12o5"] = table["grad_l12o5"], np.zeros(len(times))
            out.append(_checked(table, times, cfg) or NormTable(self.grid, times, table, cfg))
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


def norm_table(grid: GridSpec, blocks, config: Optional[SolverConfig] = None) -> NormTable:
    """One member's SnapshotBlocks fed through a NormAccumulator: its
    checked NormTable.  Raises the table's BlowUpError."""
    acc = NormAccumulator(grid)
    for block in blocks:
        acc.add(block)
    (table,) = acc.tables([config])
    if isinstance(table, BlowUpError):
        raise table
    return table


def solve_tables(configs: Sequence[SolverConfig], stream_ids: Sequence[int], sinks=()) -> list:
    """Stream the members' snapshot blocks at every level of configs (one
    dynamics.lockstep) into each of sinks, called with every block in
    order, and then into the level's own NormAccumulator.  Returns per
    level, per stream id, its NormTable or its BlowUpError: the solve's,
    else the table's.  No snapshot is kept."""
    accs = [NormAccumulator(config.grid) for config in configs]

    def feed(acc):
        def sink(block):
            for s in sinks:
                s(block)
            acc.add(block)
        return sink

    levels = dynamics.lockstep(configs, stream_ids, [feed(acc) for acc in accs])
    out = []
    for config, acc, failures in zip(configs, accs, levels):
        members = [replace(config, stream_id=s) for s in stream_ids]
        out.append([table if failure is None else failure
                    for failure, table in zip(failures, acc.tables(members))])
    return out


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
    cfg = traj.config
    if cfg is None:
        raise UsageError("ito_ledger needs the solver config, which a trajectory read "
                         "from a file lacks")
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
    The s1_proxy entry is the max over the three computed pairs, not the full
    supremum over all admissible pairs.  Since grad u = grad v*, every entry
    is read off the norm table's columns for v* = u - 1."""
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
