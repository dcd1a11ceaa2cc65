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
from typing import List, Sequence

import numpy as np

from . import lattice, noise as noise_mod
from .dynamics import Trajectory
from .errors import BlowUpError, UsageError
from .lattice import ComplexField, SpacetimeInterval


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


@np.errstate(over="ignore", invalid="ignore")  # the columns are checked at the end
def snapshot_norms(traj) -> dict:
    """Every per-snapshot quantity the diagnostics read, for v* = u - 1 =
    v + Psi: ||grad v*|| in L^4, L^12/5, L^2, ||v*||_{L^6}, E(1 + v*), ham2's
    integrals of |v*|^2 + (Im v*)^2 + 4 Re v* (qv) and |v*|^2 + 2 Re v*
    (qv_balanced), ||grad v|| and ||grad Psi|| in L^12/5, and, given a noise
    path with one increment per step, each step's ham3 term (ham3_steps).

    The one pass over snapshot fields, in blocks of lattice.BLOCK_BYTES of rows
    with one forward transform per block of v* (and of v and Psi for dpd), and
    the block's physical noise rows made from the path's Fourier rows.  Kept in
    traj.norms: snapshots must not change once a diagnostic has read them.
    A non-finite snapshot raises UsageError naming it, and a column that
    overflows float64 on finite snapshots, or a running sum of the sixth
    powers the diagnostics integrate, BlowUpError naming the first."""
    if traj.norms is not None:
        return traj.norms
    g, n, cell = traj.grid, traj.n_snapshots, traj.grid.cell_measure
    path = traj.noise_path
    steps = path.n_steps if path is not None and path.n_steps == n - 1 else 0
    blocks = []
    for sl in lattice.row_blocks(traj.v):
        w = traj.v[sl] if traj.psi is None else traj.v[sl] + traj.psi[sl]  # v* rows
        flat = w.reshape(len(w), -1)
        finite = np.isfinite(flat.view(np.float64)).all(axis=1)
        if not finite.all():
            raise UsageError(f"snapshot {sl.start + int(np.argmin(finite))} holds a non-finite value")
        w_hat = np.fft.fftn(w, axes=g.axes)
        grad = lattice.gradient_magnitude(g, w_hat)
        cols = {key: lattice._lp_of_values(grad, r, cell)
                for key, r in (("grad_l4", 4.0), ("grad_l12o5", 12.0 / 5.0), ("grad_l2", 2.0))}
        cols["l6"] = lattice._lp_of_values(flat, 6.0, cell)
        abs2 = np.abs(flat) ** 2
        q = abs2 + 2.0 * flat.real  # |u|^2 - 1
        cols["energy"] = 0.5 * cols["grad_l2"] ** 2 + 0.25 * np.sum(q**2, axis=1) * cell
        cols["qv"] = np.sum(abs2 + flat.imag**2 + 4.0 * flat.real, axis=1) * cell
        cols["qv_balanced"] = np.sum(q, axis=1) * cell
        if sl.start < steps:
            # Im int G(v*) phi dW dx paired with each left-point snapshot, for
            # G(v*) = |v*|^2 conj(v*) - Lap conj(v*) + |v*|^2 + 2 Re(v*) conj(v*) + 2 Re(v*)
            dw = path.physical(sl.start, min(sl.stop, steps)).reshape(-1, g.total_points)
            v, a, vb = flat[: len(dw)], abs2[: len(dw)], np.conj(flat[: len(dw)])
            lap_vb = np.conj(lattice.laplacian(g, w_hat[: len(dw)]))
            integrand = a * vb - lap_vb + a + 2.0 * v.real * vb + 2.0 * v.real
            np.multiply(integrand, dw, out=dw)  # integrand * dw into the block's own rows
            cols["ham3_steps"] = np.imag(np.sum(dw, axis=1)) * cell
            del integrand, dw  # not held while the next block is made
        if traj.psi is not None:
            for key, part in (("v_grad_l12o5", traj.v[sl]), ("psi_grad_l12o5", traj.psi[sl])):
                part_grad = lattice.gradient_magnitude(g, np.fft.fftn(part, axes=g.axes))
                cols[key] = lattice._lp_of_values(part_grad, 12.0 / 5.0, cell)
        blocks.append(cols)
    table = {key: np.concatenate([b[key] for b in blocks if key in b]) for key in blocks[0]}
    if traj.psi is None:
        table["v_grad_l12o5"], table["psi_grad_l12o5"] = table["grad_l12o5"], np.zeros(n)
    # the ledger, the partition and the Strichartz report integrate these
    # columns' sixth powers over time, so their running sums must be finite too
    checked = list(table.items()) + [(f"{key}^6 (running sum)", np.cumsum(table[key] ** 6))
                                     for key in _SIXTH_POWERED]
    bad = [(int(np.argmin(np.isfinite(col))), key) for key, col in checked
           if not np.isfinite(col).all()]
    if bad:
        i, key = min(bad, key=lambda b: b[0])
        step = i * (traj.config.snapshot_stride if traj.config is not None else 1)
        t = float(traj.times[i])
        raise BlowUpError(step, t, f"norm table column {key} is not finite at "
                                   f"snapshot {i} (t = {t:.6g})")
    traj.norms = table
    return table


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
    cfg = traj.solver_config("ito_ledger")
    if cfg.stochastic:
        if cfg.snapshot_stride != 1:
            raise UsageError(f"ito_ledger requires snapshot_stride = 1, got {cfg.snapshot_stride}")
        if traj.noise_path is None:
            raise UsageError("ito_ledger needs the trajectory's recorded noise path")

    table = snapshot_norms(traj)
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
