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
from .errors import UsageError
from .lattice import ComplexField, SpacetimeInterval


# --- energy -----------------------------------------------------------------


def energy(v_star_field: ComplexField) -> float:
    """Ginzburg-Landau energy of u = 1 + v*:
    0.5 * int |grad v*|^2 + 0.25 * int (|v*|^2 + 2 Re v*)^2."""
    g = v_star_field.grid
    grad2 = np.zeros(g.total_points)
    for d in lattice.gradient_fields(v_star_field):
        grad2 += np.abs(d.values) ** 2
    v = v_star_field.values
    pot = (np.abs(v) ** 2 + 2.0 * v.real) ** 2
    return float((0.5 * grad2.sum() + 0.25 * pot.sum()) * g.cell_measure)


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


def _mode_density(spec) -> object:
    """sum_n |phi_n(x)|^2: a constant for multiplier noise (Plancherel),
    a lattice array for rank-list noise, 0 for zero noise."""
    if spec.kind == "zero":
        return 0.0
    if spec.kind == "multiplier":
        return noise_mod.hs_norm(spec, 0.0) ** 2 / spec.grid.volume
    dens = np.zeros(spec.grid.total_points)
    for col in spec.rank_list:
        dens += np.abs(col.values) ** 2
    return dens


def _ham3_integrand(v_star: ComplexField) -> np.ndarray:
    """|v*|^2 conj(v*) - Lap conj(v*) + |v*|^2 + 2 Re(v*) conj(v*) + 2 Re(v*)."""
    v = v_star.values
    vb = np.conj(v)
    lap_vb = np.conj(lattice.laplacian(v_star).values)
    return np.abs(v) ** 2 * vb - lap_vb + np.abs(v) ** 2 + 2.0 * v.real * vb + 2.0 * v.real


def _grad_norms(fields: Sequence[ComplexField], rs: Sequence[float], first: int = 0) -> np.ndarray:
    """||grad f||_{L^r}: a row per exponent r in rs, a column per snapshot field f, from
    one spectral gradient of each; a non-finite field (index from `first`) is rejected."""
    cols = []
    for i, f in enumerate(fields, first):
        if not f.is_finite():
            raise UsageError(f"snapshot {i} holds a non-finite value")
        mag = lattice.gradient_magnitude(f)
        cols.append([lattice._lp_of_values(mag, r, f.grid.cell_measure) for r in rs])
    return np.array(cols).T


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
    g = traj.grid
    if cfg.stochastic:
        if traj.noise_path is None:
            raise UsageError("ito_ledger needs the trajectory's recorded noise path")
        if cfg.snapshot_stride != 1:
            raise UsageError("ito_ledger requires snapshot_stride = 1")

    times = np.asarray(traj.times, dtype=float)
    n = len(times)
    v_stars = [traj.v_star_snapshot(i) for i in range(n)]
    grad_l12o5 = _grad_norms(v_stars, (12.0 / 5.0,))[0]
    energies = np.array([energy(v) for v in v_stars])

    hs_h1dot = noise_mod.hs_norm(cfg.noise, 1.0, homogeneous=True) ** 2
    hs_l2 = noise_mod.hs_norm(cfg.noise, 0.0) ** 2
    ham1 = times * (hs_h1dot + hs_l2)
    ham1_b = 0.5 * ham1

    density = _mode_density(cfg.noise)
    cell = g.cell_measure

    def ham2_of(integrand) -> np.ndarray:
        """Running trapezoid integral of int integrand(v*) * density dx."""
        return _cumulative(np.array([np.sum(integrand(v.values) * density) * cell
                                     for v in v_stars]), times)

    ham2 = ham2_of(lambda w: np.abs(w) ** 2 + w.imag**2 + 4.0 * w.real)
    ham2_b = ham2_of(lambda w: np.abs(w) ** 2 + 2.0 * w.real)

    ham3 = np.zeros(n)
    if cfg.stochastic:
        ham3[1:] = np.cumsum([np.imag(np.sum(_ham3_integrand(v) * inc.values)) * cell
                              for v, inc in zip(v_stars, traj.noise_path.increments)])

    residual = energies - energies[0] - ham1 - ham2 - ham3
    residual_b = energies - energies[0] - ham1_b - ham2_b - ham3

    # cumulative space-time norms of u - 1 = v* over [0, t_i]
    l6 = np.array([lattice._lp_of_values(v.values, 6.0, cell) for v in v_stars])
    x1_cum = _cumulative(grad_l12o5**6, times) ** (1.0 / 6.0)
    l6_cum = _cumulative(l6**6, times) ** (1.0 / 6.0)

    return EnergyLedger(
        times=times, energy=energies, ham1=ham1, ham2=ham2, ham3=ham3,
        residual=residual, ham1_balanced=ham1_b, ham2_balanced=ham2_b,
        residual_balanced=residual_b, x1_cum=x1_cum, l6_cum=l6_cum,
    )


def energy_bound_report(trajectories: Sequence) -> dict:
    """Monte Carlo estimate of E[ sup_{t <= T} E(u)(t) ] over an ensemble."""
    if len(trajectories) == 0:
        raise UsageError("empty ensemble")
    sups = []
    finals = []
    for traj in trajectories:
        es = [energy(traj.v_star_snapshot(i)) for i in range(traj.n_snapshots)]
        sups.append(max(es))
        finals.append(es[-1])
    mean, se = noise_mod.mean_and_se(sups)
    return {
        "n_members": len(sups),
        "sup_energy_mean": mean,
        "sup_energy_se": se,
        "sup_energy_quantiles": quantile_summary(sups),
        "final_energy_mean": float(np.mean(finals)),
        "per_member_sup": sups,
    }


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
    a, b = (lattice.trapezoid_steps(_grad_norms(f, (12.0 / 5.0,))[0] ** 6, traj.times)
            for f in (traj.v_snapshots, traj.psi_snapshots))
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
    supremum over all admissible pairs.  Since grad u = grad v*, one gradient
    of each v* = u - 1 snapshot serves every entry."""
    interval.validate(len(traj.times))
    sl = slice(interval.start_index, interval.end_index + 1)
    v_stars = [traj.v_star_snapshot(i) for i in range(sl.start, sl.stop)]
    l4, l12o5, l2 = _grad_norms(v_stars, (4.0, 12.0 / 5.0, 2.0), sl.start)
    l6 = [lattice._lp_of_values(v.values, 6.0, v.grid.cell_measure) for v in v_stars]
    times = traj.times[sl]
    rep = {
        "grad_L2t_L4x": lattice.time_norm(l4, times, 2.0),
        "grad_L6t_L12/5x": lattice.time_norm(l12o5, times, 6.0),
        "grad_Linft_L2x": lattice.time_norm(l2, times, lattice.INF),
    }
    rep["s1_proxy"] = max(rep.values())
    rep["L6_tx_u_minus_1"] = lattice.time_norm(l6, times, 6.0)
    rep["x1"] = rep["grad_L6t_L12/5x"]
    return rep
