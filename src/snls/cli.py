"""Command-line interface.

    snls <subcommand> --config <path> [--seed N] [--out DIR] [--workers K]

Subcommands: simulate, ensemble, noise-stats, verify-energy, converge,
partition.  Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import diagnostics, dynamics, harness, lattice, noise as noise_mod
from .errors import BlowUpError, ConfigurationError, SnlsError, UsageError


def _load_config(args) -> harness.RunConfig:
    rc = harness.load_config(args.config)
    if args.seed is not None:
        rc = replace(rc, master_seed=args.seed)
    if args.out is not None:
        rc = replace(rc, output_dir=args.out)
    if args.workers is not None:
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        rc = replace(rc, workers=args.workers)
    return rc


def _cmd_simulate(args) -> int:
    rc = _load_config(args)
    harness.check_ledger_stride(rc)
    out = harness.ensure_output_dir(rc)
    cfg = harness.build_solver_config(rc)
    names = ["diagnostics.csv", "summary.txt"]
    if rc.emit_snapshots:
        names[:0] = ["trajectory.bin", "noise_path.bin"] if cfg.stochastic else ["trajectory.bin"]
    with harness.temporary_outputs(out, names) as tmp:
        with contextlib.ExitStack() as files:  # the writers close before the files take their names
            sinks = []
            if rc.emit_snapshots:
                sinks.append(files.enter_context(dynamics.TrajectoryWriter(
                    tmp["trajectory.bin"], cfg.grid, cfg.scheme, cfg.n_snapshots,
                    cfg.dt * cfg.snapshot_stride)))
            if "noise_path.bin" in tmp:
                sinks.append(files.enter_context(noise_mod.NoisePathWriter(
                    tmp["noise_path.bin"], cfg.grid, cfg.dt, cfg.n_steps)))
            ((table,),) = diagnostics.solve_tables([cfg], [cfg.stream_id], sinks)
        if isinstance(table, BlowUpError):
            raise table
        ledger = diagnostics.ito_ledger(table)
        harness.emit_csv(ledger, tmp["diagnostics.csv"])
        part = diagnostics.partition_intervals(table, rc.eta)
        rep = diagnostics.strichartz_report(
            table, lattice.SpacetimeInterval(0, len(table.times) - 1)
        )
        lines = [
            "[simulate]",
            f"config_hash = {rc.config_hash()}",
            f"final_energy = {float(ledger.energy[-1])!r}",
            f"final_residual = {float(ledger.residual[-1])!r}",
            f"partition_J = {part.J}",
        ]
        lines += [f"{k} = {v!r}" for k, v in rep.items()]
        with open(tmp["summary.txt"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_ensemble(args) -> int:
    rc = _load_config(args)
    harness.check_ledger_stride(rc)
    out = harness.ensure_output_dir(rc)
    report = harness.run_ensemble(rc)
    harness.write_report(report, os.path.join(out, "ensemble_report.txt"))
    for k, v in report.aggregates.items():
        print(f"{k} = {harness._format_value(v)}")
    return 0


def _cmd_noise_stats(args) -> int:
    """Psi-only ensemble, no solve: member m's Psi(T) is stochastic_convolution over stream m's
    rows, run in batches of lattice.row_blocks; compares E||Psi(T)||_H1^2 against
    T * ||phi||_HS^2 (the exact Ito isometry).  ||Psi(T)||_H1^2 is read off the Fourier rows,
    (V / N^2) sum_k (1 + |k|^2) |Psi_hat_k|^2 with N the grid's points, each member summed on
    its own row, so no transform is taken and the bits do not depend on the batch."""
    rc = _load_config(args)
    out = harness.ensure_output_dir(rc)
    grid = harness.build_grid(rc)
    spec = harness.build_noise(rc, grid)
    n_steps, full = int(round(rc.t_final / rc.dt)), lattice.schrodinger_phase(grid, rc.dt)
    weight, scale = lattice.sobolev_weight(grid.ksq(), 1.0), grid.volume / grid.total_points ** 2
    h1_sq = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic is named below
        for sl in lattice.row_blocks(rc.ensemble_size, grid.total_points * 16):
            members = range(sl.start, sl.stop)
            psi = dynamics.stochastic_convolution(
                np.zeros((len(members),) + grid.shape, dtype=np.complex128),
                noise_mod.member_rows(spec, rc.dt, rc.master_seed, members, n_steps), full)
            h1_sq += [float(np.sum(weight * np.abs(p) ** 2)) * scale for p in psi]
        est, se = noise_mod.mean_and_se(h1_sq)
        target = rc.t_final * noise_mod.hs_norm(spec, 1.0) ** 2
        stats = {
            "E_psi_H1_sq": est,
            "standard_error": se,
            "ito_isometry_target": target,
            "deviation_in_se": abs(est - target) / se if se else 0.0,
        }
    for name, value in stats.items():
        if not math.isfinite(value):
            raise UsageError(f"noise-stats: {name} = {value!r} is not finite")
    lines = ["[noise-stats]", f"members = {rc.ensemble_size}"]
    lines += [f"{name} = {value!r}" for name, value in stats.items()]
    with open(os.path.join(out, "noise_stats.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _cmd_verify_energy(args) -> int:
    rc = _load_config(args)
    out = harness.ensure_output_dir(rc)
    study = harness.residual_refinement_study(rc, n_halvings=args.halvings)
    if study["discrepancy"]:
        harness.write_discrepancy_report(study, os.path.join(out, "ledger_discrepancy.txt"))
    for dt, lit, bal in zip(
        study["dts"], study["literal_residuals"], study["balanced_residuals"]
    ):
        print(f"dt = {dt!r}  |literal residual| = {lit!r}  |balanced residual| = {bal!r}")
    print(f"literal_non_increasing = {study['literal_non_increasing']}")
    return 0


def _cmd_converge(args) -> int:
    rc = _load_config(args)
    if args.dts:
        try:
            dts = [float(s) for s in args.dts.split(",")]
        except ValueError:
            raise UsageError(f"--dts must be comma-separated numbers, got {args.dts!r}") from None
    else:
        dts = harness.dt_levels(rc.dt, range(args.levels - 1, -1, -1), f"--levels {args.levels}")
    study = harness.convergence_study(rc, dts)
    for dt, err in zip(study["dts"][:-1], study["errors_vs_finest"]):
        print(f"dt = {dt!r}  error = {err!r}")
    print(f"observed_order = {study['observed_order']!r}")
    return 0


def _cmd_partition(args) -> int:
    rc = _load_config(args)
    grid, _, _, blocks = dynamics.trajectory_blocks(args.trajectory)
    table = diagnostics.norm_table(grid, blocks, columns=diagnostics.PARTITION_COLUMNS)
    part = diagnostics.partition_intervals(table, rc.eta)
    print(f"eta = {rc.eta!r}  J = {part.J}")
    for itv, nrm, irr in zip(part.intervals, part.norms, part.irreducible):
        tag = "  [irreducible]" if irr else ""
        print(f"[{itv.start_index}, {itv.end_index}]  x1 = {nrm!r}{tag}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": _cmd_simulate,
        "ensemble": _cmd_ensemble,
        "noise-stats": _cmd_noise_stats,
        "verify-energy": _cmd_verify_energy,
        "converge": _cmd_converge,
        "partition": _cmd_partition,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--workers", type=int, default=None)
        p.set_defaults(func=fn)
    sub.choices["verify-energy"].add_argument("--halvings", type=int, default=3)
    sub.choices["converge"].add_argument("--dts", default=None, help="comma-separated dt list")
    sub.choices["converge"].add_argument("--levels", type=int, default=3)
    sub.choices["partition"].add_argument("--trajectory", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return 1
    except (SnlsError, OSError, MemoryError) as exc:  # a list's MemoryError has no message
        print(f"runtime failure: {exc if str(exc) else type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
