"""Run configuration, Monte Carlo ensemble orchestration, convergence
studies, and file emission.

Config files are flat `key = value` lines grouped under bracketed section
headers [grid], [time], [noise], [initial], [ensemble], [output]; `#` starts
a comment.  Unknown sections or keys are rejected with line numbers.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import diagnostics, dynamics, lattice, noise as noise_mod
from .errors import BlowUpError, ConfigurationError, UsageError, WorkerError
from .dynamics import SolverConfig

VERSION = "snls 0.1.0"


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_mode(raw: str) -> tuple:
    return tuple(int(p) for p in raw.split(","))


# single-field checks: (predicate, what the value must be)
_POSITIVE = (lambda x: x > 0, "must be positive")
_AT_LEAST_ONE = (lambda x: x >= 1, "must be >= 1")
_FINITE = (math.isfinite, "must be finite")
_FINITE_NONNEG = (lambda x: 0 <= x < math.inf, "must be finite and >= 0")
_FINITE_POSITIVE = (lambda x: 0 < x < math.inf, "must be positive and finite")


def _one_of(*choices):
    return (lambda x: x in choices, "must be one of " + ", ".join(choices))


# section -> key -> (parser, default, check or None); the key order fixes the
# order of RunConfig.initial_params, which config_hash depends on
_SCHEMA = {
    "grid": {
        "dim": (int, 2, None), "points_per_axis": (int, 64, None),
        "box_length": (float, 2.0 * math.pi, None),
    },
    "time": {
        "dt": (float, 1e-3, _POSITIVE), "t_final": (float, 1.0, _POSITIVE),
        "snapshot_stride": (int, 1, None),
        "scheme": (str, "deterministic_gp", _one_of(*dynamics.SCHEMES)),
    },
    "noise": {
        "kind": (str, "zero", _one_of("zero", "multiplier")),
        "amplitude": (float, 0.1, _FINITE_NONNEG), "sigma": (float, 3.0, _FINITE),
        "cutoff": (float, None, (lambda x: x is None or x >= 0, "must be >= 0")),
    },
    "initial": {
        "kind": (str, "constant",
                 _one_of("constant", "plane_wave", "gaussian_bump", "random_band")),
        "alpha_re": (float, 1.0, _FINITE), "alpha_im": (float, 0.0, _FINITE),
        "amplitude": (float, 0.1, _FINITE), "width": (float, 0.5, _FINITE_POSITIVE),
        "mode": (_parse_mode, (1, 0, 0, 0), None), "h1_norm": (float, 1.0, _FINITE_NONNEG),
        "band_max": (float, 4.0, _FINITE_POSITIVE), "seed": (int, 0, None),
    },
    "ensemble": {
        "size": (int, 1, _AT_LEAST_ONE), "master_seed": (int, 0, None),
        "workers": (int, 1, _AT_LEAST_ONE), "eta": (float, 0.5, _FINITE_POSITIVE),
    },
    "output": {"dir": (str, "out", None), "emit_snapshots": (_parse_bool, False, None)},
}


@dataclass
class RunConfig:
    dim: int
    points_per_axis: int
    box_length: float
    dt: float
    t_final: float
    snapshot_stride: int
    scheme: str
    noise_kind: str
    noise_amplitude: float
    noise_sigma: float
    noise_cutoff: Optional[float]
    initial_kind: str
    initial_params: dict
    ensemble_size: int
    master_seed: int
    workers: int
    eta: float
    output_dir: str
    emit_snapshots: bool

    def config_hash(self) -> str:
        import hashlib  # loads OpenSSL; only runs that write a hash pay for it

        skip = ("output_dir", "workers")  # neither changes what is computed
        canon = repr(sorted((k, repr(v)) for k, v in vars(self).items() if k not in skip))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; raises ConfigurationError listing
    every field-level problem with its line number."""
    values = {sec: {k: spec[1] for k, spec in keys.items()} for sec, keys in _SCHEMA.items()}
    errors: List[str] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in values:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, _, rawval = line.partition("=")
        key = key.strip()
        rawval = rawval.strip()
        if key not in _SCHEMA[section]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        try:
            values[section][key] = _SCHEMA[section][key][0](rawval)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse value for {key!r}: {rawval!r}")

    for section, keys in _SCHEMA.items():
        for key, (_, _, check) in keys.items():
            value = values[section][key]
            if check is not None and not check[0](value):
                errors.append(f"field {key!r} in [{section}]: {check[1]}, got {value!r}")
    g, t, nz, ini, ens, out = (
        values["grid"], values["time"], values["noise"],
        values["initial"], values["ensemble"], values["output"],
    )
    if t["dt"] > 0 and t["t_final"] > 0:
        steps = t["t_final"] / t["dt"]
        if not dynamics.is_whole(steps):
            errors.append(f"field 'dt': t_final/dt = {steps} is not an integer")
        elif not dynamics.stride_divides(t["snapshot_stride"], steps):
            errors.append("field 'snapshot_stride': must divide the step count")
    try:
        lattice.make_grid(g["dim"], g["points_per_axis"], g["box_length"])
    except ConfigurationError as exc:
        errors.append(f"section [grid]: {exc}")

    if errors:
        raise ConfigurationError("\n".join(errors))

    return RunConfig(
        dim=g["dim"], points_per_axis=g["points_per_axis"], box_length=g["box_length"],
        dt=t["dt"], t_final=t["t_final"], snapshot_stride=t["snapshot_stride"],
        scheme=t["scheme"],
        noise_kind=nz["kind"], noise_amplitude=nz["amplitude"],
        noise_sigma=nz["sigma"], noise_cutoff=nz["cutoff"],
        initial_kind=ini["kind"],
        initial_params={k: v for k, v in ini.items() if k != "kind"},
        ensemble_size=ens["size"], master_seed=ens["master_seed"],
        workers=ens["workers"], eta=ens["eta"],
        output_dir=out["dir"], emit_snapshots=out["emit_snapshots"],
    )


def load_config(path: str) -> RunConfig:
    """Read and parse a config file, which must be UTF-8 text."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: byte {exc.start} is not UTF-8 text") from None
    return parse_config(text)


# --- building solver configs -------------------------------------------------


def build_grid(rc: RunConfig):
    return lattice.make_grid(rc.dim, rc.points_per_axis, rc.box_length)


def build_noise(rc: RunConfig, grid) -> noise_mod.NoiseSpec:
    if rc.noise_kind == "zero":
        return noise_mod.zero_noise(grid)
    return noise_mod.multiplier_noise(grid, rc.noise_amplitude, rc.noise_sigma, rc.noise_cutoff)


@np.errstate(all="ignore")  # SolverConfig refuses a non-finite initial_v by name
def build_initial(rc: RunConfig, grid) -> lattice.ComplexField:
    p = rc.initial_params
    if rc.initial_kind == "constant":
        return dynamics.initial_constant(grid, complex(p["alpha_re"], p["alpha_im"]))
    if rc.initial_kind == "plane_wave":
        return dynamics.initial_plane_wave(grid, tuple(p["mode"])[: grid.dim])
    if rc.initial_kind == "gaussian_bump":
        return dynamics.initial_gaussian_bump(grid, p["amplitude"], p["width"])
    return dynamics.initial_random_band(grid, p["h1_norm"], p["band_max"], p["seed"])


def build_solver_config(rc: RunConfig, stream_id: int = 0) -> SolverConfig:
    grid = build_grid(rc)
    return SolverConfig(
        grid=grid, t_final=rc.t_final, dt=rc.dt, scheme=rc.scheme,
        noise=build_noise(rc, grid), initial_v=build_initial(rc, grid),
        snapshot_stride=rc.snapshot_stride, master_seed=rc.master_seed,
        stream_id=stream_id,
    )


def check_ledger_stride(rc: RunConfig) -> None:
    """simulate and ensemble run the Ito ledger, which pairs every increment with
    the state at the start of its step; the other studies set their own stride."""
    if rc.snapshot_stride != 1 and dynamics.consumes_noise(rc.scheme, rc.noise_kind):
        raise ConfigurationError(f"field 'snapshot_stride': must be 1 for the stochastic "
                                 f"scheme {rc.scheme!r}, got {rc.snapshot_stride}")


# --- ensembles ----------------------------------------------------------------


@dataclass
class EnsembleReport:
    members: List[dict]
    aggregates: dict
    provenance: dict

    @property
    def n_failed(self) -> int:
        return sum(1 for m in self.members if m.get("failed"))


# Bytes one batch of ensemble members may hold while it streams
# (dynamics.member_bytes each).  A stochastic 16^2 direct member holds
# about 52 KiB, so a batch there is 315 members.
BATCH_BYTES = 16 << 20


def _batches(rc: RunConfig) -> List[range]:
    """Consecutive member ranges, at most ceil(size / workers) members each and
    as many as fit BATCH_BYTES (at least one)."""
    per_member = dynamics.member_bytes(build_solver_config(rc))
    size = min(math.ceil(rc.ensemble_size / rc.workers), max(1, BATCH_BYTES // per_member))
    return [range(first, min(first + size, rc.ensemble_size))
            for first in range(0, rc.ensemble_size, size)]


def _member_summary(rc: RunConfig, members: Sequence[int]) -> List[dict]:
    """One batched, streamed solve of the members (stream_id = member index)
    into their norm tables, then each member's ledger, partition and summary."""
    summaries = []
    (tables,) = diagnostics.solve_tables([build_solver_config(rc)], members)
    for member, table in zip(members, tables):
        if isinstance(table, BlowUpError):  # in the solve, or in the norm table
            summaries.append({"member": member, "failed": True, "blow_up_step": table.step})
            continue
        ledger = diagnostics.ito_ledger(table)
        part = diagnostics.partition_intervals(table, rc.eta)
        summaries.append({
            "member": member,
            "failed": False,
            "final_energy": float(ledger.energy[-1]),
            "sup_energy": float(ledger.energy.max()),
            "J": part.J,
            "ham3_final": float(ledger.ham3[-1]),
            "residual_final": float(ledger.residual[-1]),
            "residual_balanced_final": float(ledger.residual_balanced[-1]),
        })
    return summaries


def run_ensemble(rc: RunConfig) -> EnsembleReport:
    """Independent solves with stream_id = member index, in batches of
    members stepped together; deterministic for a fixed master_seed
    regardless of worker count and batch size.  Blow-ups are recorded
    per-member without aborting the ensemble."""
    check_ledger_stride(rc)
    batches = _batches(rc)
    # fork starts every requested worker at the first submit: no more than batches or CPUs
    workers = min(rc.workers, len(batches), os.cpu_count() or 1)
    if workers > 1:
        # multiprocessing, socket, subprocess and more: a serial run never loads them
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                done = list(pool.map(_member_summary, [rc] * len(batches), batches))
        except BrokenExecutor as exc:
            raise WorkerError(f"ensemble of {rc.ensemble_size} members, config "
                              f"{rc.config_hash()}: a worker process died: {exc}") from None
    else:
        done = [_member_summary(rc, batch) for batch in batches]
    members = [summary for batch in done for summary in batch]

    ok = [m for m in members if not m["failed"]]
    aggregates = {"n_members": rc.ensemble_size, "n_failed": len(members) - len(ok)}
    if ok:  # no statistics of an empty sample
        for key in ("final_energy", "sup_energy", "ham3_final", "residual_final"):
            mean, se = noise_mod.mean_and_se([m[key] for m in ok])
            aggregates[key + "_mean"] = mean
            aggregates[key + "_se"] = se
        aggregates["sup_energy_quantiles"] = diagnostics.quantile_summary(
            [m["sup_energy"] for m in ok]
        )
    provenance = {
        "config_hash": rc.config_hash(),
        "master_seed": rc.master_seed,
        "version": VERSION,
    }
    return EnsembleReport(members=members, aggregates=aggregates, provenance=provenance)


# --- convergence studies --------------------------------------------------------


def dt_levels(dt: float, exponents: Sequence[int], what: str) -> List[float]:
    """dt * 2**j for each j of exponents, exact; UsageError naming `what`
    unless each is a normal float, 2**-1022 <= dt * 2**j < 2**1024."""
    e = math.frexp(dt)[1]  # dt = m * 2**e with 0.5 <= m < 1
    if not all(-1021 <= e + j <= 1024 for j in exponents):
        raise UsageError(f"{what} takes dt = {dt!r} out of the normal floats")
    return [math.ldexp(dt, j) for j in exponents]


def convergence_study(rc: RunConfig, dt_list: Sequence[float]) -> dict:
    """Errors at t_final against the finest-dt reference run, every run on
    one Brownian path: the levels step in lockstep (dynamics.lockstep) on
    rows drawn once at the finest dt, and each keeps only its final state.
    lockstep raises UsageError for a dt that is not a whole multiple of
    the finest."""
    dts = list(dt_list)
    if len(dts) < 3:  # two levels give one error, and a slope needs two
        raise UsageError(f"an observed order needs at least 3 dt levels, got {len(dts)}")
    if any(b >= a for a, b in zip(dts, dts[1:])) or not dts[-1] > 0:
        raise UsageError("dt_list must be positive and strictly decreasing")
    for dt in dts:
        if not (dt <= rc.t_final and dynamics.is_whole(rc.t_final / dt)):  # t_final / inf is whole
            raise UsageError(f"dt = {dt} does not divide t_final = {rc.t_final}")

    base = build_solver_config(rc)
    finals = [None] * len(dts)  # u = 1 + v + Psi at t_final, per level

    def keep_final(k):
        def sink(block):
            u = 1.0 + block.v[0, -1]
            finals[k] = u if block.psi is None else u + block.psi[0, -1]
        return sink

    configs = [replace(base, dt=dt, snapshot_stride=int(round(rc.t_final / dt))) for dt in dts]
    for (failure,) in dynamics.lockstep(configs, [base.stream_id],
                                         [keep_final(k) for k in range(len(dts))]):
        if failure is not None:
            raise failure
    errors = [lattice.lebesgue_norm(lattice.ComplexField(base.grid, (u - finals[-1]).ravel()), 2.0)
              for u in finals[:-1]]
    return {
        "dts": dts,
        "errors_vs_finest": errors,
        "observed_order": observed_order(dts, errors),
        "at_round_off": bool(max(errors) < 1e-11),
    }


def observed_order(dts: Sequence[float], errors: Sequence[float]) -> float:
    """The slope of log error against log dt, errors[k] at dts[k] measured
    against the finest dt, dts[-1]."""
    dt_min = dts[-1]
    # dts too close to the reference are biased toward higher apparent order
    # (errors behave like C*(dt^p - dt_min^p)); keep dt >= 4*dt_min in the fit
    fit = [(dt, e) for dt, e in zip(dts[:-1], errors) if dt >= 4 * dt_min * (1 - 1e-9)]
    if len(fit) < 2:
        fit = list(zip(dts[:-1], errors))
    log_dt = np.log(np.asarray([f[0] for f in fit]))
    log_err = np.log(np.maximum(np.asarray([f[1] for f in fit]), 1e-300))
    return float(np.polyfit(log_dt, log_err, 1)[0]) if len(fit) > 1 else float("nan")


def residual_refinement_study(rc: RunConfig, n_halvings: int = 3) -> dict:
    """Ito-ledger residual at t_final for one fixed noise path across dt
    halvings: the levels step in lockstep on rows drawn once at the finest
    dt, each into its own norm table (diagnostics.solve_tables), so no
    level holds the path.

    Produces a discrepancy record when the literal printed drift terms fail
    to give a non-increasing |residual|; the balanced drift terms derived
    from Ito's lemma are reported alongside for arbitration.
    """
    if n_halvings < 0:
        raise UsageError(f"the number of dt halvings must be >= 0, got {n_halvings}")
    dts = dt_levels(rc.dt, range(0, -n_halvings - 1, -1), f"--halvings {n_halvings}")
    base = build_solver_config(rc)
    configs = [replace(base, dt=dt, snapshot_stride=1) for dt in dts]
    literal, balanced = [], []
    levels = diagnostics.solve_tables(configs, [base.stream_id], columns=diagnostics.LEDGER_COLUMNS)
    for (table,) in levels:
        if isinstance(table, BlowUpError):
            raise table
        ledger = diagnostics.ito_ledger(table)
        literal.append(abs(float(ledger.residual[-1])))
        balanced.append(abs(float(ledger.residual_balanced[-1])))
    lit_ok = all(b <= a * (1 + 1e-12) for a, b in zip(literal, literal[1:]))
    return {
        "dts": dts,
        "literal_residuals": literal,
        "balanced_residuals": balanced,
        "literal_non_increasing": lit_ok,
        "discrepancy": not lit_ok,
    }


def write_discrepancy_report(study: dict, path: str) -> None:
    """Text record produced when the literal drift terms do not balance."""
    lines = [
        "[energy-ledger discrepancy]",
        "literal_non_increasing = {}".format(study["literal_non_increasing"]),
        "",
        "The drift terms implemented literally (linear term with coefficient 1 on",
        "||phi||_HS(L2;H1dot)^2 + ||phi||_HS(L2;L2)^2, quadratic-variation integrand",
        "|v*|^2 + (Im v*)^2 + 4 Re v*) leave a residual that does not vanish under",
        "time-step refinement.  The empirically balancing drift for this package's",
        "increment convention (each mode's complex Gaussian has total variance dt)",
        "is half the linear term with quadratic-variation integrand",
        "|v*|^2 + 2 Re v*.  Balanced residuals are listed for comparison.",
        "",
    ]
    for dt, lit, bal in zip(study["dts"], study["literal_residuals"], study["balanced_residuals"]):
        lines.append(f"dt = {dt!r}  literal = {lit!r}  balanced = {bal!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- emission -------------------------------------------------------------------


def emit_csv(rows_or_ledger, path: str) -> None:
    """Write ledger rows (or any list of same-keyed dicts) as CSV with
    shortest round-trip decimals; idempotent overwrite."""
    if hasattr(rows_or_ledger, "csv_rows"):
        rows = rows_or_ledger.csv_rows()
    else:
        rows = list(rows_or_ledger)
    header = list(rows[0].keys()) if rows else diagnostics.EnergyLedger.CSV_COLUMNS
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(row[k])) for k in header) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write CSV to {path}: {exc}") from exc


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return "; ".join(f"{k}: {_format_value(x)}" for k, x in v.items())
    return str(v)


def write_report(report: EnsembleReport, path: str) -> None:
    lines = ["[provenance]"]
    for k, v in report.provenance.items():
        lines.append(f"{k} = {_format_value(v)}")
    lines.append("")
    lines.append("[aggregates]")
    for k, v in report.aggregates.items():
        lines.append(f"{k} = {_format_value(v)}")
    lines.append("")
    lines.append("[members]")
    for m in report.members:
        lines.append(" ".join(f"{k}={_format_value(v)}" for k, v in m.items()))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write report to {path}: {exc}") from exc


@contextlib.contextmanager
def temporary_outputs(out_dir: str, names: Sequence[str]):
    """Temporary paths in out_dir, one per output file name, as a dict by
    name: they take their names, in order, when the block ends.  When the
    block raises, or a rename fails, every temporary file and every file
    already renamed is removed, so a failed run leaves none of its outputs."""
    tmp = {name: os.path.join(out_dir, name + ".tmp") for name in names}
    made = list(tmp.values())
    try:
        yield tmp
        for name, path in tmp.items():
            os.replace(path, os.path.join(out_dir, name))
            made.append(os.path.join(out_dir, name))
    except BaseException:
        for path in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise


def ensure_output_dir(rc: RunConfig) -> str:
    os.makedirs(rc.output_dir, exist_ok=True)
    return rc.output_dir
