"""snls benchmark: three CLI workloads, end-to-end throughput, and a traced
per-module run.

    python3 snlsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each operation is one or two real CLI
invocations (``snls.cli.main`` with argv), serial, in this process.  The
run repeats operations for ``--seconds`` seconds, checks every operation's
outputs, prints a readable table and then, as its last line, one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  ``--write-reference`` records the checked outputs
for the default seed.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the reference box has 2 CPUs,
# and the benchmark measures the serial path.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
# Loose enough for a refactor held to 1e-12 relative agreement, tight
# enough that any change to the numerics shows.
RTOL, ATOL = 1e-7, 1e-14
SETUP_PROBES = 9

_NOISE_AND_DATA = """
[noise]
kind = multiplier
amplitude = 0.2
sigma = 3.0
[initial]
kind = gaussian_bump
amplitude = 0.2
width = 0.8
"""

# Why each workload exists is in README.md.
WORKLOADS = {
    "ensemble-16sq": {
        "config": "[grid]\ndim = 2\npoints_per_axis = 16\n"
                  "[time]\nscheme = direct\ndt = 2e-3\nt_final = 0.1\n" + _NOISE_AND_DATA
                  + "[ensemble]\nsize = 4\neta = 0.5\n",
        "commands": [["ensemble", "--workers", "1"]],
        "steps": 4 * 50,
        "trajectories": 4,
    },
    "converge-64sq-dpd": {
        "config": "[grid]\ndim = 2\npoints_per_axis = 64\n"
                  "[time]\nscheme = dpd\ndt = 1e-3\nt_final = 0.16\n" + _NOISE_AND_DATA,
        "commands": [["converge", "--workers", "1", "--dts", "8e-3,4e-3,2e-3,1e-3"]],
        "steps": 20 + 40 + 80 + 160,
        "trajectories": 4,
    },
    "simulate-128sq": {
        "config": "[grid]\ndim = 2\npoints_per_axis = 128\n"
                  "[time]\nscheme = direct\ndt = 2e-3\nt_final = 0.1\nsnapshot_stride = 1\n"
                  + _NOISE_AND_DATA + "[ensemble]\neta = 0.05\n"
                  "[output]\nemit_snapshots = true\n",
        "commands": [["simulate", "--workers", "1"],
                     ["partition", "--workers", "1", "--trajectory", "{out}/trajectory.bin"]],
        "steps": 50,
        "trajectories": 1,
    },
}

# setup_s is measured in a fresh interpreter so that the numpy and snls
# imports are paid in full.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import snls\n"
    "from snls import harness\n"
    "with open(sys.argv[1]) as fh:\n"
    "    rc = harness.parse_config(fh.read())\n"
    "harness.build_solver_config(rc)\n"
    "print(time.perf_counter() - t0)\n"
)


# --- output extraction and checks ------------------------------------------------

_KV = re.compile(r"^(\S+) = (\S+)$")
_NUM = r"[-+0-9.eE]+|nan|inf|-inf"


def _key_values(text: str) -> dict:
    return dict(m.groups() for m in map(_KV.match, text.splitlines()) if m)


def _extract_ensemble(stdouts, out):
    kv = _key_values(stdouts[0])
    exact = {"n_members": int(kv["n_members"]), "n_failed": int(kv["n_failed"])}
    with open(out / "ensemble_report.txt") as fh:
        js = [int(j) for j in re.findall(r"^member=.* J=(\d+)", fh.read(), re.M)]
    exact.update({f"J.member{i}": j for i, j in enumerate(js)})
    approx = {k: float(kv[k]) for k in ("final_energy_mean", "sup_energy_mean",
                                        "ham3_final_mean", "residual_final_mean")}
    return exact, approx


def _extract_converge(stdouts, out):
    text = stdouts[0]
    approx = {f"error.dt={dt}": float(e)
              for dt, e in re.findall(rf"^dt = (\S+)  error = ({_NUM})$", text, re.M)}
    approx["observed_order"] = float(_key_values(text)["observed_order"])
    return {}, approx


def _extract_simulate(stdouts, out):
    kv = _key_values(stdouts[0])
    m = re.search(r"^eta = \S+  J = (\d+)$", stdouts[1], re.M)
    x1s = [float(x) for x in re.findall(rf"x1 = ({_NUM})", stdouts[1])]
    exact = {"J.simulate": int(kv["partition_J"]), "J.partition": int(m.group(1))}
    approx = {k: float(kv[k]) for k in ("final_energy", "final_residual", "grad_L2t_L4x",
                                        "grad_L6t_L12/5x", "grad_Linft_L2x",
                                        "L6_tx_u_minus_1", "x1")}
    approx["partition_x1_max"] = max(x1s)
    approx["partition_x1_sum"] = math.fsum(x1s)
    return exact, approx


EXTRACT = {"ensemble-16sq": _extract_ensemble, "converge-64sq-dpd": _extract_converge,
           "simulate-128sq": _extract_simulate}


def check_outputs(outputs: dict, reference) -> list:
    """Problems found in one operation's outputs; empty means correct.

    With a reference (the default seed) every value must match it: exact
    entries exactly, the rest to RTOL.  Otherwise values must be finite,
    no member may fail and every partition must have an interval.  On any
    seed, partitioning the written trajectory file must give the same J as
    partitioning the trajectory in memory."""
    problems = [f"{k} = {v}" for k, v in outputs["exit"].items() if v != 0]
    if problems:
        return problems
    exact, approx = outputs["exact"], outputs["approx"]
    if exact.get("J.simulate") != exact.get("J.partition"):
        problems.append("J of the trajectory file differs from J in memory")
    if reference is not None:
        if set(exact) != set(reference["exact"]) or set(approx) != set(reference["approx"]):
            return ["output keys differ from the reference"]
        problems += [f"{k}: {v} != {reference['exact'][k]}"
                     for k, v in exact.items() if v != reference["exact"][k]]
        problems += [f"{k}: {v!r} vs {reference['approx'][k]!r}" for k, v in approx.items()
                     if not math.isclose(v, reference["approx"][k], rel_tol=RTOL, abs_tol=ATOL)]
        return problems
    problems += [f"{k} = {v} is not finite" for k, v in approx.items() if not math.isfinite(v)]
    problems += [f"n_failed = {v}" for k, v in exact.items() if k == "n_failed" and v != 0]
    problems += [f"{k} = {v}" for k, v in exact.items() if k.startswith("J") and v < 1]
    return problems


# --- one operation -----------------------------------------------------------------


def _digest(stdouts, out: Path) -> str:
    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode())
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def run_operation(cli, name: str, cfg: Path, out: Path, seed: int) -> dict:
    """Run one operation of a workload through the CLI; time it and collect
    its exit codes, checked values and an output digest."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stdouts, exits, error = [], {}, None
    t0 = time.perf_counter()
    for command in WORKLOADS[name]["commands"]:
        argv = [command[0], "--config", str(cfg), "--seed", str(seed), "--out", str(out)]
        argv += [a.format(out=out) for a in command[1:]]
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code, error = "exception", f"{command[0]}: {type(exc).__name__}: {exc}"
        exits[f"exit.{command[0]}"] = code
        stdouts.append(buf.getvalue())
        if code != 0:
            break
    wall = time.perf_counter() - t0
    outputs = {"exit": exits, "exact": {}, "approx": {}, "digest": None, "error": error}
    if all(code == 0 for code in exits.values()):
        try:
            outputs["exact"], outputs["approx"] = EXTRACT[name](stdouts, out)
        except (KeyError, ValueError, AttributeError, OSError) as exc:
            outputs["error"] = f"cannot read outputs: {type(exc).__name__}: {exc}"
        outputs["digest"] = _digest(stdouts, out)
    return {"wall": wall, "outputs": outputs}


# --- metrics -------------------------------------------------------------------------


def setup_seconds(cfg: Path, probe) -> tuple:
    """Median set-up time over SETUP_PROBES fresh interpreters, after one
    discarded interpreter that fills the bytecode and page caches.

    Returns (at the reference speed, as measured).  Each interpreter's time
    is scaled by the speed probes run just before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    before = None
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(cfg)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        after = probe()
        if before is not None:
            raw.append(float(proc.stdout.strip()))
            scaled.append(raw[-1] * 2.0 * SpeedProbe.REFERENCE_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


class SpeedProbe:
    """Times a fixed mix of small FFTs, large FFTs and interpreter work that
    uses numpy only, never snls.

    The reference box is a 2-CPU VM whose speed drifts with its neighbours'
    load: identical operations take from 1.1 s to 2.4 s, CPU time tracks
    wall time, and there is no steal time.  Throughput is scaled by this
    probe, run before and after every operation, to the box's median speed
    (REFERENCE_S), which cut the quartile spread of 20-second medians on
    ensemble-16sq from 18.5% to 4.9%.  Set-up times are scaled the same
    way."""

    REFERENCE_S = 0.054

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((16, 16)) + 0j
        self.big = rng.standard_normal((128, 128)) + 0j

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(400):
            x = np.fft.ifftn(np.fft.fftn(self.small) * 0.5)
            np.all(np.isfinite(x.view(np.float64)))
        for _ in range(20):
            np.fft.ifftn(np.fft.fftn(self.big) * np.exp(-1j * self.big.real))
        acc, table = 0, {}
        for i in range(60000):
            table[i % 97] = acc = acc + i * i
        return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np

    src_lines = 0
    for path in sorted((SRC / "snls").glob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    backend = "numpy pocketfft" if hasattr(np.fft, "_pocketfft") else "numpy.fft"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "fft_backend": backend, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "src_lines": src_lines}


def input_properties(tracers) -> dict:
    """Properties of the workload's inputs that decide which layer does the
    work; printed with the traced run, not compared between runs.  The
    snapshot bytes held are the per-layer dynamics.snapshot_bytes."""
    t = tracers[0]
    intervals = t.counts["partition_intervals"]
    return {
        "input.points_per_field": (t.counts["points_per_field"], "count"),
        "input.snapshots_per_interval": (
            t.counts["partition_snapshots"] / intervals if intervals else 0.0, "ratio"),
    }


def layer_metrics(tracers, traced_walls, plain_walls) -> dict:
    """Per-operation averages of the traced run, by metric name: (value, unit)."""
    from spans import FUNCTION_NAMES

    n = len(tracers)

    def stat(name, i):
        return sum(t.stats[name][i] for t in tracers) / n

    def count(key):
        return sum(t.counts[key] for t in tracers) / n

    m = {}
    for name in FUNCTION_NAMES:
        m[f"{name}.calls"] = (stat(name, 0), "count")
        m[f"{name}.self_s"] = (stat(name, 2), "s")
    wall = statistics.median(traced_walls)
    steps = count("steps")
    m["cli.main.s"] = (stat("cli.main", 1), "s")
    m["fft.calls"] = (stat("fft", 0), "count")
    m["fft.self_s"] = (stat("fft", 2), "s")
    m["fft.calls_per_step"] = (stat("dynamics.solve", 3) / steps if steps else 0.0, "count")
    m["fft.bytes_computed"] = (count("fft_bytes"), "B")
    m["diagnostics.partition_intervals.fft_calls"] = (
        stat("diagnostics.partition_intervals", 3), "count")
    m["diagnostics.ito_ledger.fft_calls"] = (stat("diagnostics.ito_ledger", 3), "count")
    m["diagnostics.partition_intervals.share"] = (
        stat("diagnostics.partition_intervals", 1) / statistics.mean(traced_walls), "ratio")
    snaps = count("snapshots")
    m["lattice.gradient_magnitude.calls_per_snapshot"] = (
        stat("lattice.gradient_magnitude", 0) / snaps if snaps else 0.0, "ratio")
    m["dynamics.snapshot_bytes"] = (max(t.counts["snapshot_bytes"] for t in tracers), "B")
    m["io.bytes_written"] = (count("io_bytes_written"), "B")
    m["io.bytes_read"] = (count("io_bytes_read"), "B")
    m["trace.overhead_frac"] = (wall / statistics.median(plain_walls) - 1.0, "ratio")
    m["trace.top_level_frac"] = (
        sum(t.top_level_s for t in tracers) / sum(traced_walls), "ratio")
    m["trace.spans"] = (sum(t.stats[k][0] for t in tracers for k in t.stats) / n, "count")
    return m


# --- driver ----------------------------------------------------------------------------


def measure(cli, name, cfg, out, seed, seconds, reference):
    """Untraced run.  Returns (operations, failed, end-to-end metrics, raw
    figures for the table)."""
    wl = WORKLOADS[name]
    probe = SpeedProbe()
    setup, setup_wall = setup_seconds(cfg, probe)
    probes = [probe()]
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_operation(cli, name, cfg, out, seed))
        probes.append(probe())
    failed = count_failures(ops, reference)

    # operations per second at the reference speed, and as measured
    slowness = [(a + b) / (2.0 * SpeedProbe.REFERENCE_S) for a, b in zip(probes, probes[1:])]
    good = [(f / op["wall"], 1.0 / op["wall"]) for op, f in zip(ops, slowness) if op["ok"]]
    rate = statistics.median(g[0] for g in good) if good else 0.0
    wall_rate = statistics.median(g[1] for g in good) if good else 0.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reported = {
        "steps_per_s": (wl["steps"] * rate, "1/s"),
        "members_per_s": (wl["trajectories"] * rate, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "steps_per_s_wall": (wl["steps"] * wall_rate, "1/s"),
        "setup_s_wall": (setup_wall, "s"),
        "speed_probe_s": (statistics.median(probes), "s"),
    }
    return len(ops), failed, reported, extra


def trace(cli, name, cfg, out, seed, seconds, reference):
    """Traced run: alternate untraced and traced operations.  Returns
    (operations, failed, per-layer metrics, input properties)."""
    from spans import Tracer

    ops, traced, tracers = [], [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_operation(cli, name, cfg, out, seed))
        if tracers:  # only the last operation's spans are written out
            tracers[-1].spans.clear()
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_operation(cli, name, cfg, out, seed))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    tracers[-1].write_spans(str(HERE / "out" / f"spans-{name}.jsonl"))
    failed = count_failures(ops + traced, reference)
    reported = layer_metrics(tracers, [o["wall"] for o in traced], [o["wall"] for o in ops])
    return len(ops) + len(traced), failed, reported, input_properties(tracers)


def count_failures(ops, reference) -> int:
    """Check every operation, mark it "ok" or not, and count the failures.

    Every operation of a run has the same inputs, so each must also give
    the same bytes as the first, traced or not."""
    first = next((op["outputs"]["digest"] for op in ops if op["outputs"]["digest"]), None)
    failed = 0
    for op in ops:
        o = op["outputs"]
        problems = [o["error"]] if o["error"] else check_outputs(o, reference)
        if not problems and o["digest"] != first:
            problems = ["outputs differ from the run's first operation"]
        op["ok"] = not problems
        if problems:
            failed += 1
            print(f"failed operation: {'; '.join(problems)}", file=sys.stderr)
    return failed


def write_reference(cli, work: Path) -> int:
    ref = {}
    for name in WORKLOADS:
        (work / name).mkdir()
        cfg = work / name / "workload.cfg"
        cfg.write_text(WORKLOADS[name]["config"])
        outputs = run_operation(cli, name, cfg, work / name / "out", DEFAULT_SEED)["outputs"]
        problems = [outputs["error"]] if outputs["error"] else check_outputs(outputs, None)
        if problems:
            print(f"{name}: {'; '.join(problems)}", file=sys.stderr)
            return 2
        ref[name] = {"seed": DEFAULT_SEED, "exact": outputs["exact"],
                     "approx": outputs["approx"]}
        shutil.rmtree(work / name)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _print_table(name, seed, attempted, failed, metrics, env):
    print(f"workload {name}  seed {seed}  operations {attempted}  failed {failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:48s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':48s} {failed / attempted:>16.6g} ratio")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record the checked outputs of every workload at the default seed")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    if not (SRC / "snls" / "__init__.py").is_file():
        print(f"snls sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from snls import cli

    work = HERE / "out"
    work.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference(cli, work)

    name = args.workload
    reference = None
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[name]
    run_dir = work / f"{name}-{os.getpid()}"
    run_dir.mkdir()
    try:
        cfg = run_dir / "workload.cfg"
        cfg.write_text(WORKLOADS[name]["config"])
        run = trace if args.trace else measure
        attempted, failed, reported, extra = run(cli, name, cfg, run_dir / "out", args.seed,
                                                 args.seconds, reference)
        _print_table(name, args.seed, attempted, failed, {**reported, **extra}, environment())
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
