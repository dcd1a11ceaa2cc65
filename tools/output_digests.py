"""Digests of every CLI output over a fixed matrix of runs, one line a run.

    PYTHONPATH=src python tools/output_digests.py

The matrix is 112 runs of snls.cli.main: 2-d 16^2 and 4-d 8^4 grids, each
of the four schemes, zero or multiplier noise, and for each of these 16
configs seven runs: simulate (snapshots written), partition of its
trajectory.bin, ensemble with --workers 1 and 2, verify-energy --halvings 2,
a 3-level converge, and noise-stats.  Every run writes into its own folder
of one temporary directory.

Each line holds the run's tag, its argv, its exit code, and the first 16
hex digits of the sha256 of its stdout, of its stderr and of each file it
wrote, in name order.  The temporary directory's path is replaced by <tmp>
in argv, stdout and stderr, so the lines do not depend on where it is made.
A run that raises past cli.main is recorded by its exception type.

The snls it runs is the one on the import path, so the output of two trees
can be compared by running this script under each tree's src and diffing
the two listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import tempfile

from snls import cli

GRIDS = {"16sq": (2, 16), "8e4": (4, 8)}
SCHEMES = ("direct", "dpd", "deterministic_gp", "deterministic_cubic")
NOISES = ("zero", "multiplier")

CONFIG = """[grid]
dim = {dim}
points_per_axis = {n}
[time]
scheme = {scheme}
dt = 0.005
t_final = 0.04
[noise]
kind = {noise}
amplitude = 0.3
sigma = 3.5
[initial]
kind = gaussian_bump
amplitude = 0.2
width = 0.8
[ensemble]
size = 4
master_seed = 3
eta = 0.05
[output]
dir = {out}
emit_snapshots = true
"""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run(argv: list, tmp: str) -> str:
    """One cli.main run: its exit code and the digests of its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # a traceback is an outcome to compare too
            code = type(exc).__name__
    stdout, stderr = (s.getvalue().replace(tmp, "<tmp>").encode() for s in (out, err))
    return f"exit={code} stdout={digest(stdout)} stderr={digest(stderr)}"


def files(folder: str) -> str:
    if not os.path.isdir(folder):
        return ""
    names = sorted(os.listdir(folder))
    return " ".join(f"{name}={digest(open(os.path.join(folder, name), 'rb').read())}"
                    for name in names)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for (grid, (dim, n)), scheme, noise in itertools.product(GRIDS.items(), SCHEMES, NOISES):
            config = f"{grid}-{scheme}-{noise}"
            cfgfile = os.path.join(tmp, config + ".cfg")
            sim_out = os.path.join(tmp, config, "simulate")
            with open(cfgfile, "w") as fh:
                fh.write(CONFIG.format(dim=dim, n=n, scheme=scheme, noise=noise, out=sim_out))
            runs = {
                "simulate": ["simulate"],
                "partition": ["partition", "--trajectory", os.path.join(sim_out, "trajectory.bin")],
                "ensemble-w1": ["ensemble", "--workers", "1"],
                "ensemble-w2": ["ensemble", "--workers", "2"],
                "verify-energy": ["verify-energy", "--halvings", "2"],
                "converge": ["converge", "--levels", "3"],
                "noise-stats": ["noise-stats"],
            }
            for name, args in runs.items():
                out = sim_out if name == "simulate" else os.path.join(tmp, config, name)
                argv = [args[0], "--config", cfgfile, "--out", out] + args[1:]
                line = run(argv, tmp)
                shown = " ".join(argv).replace(tmp, "<tmp>")
                print(f"{config}/{name}  [{shown}]  {line}  {files(out)}".rstrip(), flush=True)

if __name__ == "__main__":
    main()
