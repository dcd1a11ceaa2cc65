"""Probes for CI's fresh-process rows and memory checks: programs run with `python -c`
in a fresh interpreter under one tree's src, whose last printed line holds their numbers."""

import os
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# cli.main with sys.argv[1:], printing its wall time, its minor page faults
# (ru_minflt) and the process's peak RSS in MB (ru_maxrss).  The fault count
# hangs on heap layout: before the step loop held its work, a probe that read
# the clock and the count in one tuple assignment read 11,455 faults where
# this one read 23,114.  So the lines around cli.main stay as they were when
# the CI rows' counts were measured.
CLI = ("import resource, sys, time\nfrom snls import cli\nt0 = time.perf_counter()\n"
       "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\ncode = cli.main(sys.argv[1:])\n"
       "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults\n"
       "print(time.perf_counter() - t0, faults, "
       "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\nsys.exit(code)")

CONFIG = ("[grid]\ndim = {}\npoints_per_axis = {}\n[time]\nscheme = {}\ndt = {}\nt_final = {}\n"
          "[noise]\nkind = multiplier\namplitude = {}\nsigma = {}\n[initial]\nkind = gaussian_bump\n"
          "amplitude = 0.2\nwidth = 0.8\n[ensemble]\nsize = {}\n[output]\ndir = {}\nemit_snapshots = {}\n")


def config(directory, name, *fields, size=1, snapshots="false"):
    """Write directory/name.cfg, whose run writes into directory/name, and return its
    path; fields are dim, points per axis, scheme, dt, t_final, noise amplitude, sigma."""
    path = os.path.join(directory, name + ".cfg")
    with open(path, "w") as fh:
        fh.write(CONFIG.format(*fields, size, os.path.join(directory, name), snapshots))
    return path


def run(src, code, argv):
    """The numbers on the last line that code prints, run with argv in a fresh
    interpreter on src; a non-zero exit raises RuntimeError with its stderr."""
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    if proc.returncode:
        raise RuntimeError(f"probe {argv} under {src} exited {proc.returncode}:\n{proc.stderr}")
    return [float(word) for word in proc.stdout.splitlines()[-1].split()]


def against_parent(rows, parent):
    """Print a markdown table of each row's medians under HEAD^ (the tree at parent,
    made a git worktree when missing) and this tree.  A row is (title, rounds, format,
    probes): the trees alternate, HEAD^ first, over a warm-up round and the row's
    rounds, each running every probe (code, argv); format takes the medians."""
    if not os.path.isdir(parent):
        subprocess.run(["git", "worktree", "add", "--detach", parent, "HEAD^"],
                       cwd=os.path.dirname(SRC), stdout=subprocess.DEVNULL, check=True)
    trees = {"HEAD^": os.path.join(parent, "src"), "HEAD": SRC}
    print("### Fresh-process rows, HEAD^ against HEAD\n\n| row | tree | runs | medians |\n|---|---|---|---|")
    for title, rounds, fmt, probes in rows:
        runs = {name: [] for name in trees}
        for _ in range(1 + rounds):
            for name, src in trees.items():
                runs[name].append([x for code, argv in probes for x in run(src, code, argv)])
        for name, got in runs.items():
            print(f"| {title} | {name} | {rounds} | {fmt.format(*map(statistics.median, zip(*got[1:])))} |")
