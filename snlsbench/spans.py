"""In-memory span tracer that times calls into snls from outside the package.

Every cross-module call in ``snls`` goes through a module attribute
(``lattice.apply_schrodinger_group``, ``dynamics.solve``,
``np.fft.fftn``), and same-module calls go through the module globals, so
replacing those attributes with timing wrappers records a span at each
layer boundary without editing the package.  ``Tracer.install`` swaps the
wrappers in and ``Tracer.uninstall`` puts the original functions back.

Spans are kept in memory: an open-span stack while the program runs and a
flat list of finished spans ``[name, parent_id, start, end]``.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

from snls import cli, diagnostics, dynamics, harness, lattice, noise

# (module, attribute) pairs wrapped by the traced run; the span name is
# "<module>.<attribute>" with the package prefix dropped.
TRACED = [
    (noise, "step_rng"),
    (noise, "sample_wiener_increment"),
    (noise, "step_stochastic_convolution"),
    (noise, "generate_noise_path"),
    (noise, "coarsen_noise_path"),
    (noise, "write_noise_path"),
    (lattice, "apply_schrodinger_group"),
    (lattice, "gradient_magnitude"),
    (lattice, "laplacian"),
    (lattice, "spacetime_norm"),
    (lattice, "x1_norm"),
    (dynamics, "solve"),
    (dynamics, "strang_step_dpd"),
    (dynamics, "nonlinear_phase_substep"),
    (dynamics, "write_trajectory"),
    (dynamics, "read_trajectory"),
    (diagnostics, "energy"),
    (diagnostics, "ito_ledger"),
    (diagnostics, "partition_intervals"),
    (diagnostics, "strichartz_report"),
    (harness, "parse_config"),
    (harness, "build_solver_config"),
    (harness, "run_ensemble"),
    (harness, "convergence_study"),
    (harness, "emit_csv"),
    (harness, "write_report"),
    (cli, "main"),
]
FFT_FUNCS = ("fftn", "ifftn")
FUNCTION_NAMES = [f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, a in TRACED]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _snapshot_bytes(traj) -> int:
    """Bytes of the distinct snapshot arrays a trajectory holds."""
    arrays = {id(f.values): f.values.nbytes for f in traj.v_snapshots}
    arrays.update({id(f.values): f.values.nbytes for f in traj.psi_snapshots})
    return sum(arrays.values())


def _after_solve(tr, args, kwargs, traj):
    tr.counts["steps"] += _arg(args, kwargs, 0, "config").n_steps
    tr.counts["snapshots"] += traj.n_snapshots
    tr.counts["snapshot_bytes"] = max(tr.counts["snapshot_bytes"], _snapshot_bytes(traj))
    tr.counts["points_per_field"] = traj.grid.total_points


def _after_read(tr, args, kwargs, traj):
    tr.counts["snapshots"] += traj.n_snapshots
    tr.counts["io_bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "filename"))


def _written(index, name):
    def hook(tr, args, kwargs, _result):
        tr.counts["io_bytes_written"] += os.path.getsize(_arg(args, kwargs, index, name))

    return hook


def _after_partition(tr, args, kwargs, part):
    tr.counts["partition_snapshots"] += len(_arg(args, kwargs, 0, "traj").times)
    tr.counts["partition_intervals"] += part.J


def _after_fft(tr, args, kwargs, _result):
    # computed, not measured: one complex128 input and output per point
    tr.counts["fft_bytes"] += 2 * 16 * np.size(_arg(args, kwargs, 0, "a"))


AFTER = {
    "fft": _after_fft,
    "dynamics.solve": _after_solve,
    "dynamics.read_trajectory": _after_read,
    "dynamics.write_trajectory": _written(1, "filename"),
    "noise.write_noise_path": _written(1, "filename"),
    "harness.emit_csv": _written(1, "path"),
    "harness.write_report": _written(1, "path"),
    "diagnostics.partition_intervals": _after_partition,
}


class Tracer:
    """Collects spans and per-name totals for the calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, parent_id, start, end]
        self._stack = []  # open frames: [span_id, child_s, fft_calls]
        # name -> [calls, total_s, self_s, fft_calls made inside the span]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in FUNCTION_NAMES + ["fft"]}
        self.counts = dict.fromkeys(
            ("steps", "snapshots", "snapshot_bytes", "points_per_field", "io_bytes_read",
             "io_bytes_written", "partition_snapshots", "partition_intervals",
             "fft_bytes"), 0)
        self.top_level_s = 0.0  # total duration of spans with no parent
        self._saved = []

    def _wrap(self, fn, name, after=None):
        spans, stack, stats = self.spans, self._stack, self.stats
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span_id = len(spans)
            spans.append([name, stack[-1][0] if stack else -1, clock(), 0.0])
            stack.append([span_id, 0.0, 1 if name == "fft" else 0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span = spans[span_id]
                span[3] = end
                _, child_s, ffts = stack.pop()
                dur = end - span[2]
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child_s
                st[3] += ffts
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += ffts
                else:
                    self.top_level_s += dur
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return timed

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(m, a, name) for (m, a), name in zip(TRACED, FUNCTION_NAMES)]
        targets += [(np.fft, f, "fft") for f in FFT_FUNCS]
        for module, attr, name in targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, AFTER.get(name)))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent id (-1 at top level), name,
        start and end in seconds from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0}) + "\n")
