"""The consumer thread of a one-level lockstep whose snapshot over the
members tops lattice.BLOCK_BYTES: its sinks run there, in block order, one
at a time, on blocks no later step overwrites, with the serial path's bits
and failures, and no thread outlives the call."""

import copy
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from snls import dynamics, lattice, noise
from snls.errors import BlowUpError
from snls.lattice import make_grid


def config(scheme="direct", n=16, amplitude=0.2, dt=0.005, t_final=0.1):
    g = make_grid(2, n, 2.0 * np.pi)
    return dynamics.SolverConfig(
        grid=g, t_final=t_final, dt=dt, scheme=scheme, noise=noise.multiplier_noise(g, amplitude, 3.0),
        initial_v=dynamics.initial_gaussian_bump(g, 0.2, 0.8), master_seed=3, stream_id=1)


def pipelined(monkeypatch, cfg, members=1):
    """Blocks of one snapshot, on the thread: BLOCK_BYTES is one snapshot's
    rows over the members."""
    monkeypatch.setattr(lattice, "BLOCK_BYTES", members * cfg.grid.total_points * 16)


def kept(blocks: list):
    return lambda block: blocks.append(copy.deepcopy(block))


ARRAYS = ("v", "psi", "dw_hat", "v_hat", "psi_hat")


@pytest.mark.parametrize("scheme", ["direct", "dpd"])
def test_a_slow_sink_reads_blocks_nothing_overwrites(monkeypatch, scheme):
    cfg = config(scheme)
    pipelined(monkeypatch, cfg, 2)
    seen, threads = [], set()

    def slow(block):
        before = {name: np.copy(getattr(block, name)) for name in ARRAYS
                  if getattr(block, name) is not None}
        dw = np.copy(block.dw) if block.dw_hat is not None else None
        time.sleep(0.005)  # the stepper runs on meanwhile
        for name, a in before.items():
            assert getattr(block, name).tobytes() == a.tobytes(), (block.start, name)
        assert dw is None or block.dw.tobytes() == dw.tobytes()
        seen.append(block.start)
        threads.add(threading.get_ident())

    count = threading.active_count()
    assert dynamics.lockstep([cfg], [1, 2], [slow]) == [[None, None]]
    assert seen == list(range(cfg.n_snapshots))
    assert len(threads) == 1 and threading.get_ident() not in threads
    assert threading.active_count() == count


def bounded(call, seconds=60.0):
    """call() on a thread of its own under a short switch interval, which
    makes the stepper and the consumer trade the interpreter often; fails
    when it has not returned after seconds."""
    result, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: result.append(call()), daemon=True)
        caller.start()
        caller.join(seconds)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(result) == 1
    return result[0]


@pytest.mark.parametrize("scheme", ["direct", "dpd", "deterministic_gp"])
def test_blocks_have_the_serial_bits(monkeypatch, scheme):
    # one snapshot's rows less one byte: the same blocks of one snapshot,
    # stepped serially
    cfg = config(scheme)
    got = {}
    for slack in (1, 0):
        monkeypatch.setattr(lattice, "BLOCK_BYTES", 2 * cfg.grid.total_points * 16 - slack)
        got[slack] = []
        assert bounded(lambda: dynamics.lockstep([cfg], [1, 2], [kept(got[slack])])) == [[None, None]]
    assert len(got[0]) == len(got[1]) == cfg.n_snapshots
    for serial, threaded in zip(got[1], got[0]):
        for name in ARRAYS:
            a, b = getattr(serial, name), getattr(threaded, name)
            assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes()), name


def sink_threads(configs, stream_ids):
    threads = set()
    sinks = [lambda block: threads.add(threading.get_ident()) for _ in configs]
    count = threading.active_count()
    dynamics.lockstep(configs, stream_ids, sinks)
    assert threading.active_count() == count
    return threads


def test_levels_and_small_fields_run_their_sinks_on_the_caller(monkeypatch):
    cfg = config("dpd")
    caller = {threading.get_ident()}
    assert sink_threads([cfg], [1]) == caller  # 4 KiB rows: serial
    pipelined(monkeypatch, cfg)
    assert sink_threads([cfg, replace(cfg, dt=0.01)], [1]) == caller
    assert sink_threads([cfg], [1]) != caller


@pytest.mark.parametrize("raised_on", [0, 3, 20])
def test_a_sink_error_ends_lockstep(monkeypatch, raised_on):
    cfg = config()
    pipelined(monkeypatch, cfg)
    seen = []

    def sink(block):
        seen.append(block.start)
        if block.start == raised_on:
            raise OSError(28, "No space left on device")

    count = threading.active_count()
    with pytest.raises(OSError) as exc:
        dynamics.lockstep([cfg], [1], [sink])
    assert str(exc.value) == "[Errno 28] No space left on device"
    assert seen == list(range(raised_on + 1))  # no later block reached the sink
    assert threading.active_count() == count


def test_an_interrupt_joins_the_thread(monkeypatch):
    cfg = config()
    pipelined(monkeypatch, cfg)
    draw = noise.member_rows

    def interrupted(*args):
        for j, row in enumerate(draw(*args)):
            if j == 5:
                raise KeyboardInterrupt
            yield row

    monkeypatch.setattr(noise, "member_rows", interrupted)
    count, seen = threading.active_count(), []
    with pytest.raises(KeyboardInterrupt):
        dynamics.lockstep([cfg], [1], [lambda block: seen.append(block.start)])
    assert seen == list(range(5))  # the blocks of one snapshot, each with its step's row
    assert threading.active_count() == count


@pytest.mark.parametrize("scheme, amplitude", [("direct", 1e160), ("dpd", 1e308)])
def test_members_that_all_blow_up_fail_as_when_serial(monkeypatch, scheme, amplitude):
    cfg = config(scheme, amplitude=amplitude)
    failures, starts = {}, {}
    for slack in (1, 0):
        monkeypatch.setattr(lattice, "BLOCK_BYTES", 3 * cfg.grid.total_points * 16 - slack)
        starts[slack] = []
        count = threading.active_count()
        with np.errstate(over="ignore", invalid="ignore"):
            (failures[slack],) = dynamics.lockstep([cfg], [0, 1, 2],
                                                   [lambda block: starts[slack].append(block.start)])
        assert threading.active_count() == count
    assert all(isinstance(f, BlowUpError) for f in failures[0])
    assert [str(f) for f in failures[0]] == [str(f) for f in failures[1]]
    assert starts[0] == starts[1] and len(starts[0]) < cfg.n_snapshots


def test_one_level_hands_blocks_in_two_alternating_sets(monkeypatch):
    # test_lockstep_hands_blocks_in_held_arrays at one level: the
    # coefficient and noise rows alternate between two arrays each, the
    # physical rows and dw stay in one held array each
    cfg = config("dpd")
    pipelined(monkeypatch, cfg)
    bases = {name: [] for name in ("v", "dw", "v_hat", "psi_hat", "dw_hat")}

    def take(block):
        for name, seen in bases.items():
            if name != "dw_hat" or block.dw_hat.shape[1]:
                seen.append(id(getattr(block, name).base))

    assert dynamics.lockstep([cfg], [1], [take]) == [[None]]
    assert len(set(bases["v"])) == len(set(bases["dw"])) == 1
    for name in ("v_hat", "psi_hat", "dw_hat"):
        seen = bases[name]
        assert seen[0] != seen[1] and seen == (seen[:2] * len(seen))[:len(seen)], name


def test_sinks_run_in_the_callers_errstate(monkeypatch):
    cfg = config()
    pipelined(monkeypatch, cfg)

    def overflows(block):
        return np.float64(1e308) * 10.0

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        dynamics.lockstep([cfg], [1], [overflows])
