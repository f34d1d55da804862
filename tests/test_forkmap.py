"""Independent jobs split across forked workers (ncl3d.forkmap) and the
delay-insensitivity check that runs its trials that way.

The split must not show: ``fork_map(fn, jobs)`` returns what ``fn(jobs)``
does, and ``check_delay_insensitivity`` returns the report of the serial
trial loop it replaced (kept below as the reference).  No fixture fails a
random trial without failing the unit-delay baseline first, so failures
are injected by wrapping ``ncl3d.sim.simulate`` and picking trials by
their delays, drawn from the same ``random.Random(seed)`` stream.  Every
test also checks that no child process is left behind.
"""
import os
import random
import threading
import time

import pytest

from ncl3d import forkmap, sim
from ncl3d.forkmap import fork_map
from ncl3d.pipeline import build_pipeline
from ncl3d.sim import DelayAssignment, DIReport, SimulationError, check_delay_insensitivity
from ncl3d.synth import build_array_multiplier

VECTORS = [15, 6, 9, 0]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs fork_map sees (2 by default, on any host)."""
    def use(n):
        monkeypatch.setattr(forkmap, "usable_cpus", lambda: n)
    use(2)
    return use


@pytest.fixture(scope="module")
def system():
    return build_pipeline(build_array_multiplier(2))


def serial_reference(system, vectors, n_trials, seed):
    """check_delay_insensitivity as one trial after another, drawing each
    assignment just before its trial."""
    rng = random.Random(seed)
    names = [g.name for g in system.netlist.gates]
    try:
        baseline = sim.simulate(system, vectors)
    except SimulationError as err:
        return DIReport(False, 0, (), DelayAssignment(), f"baseline run failed: {err}")
    expect = tuple(baseline.words())
    for trial in range(n_trials):
        assignment = DelayAssignment.uniform_random(names, rng)
        try:
            got = tuple(sim.simulate(system, vectors, assignment).words())
        except SimulationError as err:
            return DIReport(False, trial + 1, expect, assignment, f"trial {trial}: {err}")
        if got != expect:
            return DIReport(False, trial + 1, expect, assignment,
                            f"trial {trial}: outputs {got} != {expect}")
    return DIReport(True, n_trials, expect)


class Words:
    def __init__(self, words):
        self._words = words

    def words(self):
        return list(self._words)


def inject(monkeypatch, system, n_trials, seed, failures):
    """Wrap sim.simulate so that trial k in ``failures`` fails as its entry
    says: "raise" a SimulationError, or "words" off by one.  Trials are
    recognised by their delays."""
    rng = random.Random(seed)
    names = [g.name for g in system.netlist.gates]
    drawn = [DelayAssignment.uniform_random(names, rng).per_gate for _ in range(n_trials)]
    real = sim.simulate

    def simulate(system, data_vectors, delays=None, max_events=None):
        trace = real(system, data_vectors, delays, max_events)
        if delays is None:
            return trace
        hits = [k for k, per in enumerate(drawn) if per == delays.per_gate and k in failures]
        if not hits:
            return trace
        if failures[hits[0]] == "raise":
            raise SimulationError(f"injected failure for trial {hits[0]}")
        return Words([w + 1 for w in trace.words()])

    monkeypatch.setattr(sim, "simulate", simulate)


@pytest.mark.parametrize("n_trials,failures", [
    (8, {}),
    (8, {2: "raise"}),                     # first chunk only
    (8, {6: "words"}),                     # a later chunk only
    (8, {1: "words", 5: "raise"}),         # both chunks
    (8, {3: "raise", 4: "words"}),         # the last trial of chunk 0, the first of chunk 1
    (1, {0: "raise"}),
    (7, {5: "words"}),
    (7, {}),
], ids=str)
def test_di_first_failure_survives_the_split(monkeypatch, cpus, system, n_trials, failures):
    inject(monkeypatch, system, n_trials, 5, failures)
    got = check_delay_insensitivity(system, VECTORS, n_trials=n_trials, seed=5)
    want = serial_reference(system, VECTORS, n_trials, 5)
    assert got == want
    assert got.passed == (not failures)
    if failures:
        assert got.n_trials == min(failures) + 1


@pytest.mark.parametrize("n", [3, 4])
def test_di_first_failure_with_more_chunks(monkeypatch, cpus, system, n):
    cpus(n)
    inject(monkeypatch, system, 9, 2, {4: "words", 8: "raise"})
    assert (check_delay_insensitivity(system, VECTORS, n_trials=9, seed=2)
            == serial_reference(system, VECTORS, 9, 2))


def test_a_failing_child_is_recomputed_in_the_parent(monkeypatch, cpus, system):
    want = serial_reference(system, VECTORS, 6, 4)
    parent = os.getpid()
    real = sim.simulate

    def child_only_bug(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("worker-only fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "simulate", child_only_bug)
    assert check_delay_insensitivity(system, VECTORS, n_trials=6, seed=4) == want


def test_a_bug_in_the_parents_chunk_propagates_unchanged(monkeypatch, cpus, system):
    parent = os.getpid()
    real = sim.simulate

    def parent_bug(system, data_vectors, delays=None, max_events=None):
        if delays is not None and os.getpid() == parent:
            raise RuntimeError("injected bug")
        return real(system, data_vectors, delays, max_events)

    monkeypatch.setattr(sim, "simulate", parent_bug)
    with pytest.raises(RuntimeError) as err:
        check_delay_insensitivity(system, VECTORS, n_trials=6, seed=4)
    assert type(err.value) is RuntimeError and str(err.value) == "injected bug"


def test_a_bug_in_a_childs_chunk_is_raised_by_the_parent(monkeypatch, cpus, system):
    real = sim.simulate
    rng = random.Random(4)
    names = [g.name for g in system.netlist.gates]
    last = [DelayAssignment.uniform_random(names, rng) for _ in range(6)][-1]

    def late_bug(system, data_vectors, delays=None, max_events=None):
        if delays == last:
            raise KeyError("trial 5")
        return real(system, data_vectors, delays, max_events)

    monkeypatch.setattr(sim, "simulate", late_bug)
    with pytest.raises(KeyError, match="trial 5"):
        check_delay_insensitivity(system, VECTORS, n_trials=6, seed=4)


def pids(chunk):
    return [os.getpid()] * len(chunk)


def test_later_chunks_run_in_children(cpus):
    cpus(3)
    got = fork_map(pids, list(range(7)))
    assert got[:2] == [os.getpid()] * 2
    assert len(set(got[2:4])) == 1 and len(set(got[4:])) == 1
    assert len({got[0], got[2], got[4]}) == 3


def test_one_cpu_or_a_live_thread_runs_serially(monkeypatch, cpus, system):
    jobs = list(range(6))
    cpus(1)
    assert fork_map(pids, jobs) == [os.getpid()] * 6
    cpus(2)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert fork_map(pids, jobs) == [os.getpid()] * 6
        inject(monkeypatch, system, 6, 8, {4: "raise"})
        assert (check_delay_insensitivity(system, VECTORS, n_trials=6, seed=8)
                == serial_reference(system, VECTORS, 6, 8))
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def test_fewer_than_two_jobs_or_no_fork_runs_serially(monkeypatch, cpus):
    assert fork_map(pids, []) == []
    assert fork_map(pids, [1]) == [os.getpid()]

    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map(pids, list(range(4))) == [os.getpid()] * 4
    monkeypatch.delattr(os, "fork")
    assert fork_map(pids, list(range(4))) == [os.getpid()] * 4


@pytest.mark.parametrize("last", [3, 7])
def test_an_early_stop_drops_the_later_chunks(cpus, last):
    def until_last(chunk):
        out = []
        for job in chunk:
            out.append(job)
            if job == last:
                break
        return out

    jobs = list(range(10))
    assert fork_map(until_last, jobs) == until_last(jobs) == list(range(last + 1))


def test_results_larger_than_a_pipe_buffer(cpus):
    def big(chunk):
        return [str(job) * 100_000 for job in chunk]

    jobs = list(range(1, 5))
    assert fork_map(big, jobs) == big(jobs)


def test_an_interrupt_in_the_parent_kills_and_reaps_the_children(cpus):
    parent = os.getpid()

    def slow_children(chunk):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)
        return chunk

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(slow_children, list(range(4)))
    assert time.monotonic() - start < 10
