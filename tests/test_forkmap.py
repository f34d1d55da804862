"""Independent jobs shared out among forked workers (ncl3d.forkmap), the
delay-insensitivity check that runs its trials that way, and
multiplier-demo, which runs all its simulations in one such round.

Workers take one job at a time, so which process runs which job varies
from run to run, and none of it may show: ``fork_map(jobs)`` returns
what the serial loop over every job returns (``serial_loop`` below), and
``check_delay_insensitivity`` returns the report of the serial trial loop
it replaced (``serial_reference``), whose unit-delay baseline it still
runs first, on its own.  multiplier-demo runs one simulation per delay
assignment: the 2D and M3D evaluations and the trials, which must match
the 2D words on the same vectors, words the demo checks against the
products.  A job that raises stops no worker: every job runs.  Where a
test needs one worker held on a job, the job waits on a pipe that
another job writes, rather than on a clock.  No fixture fails a random
trial without failing the unit-delay baseline first, so failures are
injected by wrapping ``ncl3d.sim.simulate`` and picking trials by their
delays, drawn from the same ``random.Random(seed)`` stream.  Every test
also checks that no child process is left behind.
"""
import json
import marshal
import mmap
import os
import random
import select
import signal
import threading
import time
from contextlib import contextmanager
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl3d import forkmap, sim
from ncl3d.cli import main
from ncl3d.forkmap import fork_map
from ncl3d.pipeline import build_pipeline
from ncl3d.sim import DelayAssignment, DIReport, SimulationError, check_delay_insensitivity
from ncl3d.synth import build_array_multiplier
from test_pipeline_sim import broken_cl

VECTORS = [15, 6, 9, 0]


pytestmark = pytest.mark.usefixtures("no_child_left")


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


def drawn_delays(system, n_trials, seed):
    """The per-gate delays of the trials, drawn as di_trials draws them."""
    rng = random.Random(seed)
    names = [g.name for g in system.netlist.gates]
    return [DelayAssignment.uniform_random(names, rng).per_gate for _ in range(n_trials)]


def count_simulations(monkeypatch):
    """Wrap sim.simulate; the returned list gets the delays of each call."""
    calls = []
    real = sim.simulate

    def simulate(system, data_vectors, delays=None, max_events=None):
        calls.append(delays)
        return real(system, data_vectors, delays, max_events)

    monkeypatch.setattr(sim, "simulate", simulate)
    return calls


def inject(monkeypatch, system, n_trials, seed, failures):
    """Wrap sim.simulate so that trial k in ``failures`` fails as its entry
    says: "raise" a SimulationError, or "words" off by one.  Trials are
    recognised by their delays."""
    drawn = drawn_delays(system, n_trials, seed)
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
    (8, {2: "raise"}),                     # an early trial
    (8, {6: "words"}),                     # a late trial
    (8, {1: "words", 5: "raise"}),         # two failures, far apart
    (8, {3: "raise", 4: "words"}),         # two failures in a row, likely in two workers
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
    """With more workers than cores as well."""
    cpus(n)
    inject(monkeypatch, system, 9, 2, {4: "words", 8: "raise"})
    assert (check_delay_insensitivity(system, VECTORS, n_trials=9, seed=2)
            == serial_reference(system, VECTORS, 9, 2))


def test_no_trials_is_refused_before_any_simulation(monkeypatch, system):
    calls = count_simulations(monkeypatch)
    with pytest.raises(ValueError, match="n_trials must be at least 1"):
        check_delay_insensitivity(system, VECTORS, n_trials=0)
    assert calls == []


def test_a_failed_baseline_runs_no_trial(monkeypatch, cpus):
    """The unit-delay baseline runs on its own before the trials."""
    broken = build_pipeline(broken_cl(), 1)
    want = serial_reference(broken, [3, 1], 5, 3)
    calls = count_simulations(monkeypatch)
    report = check_delay_insensitivity(broken, [3, 1], n_trials=5, seed=3)
    assert report == want
    assert report.n_trials == 0 and report.detail.startswith("baseline run failed: ")
    assert calls == [None]


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
    """The parent's own trial raises; the child's first trial waits for
    that, so the parent is sure to take one."""
    parent = os.getpid()
    real = sim.simulate
    gate_r, gate_w = os.pipe()

    def parent_bug(system, data_vectors, delays=None, max_events=None):
        if delays is not None and os.getpid() == parent:
            os.write(gate_w, b"x")
            raise RuntimeError("injected bug")
        if delays is not None:
            select.select([gate_r], [], [], 10)
        return real(system, data_vectors, delays, max_events)

    monkeypatch.setattr(sim, "simulate", parent_bug)
    try:
        with pytest.raises(RuntimeError) as err:
            check_delay_insensitivity(system, VECTORS, n_trials=6, seed=4)
    finally:
        os.close(gate_r)
        os.close(gate_w)
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


def test_jobs_run_in_the_parent_and_every_child(cpus):
    """Three workers, three jobs that each wait until all three have
    started: each runs in a process of its own, one of them the parent,
    and the results come back in job order."""
    cpus(3)

    def meet(here, k):
        here[k] = 1
        deadline = time.monotonic() + 10
        while here[:] != b"\x01" * 3 and time.monotonic() < deadline:
            time.sleep(0.001)
        return k, os.getpid()

    with mmap.mmap(-1, 3) as here:            # shared with the children
        got = fork_map([partial(meet, here, k) for k in range(3)])
    assert [k for k, _ in got] == [0, 1, 2]
    assert len({pid for _, pid in got}) == 3 and os.getpid() in {pid for _, pid in got}


def test_a_long_first_job_does_not_hold_back_the_others(cpus):
    """The first job waits until the last has run, which only the other
    worker can do, so that worker runs every short job."""
    gate_r, gate_w = os.pipe()

    def long():
        select.select([gate_r], [], [], 10)
        return os.getpid()

    def last():
        os.write(gate_w, b"x")
        return os.getpid()

    try:
        got = fork_map([long] + [os.getpid] * 8 + [last])
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert len(set(got[1:])) == 1 and got[0] != got[1]
    assert os.getpid() in (got[0], got[1])


def test_one_cpu_or_a_live_thread_runs_serially(monkeypatch, cpus, system):
    jobs = [os.getpid] * 6
    cpus(1)
    assert fork_map(jobs) == [os.getpid()] * 6
    cpus(2)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert fork_map(jobs) == [os.getpid()] * 6
        inject(monkeypatch, system, 6, 8, {4: "raise"})
        assert (check_delay_insensitivity(system, VECTORS, n_trials=6, seed=8)
                == serial_reference(system, VECTORS, 6, 8))
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def test_a_job_that_calls_fork_map_gets_the_serial_result(cpus, forks):
    """Rounds never nest: inside a job, in the parent or in a child,
    processes() is 1 and fork_map runs its jobs in that process.  Only the
    outer round forks."""
    def nested(k):
        return forkmap.processes(), fork_map([os.getpid, partial(pow, k, 2)])

    got = fork_map([partial(nested, k) for k in range(4)])
    assert [(n, inner[1]) for n, inner in got] == [(1, k * k) for k in range(4)]
    assert forks() == 1
    assert forkmap.processes() == 2


def both_started(here, k):
    """Mark job k started and wait until jobs 0 and 1 both have, so that
    each of two workers holds one of them."""
    here[k] = 1
    deadline = time.monotonic() + 10
    while here[:2] != b"\x01\x01" and time.monotonic() < deadline:
        time.sleep(0.001)


class CutShort:
    """A child's result pipe that takes the length and half the payload,
    then ends the child."""

    def __init__(self, fd, cut):
        self.fd, self.cut = fd, cut

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, data):
        if len(data) == forkmap.SIZE:
            os.write(self.fd, data)
        else:
            os.write(self.fd, data[:len(data) // 2])
            self.cut[2] = 1
            os._exit(0)


@pytest.mark.parametrize("when", ["before", "during"])
def test_a_child_that_dies_has_its_jobs_run_again_in_the_parent(cpus, forks, when):
    """The child dies in its job, before it writes anything, or halfway
    through its payload, after the length: the parent runs the child's job
    again and returns the serial result."""
    parent = os.getpid()

    def job(here, k):
        both_started(here, k)
        if os.getpid() != parent:
            if when == "before":
                here[2] = 1
                os._exit(0)
            forkmap.open = lambda fd, mode: CutShort(fd, here)   # this child's only
        return [k] * 1000

    with mmap.mmap(-1, 3) as here:            # shared with the child
        jobs = [partial(job, here, k) for k in range(2)]
        assert fork_map(jobs) == [[0] * 1000, [1] * 1000]
        assert here[2] == 1 and forks() == 1
    assert not hasattr(forkmap, "open")


def test_fewer_than_two_jobs_or_no_fork_runs_serially(monkeypatch, cpus):
    assert fork_map([]) == []
    assert fork_map([os.getpid]) == [os.getpid()]

    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    assert fork_map([os.getpid] * 4) == [os.getpid()] * 4
    monkeypatch.delattr(os, "fork")
    assert fork_map([os.getpid] * 4) == [os.getpid()] * 4


def serial_loop(jobs):
    return [job() for job in jobs]


def outcome(run):
    """What ``run()`` returns, or the type and message of what it raises."""
    try:
        return "returned", run()
    except Exception as err:
        return "raised", type(err), str(err)


def test_a_raising_job_leaves_every_later_queued_job_to_run():
    """A worker that meets an exception keeps it and goes on taking jobs
    until the queue is empty (job 0 here is another worker's)."""
    ran = []

    def job(k):
        ran.append(k)
        if k == 3:
            raise KeyError(k)
        return k

    queue, w = os.pipe()
    os.write(w, b"".join(k.to_bytes(forkmap.SLOT, "little") for k in range(1, 8)))
    os.close(w)
    try:
        jobs = [partial(job, k) for k in range(8)]
        done, failed = forkmap._work(jobs, queue, 1)
    finally:
        os.close(queue)
    assert ran == [1, 2, 3, 4, 5, 6, 7]
    assert done == {k: k for k in (1, 2, 4, 5, 6, 7)} and list(failed) == [3]


def test_every_job_runs_before_the_first_exception_is_raised(cpus):
    def job(ran, k):
        ran[k] = 1
        if k in (2, 5):
            raise KeyError(f"job {k}")
        return k

    with mmap.mmap(-1, 8) as ran:             # shared with the child
        with pytest.raises(KeyError, match="job 2"):
            fork_map([partial(job, ran, k) for k in range(8)])
        assert ran[:] == b"\x01" * 8


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in place of a hang."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_more_jobs_than_a_pipe_holds_indices(cpus):
    """20,000 four-byte indices would overfill a 64 KiB pipe."""
    jobs = [partial(int, k) for k in range(20_000)]
    with deadline(60):
        assert fork_map(jobs) == list(range(20_000))


def mixed_jobs(n_trials, fail):
    """The demo's job kinds: the 2D report row with its words, the M3D
    row, then DI trials returning their words.  ``fail`` maps a position
    to "raise" or, for a trial, "fail"."""
    jobs = [lambda: ((1.5, 0.25, 3.0, 10.0, "2D", 1.0), (0, 1, 2, 4)),
            lambda: (1.25, 0.2, 2.5, 5.5, "M3D", 0.7)] + [lambda: (0, 1, 2, 4)] * n_trials
    for k, how in fail.items():
        if how == "raise":
            jobs[k] = partial(lambda k: {}[f"job {k}"], k)
        else:
            jobs[k] = partial(str.format, "trial {} failed", k)
    return jobs


def mixed_failures(n):
    """No failure; one raise, or one failed trial, at each position; and
    each ordered pair of the two."""
    hows = [(k, how) for k in range(n) for how in ("raise", "fail") if how == "raise" or k >= 2]
    return [{}] + [dict([a]) for a in hows] + [dict([a, b]) for a in hows for b in hows
                                               if a[0] < b[0]]


# A drawn job: it returns a plain value, raises an error of a drawn type,
# or maps a sub-list of the first two kinds.
LEAF_JOBS = st.one_of(
    st.tuples(st.just("value"), st.one_of(st.none(), st.integers(), st.text(max_size=3))),
    st.tuples(st.just("raise"), st.sampled_from([KeyError, ValueError, OSError])))
JOBS = st.one_of(LEAF_JOBS, st.tuples(st.just("map"), st.lists(LEAF_JOBS, max_size=4)))


def drawn_job(mapper, name, kind, arg):
    """The job a (kind, arg) of JOBS describes; its error names its place,
    and a "map" job runs ``mapper`` over its sub-list."""
    if kind == "map":
        return partial(mapper, [drawn_job(mapper, f"{name}.{j}", *leaf)
                                for j, leaf in enumerate(arg)])

    def job():
        time.sleep(0.0002)    # long enough that the workers' jobs interleave
        if kind == "raise":
            raise arg(f"job {name}")
        return arg
    return job


def test_mixed_jobs_match_the_serial_loop_under_failures_anywhere(cpus):
    """The demo's job kinds with failures at every place and pair of places;
    then drawn jobs on 1-4 CPUs, against a reference that maps each "map"
    job's sub-list with the serial loop too."""
    for fail in mixed_failures(7):
        jobs = mixed_jobs(5, fail)
        assert outcome(partial(fork_map, jobs)) == outcome(partial(serial_loop, jobs)), fail

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.lists(JOBS, min_size=1, max_size=12), st.integers(1, 4))
    def check(plan, n_cpus):
        cpus(n_cpus)
        jobs = [drawn_job(fork_map, k, *d) for k, d in enumerate(plan)]
        serial = [drawn_job(serial_loop, k, *d) for k, d in enumerate(plan)]
        assert outcome(partial(fork_map, jobs)) == outcome(partial(serial_loop, serial))

    check()


def test_the_first_exception_in_job_order_is_raised(cpus):
    """Job 1 raises first in time, in one worker; job 0, held until then
    in the other, raises too and is the one that surfaces."""
    gate_r, gate_w = os.pipe()

    def first():
        select.select([gate_r], [], [], 10)
        raise KeyError("job 0")

    def second():
        os.write(gate_w, b"x")
        raise ValueError("job 1")

    try:
        with pytest.raises(KeyError, match="job 0"):
            fork_map([first, second, os.getpid])
    finally:
        os.close(gate_r)
        os.close(gate_w)


def test_results_larger_than_a_pipe_buffer(cpus):
    jobs = [partial(str.__mul__, str(k), 100_000) for k in range(1, 5)]
    assert fork_map(jobs) == serial_loop(jobs)


def test_an_interrupt_in_the_parent_kills_and_reaps_the_children(cpus):
    parent = os.getpid()

    def slow_children():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(20)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map([slow_children] * 4)
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("failures", [{}, {1: "raise"}, {2: "words"}], ids=str)
def test_multiplier_demo_forks_once(monkeypatch, capsys, cpus, forks, system, failures):
    """The 2D and M3D evaluations and the DI trials share one fork round
    (one child on two CPUs), and print what one process prints."""
    inject(monkeypatch, system, 4, 5, failures)
    argv = ["multiplier-demo", "--width", "2", "--trials", "4", "--seed", "5"]
    cpus(1)
    assert main(argv) == (1 if failures else 0)
    serial = capsys.readouterr().out
    assert forks() == 0
    cpus(2)
    assert main(argv) == (1 if failures else 0)
    assert capsys.readouterr().out == serial
    assert forks() == 1


@pytest.mark.parametrize("failures", [{2: "words"}, {1: "raise"}], ids=str)
def test_multiplier_demo_results_survive_marshal(monkeypatch, capsys, cpus, system, failures):
    """A child sends its results with marshal.  A result marshal cannot
    write, such as a record (a tuple subclass), makes the send fail, and
    fork_map then quietly runs the child's share again in the parent."""
    inject(monkeypatch, system, 4, 5, failures)
    results = []

    def recording_fork_map(jobs):
        results.extend(fork_map(jobs))
        return list(results)

    monkeypatch.setattr(forkmap, "fork_map", recording_fork_map)
    cpus(1)
    assert main(["multiplier-demo", "--width", "2", "--trials", "4", "--seed", "5"]) == 1
    capsys.readouterr()
    (flat, words), (fold, fold_words), *outcomes = results
    assert len(words) == len(fold_words) == 16 and len(flat) == len(fold) == 6
    assert words in outcomes and any(o != words for o in outcomes)
    assert any(isinstance(o, str) for o in outcomes) == ("raise" in failures.values())
    for result in results:
        back = marshal.loads(marshal.dumps(result))
        assert back == result and type(back) is type(result)


def test_multiplier_demo_simulates_each_delay_assignment_once(monkeypatch, capsys, cpus):
    """The 2D evaluation, the M3D evaluation and the 4 trials: no run at
    unit delays, as the checked 2D words are the trials' reference."""
    calls = count_simulations(monkeypatch)
    cpus(1)
    assert main(["multiplier-demo", "--width", "2", "--trials", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 6 and None not in calls


@pytest.mark.parametrize("failures", [{1: "raise"}, {2: "words"}], ids=str)
def test_multiplier_demo_writes_the_di_counterexample(monkeypatch, capsys, tmp_path, cpus,
                                                      system, failures):
    """A failed DI check puts the failing trial's delays and the printed
    detail in the --out report, enough to replay that trial."""
    inject(monkeypatch, system, 4, 5, failures)
    out = tmp_path / "demo.json"
    argv = ["multiplier-demo", "--width", "2", "--trials", "4", "--seed", "5", "--out", str(out)]
    assert main(argv) == 1
    printed = capsys.readouterr().out.splitlines()
    di = json.loads(out.read_text(encoding="utf-8"))["delay_insensitivity"]
    (k,) = failures
    assert di["counterexample"] == drawn_delays(system, 4, 5)[k]
    assert all(type(d) is int for d in di["counterexample"].values())
    verdict = printed.index("delay insensitivity: 4 random assignments over 16 vectors: FAIL")
    assert printed[verdict + 1] == f"  {di['detail']}"
    assert di["detail"].startswith(f"trial {k}: ")
    assert di["trials"] == 4 and di["passed"] is False
