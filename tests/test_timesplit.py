"""Time-parallel simulate (ncl3d.timesplit): a long run cut into segments at
the wave seams, run as one fork_map round and stitched, returns exactly the
trace of the serial run, or else the serial run is what runs.

Each test makes a run split into k segments by setting the size constant
to 0 and how many CPUs fork_map sees; the serial reference does not split.
The ``stitched`` list records, per split attempt in this process, whether
a stitched trace came back (True) or simulate fell back to the serial run
(False).  Every test also checks that no child process is left behind.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl3d import forkmap, sim, timesplit
from ncl3d.model import default_calibration, default_tech
from ncl3d.netlist import parse_netlist, serialize_netlist
from ncl3d.pipeline import build_pipeline
from ncl3d.ppa import circuit_delay_assignment
from ncl3d.sim import (DeadlockError, DelayAssignment, EventLimitError, SimulationError, measure,
                       simulate)
from ncl3d.synth import build_array_multiplier, expand_dual_rail
from test_netlist import boolean_circuit

pytestmark = pytest.mark.usefixtures("no_child_left")


@pytest.fixture
def stitched(monkeypatch):
    outcomes = []
    real = timesplit.split_run

    def split_run(*args):
        trace = real(*args)
        outcomes.append(trace is not None)
        return trace

    monkeypatch.setattr(timesplit, "split_run", split_run)
    return outcomes


def outcome(monkeypatch, k, system, vectors, delays=None, max_events=None):
    """The trace simulate returns split into k segments (k = 1: not split),
    with its per-net counts in order, its length, its time column and its
    measure, or the type and text of what it raises.  The counts, length
    and measure are read before anything reads the time column."""
    with monkeypatch.context() as m:
        m.setattr(forkmap, "usable_cpus", lambda: k)
        m.setattr(sim, "SPLIT_MIN", 0 if k > 1 else 1 << 62)
        try:
            trace = simulate(system, vectors, delays, max_events)
        except SimulationError as err:
            return type(err), str(err)
    return (list(trace.transition_counts().items()), len(trace.records), measure(trace),
            trace.records.times, list(trace.records), trace.waves, trace.net_class)


def delay_models(cl, system):
    names = [g.name for g in system.netlist.gates]
    tech, cal = default_tech(), default_calibration()
    return {"unit": None,
            "2D": circuit_delay_assignment(system, cl, tech, cal, "2D", 1.0),
            "M3D": circuit_delay_assignment(system, cl, tech, cal, "M3D", 0.7),
            "random": DelayAssignment.uniform_random(names, random.Random(len(names)))}


@pytest.mark.parametrize("width", [2, 3, 4])
def test_split_equals_serial(monkeypatch, stitched, width):
    cl = build_array_multiplier(width)
    system = build_pipeline(cl)
    rng = random.Random(width)
    vectors = [rng.randrange(1 << 2 * width) for _ in range(12)]
    for model, delays in delay_models(cl, system).items():
        serial = outcome(monkeypatch, 1, system, vectors, delays)
        assert serial[5] and len(serial[5]) == len(vectors)
        for k in (2, 3, 4):
            stitched.clear()
            assert outcome(monkeypatch, k, system, vectors, delays) == serial, (model, k)
            assert stitched == [True], (model, k)    # every boundary is quiescent


@pytest.mark.parametrize("spur_delay,kept", [(400, False), (9, True)])
def test_unmatched_seams_fall_back_to_the_serial_run(monkeypatch, stitched, spur_delay, kept):
    """An unobserved gate (its output feeds nothing) with a 400 ps delay is
    still switching when later waves end, so no warm-up wave reaches the
    serial run's state at a seam; at 9 ps it settles within its wave."""
    cl = build_array_multiplier(2)
    cl.add("TH12", ["a0.1", "b0.0"], "dead", name="spur")
    system = build_pipeline(cl)
    rng = random.Random(3)
    delays = DelayAssignment(per_gate={**{g.name: rng.randint(1, 20)
                                          for g in system.netlist.gates},
                                       "spur": spur_delay})
    vectors = list(range(16))
    serial = outcome(monkeypatch, 1, system, vectors, delays)
    assert outcome(monkeypatch, 2, system, vectors, delays) == serial
    assert stitched == [kept]


def test_a_deadlock_raises_what_the_serial_run_raises(monkeypatch, stitched):
    """The width-3 multiplier with one partial-product gate weakened to
    TH12 drives an output to (1,1) on vector 1 (a=1, b=0) and stalls."""
    text = serialize_netlist(build_array_multiplier(3))
    system = build_pipeline(parse_netlist(text.replace("TH22 pp0_0_r1 ", "TH12 pp0_0_r1 ")))
    vectors = [0, 9, 1, 27, 63]
    serial = outcome(monkeypatch, 1, system, vectors)
    assert serial[0] is DeadlockError
    for k in (2, 3, 4):
        assert outcome(monkeypatch, k, system, vectors) == serial
    assert stitched == [False] * 3


def test_the_event_limit_counts_every_segment(monkeypatch, stitched):
    """At the serial run's exact event count the split is kept; one event
    fewer, no segment reaches the limit on its own, yet the run raises as
    the serial run does.  A tight limit fails inside a segment."""
    system = build_pipeline(build_array_multiplier(2))
    vectors = list(range(16))
    *_, marks = sim._run(system, sim._nets(system), sim._as_bit_vectors(system, vectors),
                         DelayAssignment(), 1 << 62)
    popped = marks[-1][2]
    for max_events, kept in ((popped, True), (popped - 1, False), (40, False)):
        stitched.clear()
        serial = outcome(monkeypatch, 1, system, vectors, max_events=max_events)
        assert outcome(monkeypatch, 2, system, vectors, max_events=max_events) == serial
        assert stitched == [kept]
        assert (serial[0] is EventLimitError) == (not kept)


def test_the_last_time_must_fit_in_64_bits(monkeypatch, stitched):
    """Delays so long that the serial run's last event is past 2**63 - 1 ps
    while each segment's own times still fit."""
    system = build_pipeline(build_array_multiplier(2))
    vectors = list(range(8))
    nets, bits = sim._nets(system), sim._as_bit_vectors(system, vectors)
    end = sim._run(system, nets, bits, DelayAssignment(), 1 << 62)[3][-1][0]
    delays = DelayAssignment(default=sim.T_MAX // end + 1)
    serial = outcome(monkeypatch, 1, system, vectors, delays)
    assert serial[0] is SimulationError and "64-bit" in serial[1]
    assert outcome(monkeypatch, 2, system, vectors, delays) == serial
    assert stitched == [False]


def test_runs_inside_a_fork_map_job_never_split(monkeypatch, stitched, forks):
    """The jobs' runs are far above the size constant, yet only the outer
    round forks."""
    system = build_pipeline(build_array_multiplier(2))
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "SPLIT_MIN", 0)
    jobs = [lambda: simulate(system, [5, 10, 15]).words()] * 2
    assert forkmap.fork_map(jobs) == [[1, 4, 9]] * 2
    assert forks() == 1 and True not in stitched


def test_the_stitched_time_column_is_built_on_first_read(monkeypatch):
    """Counting, measuring and taking the length of a stitched trace leave
    its segments' time columns apart; the first read of ``times`` joins
    them into the serial run's column."""
    system = build_pipeline(build_array_multiplier(3))
    vectors = list(range(0, 64, 5))
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "SPLIT_MIN", 0)
    trace = simulate(system, vectors)
    assert (measure(trace).total_transitions == len(trace.records)
            == sum(trace.transition_counts().values()))
    assert len(trace.records._parts) == 2
    monkeypatch.setattr(sim, "SPLIT_MIN", 1 << 62)
    assert trace.records.times == simulate(system, vectors).records.times
    assert len(trace.records._parts) == 1


def test_times_past_32_bits_ship_as_64_bit_columns(monkeypatch, stitched):
    """A delay of 2**30 ps per gate takes every segment's own times past
    2**32 - 1 ps, far below T_MAX: no segment ships them, and the run
    falls back to the serial one, whose 64-bit column holds them."""
    system = build_pipeline(build_array_multiplier(2))
    vectors = list(range(8))
    delays = DelayAssignment(default=1 << 30)
    nets, bits = sim._nets(system), sim._as_bit_vectors(system, vectors)
    for lo, hi in ((0, 4), (4, 8)):
        assert timesplit._segment(system, nets, bits, delays, 1 << 62, lo, hi) is None
    serial = outcome(monkeypatch, 1, system, vectors, delays)
    assert serial[3].typecode == "q" and (1 << 32) < serial[3][-1] < sim.T_MAX
    for k in (2, 3):
        assert outcome(monkeypatch, k, system, vectors, delays) == serial, k
    assert stitched == [False, False]


def test_random_circuits_split_as_the_serial_run(monkeypatch, stitched):
    """Random dual-rail circuits in 1-3 pipeline stages under random delays,
    split k = 2-4 ways: the same trace as the serial run, or the same
    exception.  Most gates take 1-20 ps and about one in seven 200-2000 ps,
    so an unobserved gate can still be switching at a seam and some runs
    fall back; the pinned examples include such a fallback as well as
    stitched runs."""
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(boolean_circuit(), st.integers(1, 3), st.integers(2, 4), st.integers(0, 1 << 32),
           st.data())
    def check(case, n_stages, k, seed, data):
        bnl, _ = case
        system = build_pipeline(expand_dual_rail(bnl), n_stages)
        words = st.integers(0, (1 << len(bnl.inputs)) - 1)
        vectors = data.draw(st.lists(words, min_size=k, max_size=10))
        rng = random.Random(seed)
        delays = DelayAssignment(per_gate={
            g.name: rng.randint(1, 20) if rng.random() < 0.85 else rng.randint(200, 2000)
            for g in system.netlist.gates})
        serial = outcome(monkeypatch, 1, system, vectors, delays)
        assert outcome(monkeypatch, k, system, vectors, delays) == serial

    check()
    assert True in stitched and False in stitched, stitched
