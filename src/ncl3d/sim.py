"""Event-driven simulation of 4-phase handshaking pipelines.

The engine is a discrete-event simulator.  Gate evaluation separates
internal state from the visible output: an input change updates the
hysteresis state immediately and the output net follows after the
gate's propagation delay (transport semantics).  Events with equal
timestamps apply in insertion order, so a run is a pure function of
(system, vectors, delays).

The queue is bucketed by timestep: ``buckets[t]`` lists the (net, value)
events due at t in push order and a heap holds the distinct pending
times.  Each timestep is popped once from both and its bucket drained
by a list iterator, which sees appends: zero-delay events (the completion
inverters, and the environment, which pushes only at the current time)
append to the bucket being drained and so run after everything already
due at t, in push order.  The live-lock limit counts popped events by
bucket length once per timestep, and again after each inverter append,
as a ring of inverters can grow one bucket without end.

Each gate keeps an input mask (bit k is input pin k).  A net change
flips the mask bits of the pins it feeds (``fanout[net]``) and looks the
new mask up in the gate's truth table (``GateSpec.table``, which
``next_output`` reads too, built by the SOP evaluator ``settle`` runs).
These rows do not depend on the delays, so they are built once per
netlist and kept with its cached structure (``Netlist.derive``); a run
resolves each gate's (rise, fall) pair once and copies the reset state.

The environment is infinitely fast: the producer answers the first
bank's request and the consumer acknowledges word completion in the
same timestep they are observed.  It reads only the request net and
the output rails, so it runs only in timesteps that changed one of
them; any other timestep would show it what it has already acted on.
A change of an output rail updates running counts of the outputs at
DATA and at NULL and marks the outputs on that rail as touched (INV/BUF
aliases can put one net on several outputs), so the consumer tests the
counts for word completion and scans only the touched outputs, in port
order, for arrival times.

An event is one of two tuples per net, ``(net, 0)`` and ``(net, 1)``,
built once per netlist and shared by the queue, the per-gate delay rows,
the inverters and the environment, so scheduling an event allocates
nothing.
The trace is stored as columns: each applied transition appends the
event tuple it popped to one list and its time to an ``array('q')``,
about 20 bytes per transition against about 90 for a fresh
``(t, name, value)`` tuple.  The trace grows with the run, so this is
most of a long simulation's memory.  ``Trace.records`` decodes
``(t, name, value)`` only when it is read; ``len`` and
``transition_counts`` work on the columns.  Times must fit in 64 bits.
A stitched run's time column stays in its segments' parts until
``Records.times`` is first read, which the CLI never does.

A run of at least ``SPLIT_MIN`` vectors x gates is cut at wave boundaries
into one segment per process a ``forkmap.fork_map`` round would use, and
the segments run at once (``timesplit``).  A boundary where the consumer
acknowledges a NULL word is a seam: each segment past the first starts
from reset one wave early, and the stitched trace is kept only if the
state on both sides of every seam is the same (relative to the seam's
time); otherwise, or if a segment raised, the whole run goes again
serially.  Either way the returned trace, or the exception raised, is the
serial run's.  The kernel, ``_run``, marks seams only in the consumer's
branch of the environment, once a wave.  Each segment counts its kept
transitions per net, so a stitched trace comes with its counts merged
and ``measure`` and the power model do not count again.
"""
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from functools import partial
from heapq import heappop, heappush
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple, Union

from .gates import spec_from_name
from .netlist import Netlist
from .pipeline import ACK_NET, REQUEST_NET, PipelineSystem


class SimulationError(RuntimeError):
    pass


class DeadlockError(SimulationError):
    """Queue drained before the protocol finished."""

    def __init__(self, stalled_net: str, detail: str):
        super().__init__(f"deadlock waiting on {stalled_net}: {detail}")
        self.stalled_net = stalled_net
        self.detail = detail


class EventLimitError(SimulationError):
    pass


class VectorError(SimulationError, ValueError):
    """An input vector does not fit the pipeline's input ports."""


Delay = Union[int, Tuple[int, int]]
Event = Tuple[int, int]                  # (net index, value)


def _positive_int(d) -> bool:
    return isinstance(d, int) and not isinstance(d, bool) and d > 0


class _DelayFields(NamedTuple):
    default: Delay = 1
    per_gate: Mapping[str, Delay] = None


class DelayAssignment(_DelayFields):
    """Per-instance propagation delays in picoseconds.

    A plain int is used for both edges; a (rise, fall) pair splits them.
    An omitted ``per_gate`` is a fresh ``{}``; nothing calls ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, default: Delay = 1, per_gate: Optional[Mapping[str, Delay]] = None):
        self = super().__new__(cls, default, {} if per_gate is None else per_gate)
        for d in (self.default, *self.per_gate.values()):
            if not (_positive_int(d) or (isinstance(d, tuple) and len(d) == 2
                                         and all(map(_positive_int, d)))):
                raise ValueError(f"gate delays must be positive ints or (rise, fall) "
                                 f"pairs of them, got {d!r}")
        return self

    @classmethod
    def uniform_random(cls, names: Iterable[str], rng: random.Random) -> "DelayAssignment":
        """1-20 ps for each gate instance named in ``names``."""
        return cls(per_gate={n: rng.randint(1, 20) for n in names})


class Wave(NamedTuple):
    """One DATA/NULL round trip observed at the primary outputs."""

    t_applied: int
    t_data_complete: int
    t_null_complete: int
    value: int                       # bits packed LSB-first in output port order
    arrivals: Mapping[str, int]      # per-output time the bit turned DATA

    @property
    def output_skew(self) -> int:
        if not self.arrivals:
            return 0
        times = list(self.arrivals.values())
        return max(times) - min(times)


class Records(Sequence):
    """Read-only view of a run's transitions as ``(time, net name, value)``.

    ``events[k]`` is the ``(net index, value)`` event applied k-th and
    ``times[k]`` its time; ``names`` maps net indices to names.  Indexing
    and iteration decode, ``len`` does not.  A slice is a list, and the
    view compares equal to the list of its decoded records.

    The times come as parts, each a column of ints and the offset to add
    to them, in record order.  A serial run's one part is its
    ``array('q')`` at offset 0, which ``times`` returns as is; a stitched
    run's parts are joined into one such column on the first read of
    ``times``, so ``len`` and the counts never build it.

    ``counts``, transitions per net index in order of first transition, are
    a stitched run's segment counts or one ``Counter`` pass on first read.
    """

    __slots__ = ("names", "events", "_parts", "_counts")

    def __init__(self, names: Tuple[str, ...], events: List[Event],
                 parts: List[Tuple[Sequence, int]], counts: Optional[Dict[int, int]] = None):
        self.names = names
        self.events = events
        self._parts = parts
        self._counts = counts

    @property
    def counts(self) -> Dict[int, int]:
        if self._counts is None:
            self._counts = Counter(map(itemgetter(0), self.events))
        return self._counts

    @property
    def times(self) -> array:
        if len(self._parts) > 1:
            times = array("q")
            for column, offset in self._parts:
                times.extend(map(offset.__add__, column))
            self._parts = [(times, 0)]
        return self._parts[0][0]

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(Records(self.names, self.events[k], [(self.times[k], 0)]))
        net, v = self.events[k]
        return self.times[k], self.names[net], v

    def __iter__(self):
        names = self.names
        for t, (net, v) in zip(self.times, self.events):
            yield t, names[net], v

    def __eq__(self, other):
        if not isinstance(other, (list, Records)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class Trace(NamedTuple):
    records: Records
    waves: List[Wave]
    net_class: Dict[str, str]

    def transition_counts(self) -> Dict[str, int]:
        """Transitions per net name, in order of each net's first transition
        (a fresh dict each call of the counts the records keep)."""
        names = self.records.names
        return {names[net]: n for net, n in self.records.counts.items()}

    def words(self) -> List[int]:
        return [w.value for w in self.waves]


class Report(NamedTuple):
    forward_latencies: Tuple[int, ...]
    worst_forward_latency: Optional[int]
    cycle_times: Tuple[int, ...]
    avg_cycle_time: Optional[float]
    output_skews: Tuple[int, ...]
    worst_output_skew: Optional[int]
    transitions_by_class: Mapping[str, int]
    total_transitions: int
    words: Tuple[int, ...]


def measure(trace: Trace) -> Report:
    lat = tuple(w.t_data_complete - w.t_applied for w in trace.waves)
    completions = [w.t_data_complete for w in trace.waves]
    cycles = tuple(b - a for a, b in zip(completions, completions[1:]))
    skews = tuple(w.output_skew for w in trace.waves)
    by_class: Dict[str, int] = {}
    for net, n in trace.transition_counts().items():
        cls = trace.net_class.get(net, "other")
        by_class[cls] = by_class.get(cls, 0) + n
    return Report(
        forward_latencies=lat,
        worst_forward_latency=max(lat) if lat else None,
        cycle_times=cycles,
        avg_cycle_time=sum(cycles) / len(cycles) if cycles else None,
        output_skews=skews,
        worst_output_skew=max(skews) if skews else None,
        transitions_by_class=by_class,
        total_transitions=len(trace.records),
        words=tuple(trace.words()),
    )


def _as_bit_vectors(system: PipelineSystem, vectors) -> List[Tuple[int, ...]]:
    """Each vector as its bits in input port order."""
    out = []
    names = [p.name for p in system.netlist.inputs]
    for k, vec in enumerate(vectors):
        if isinstance(vec, int):
            if vec < 0 or vec >= (1 << len(names)):
                raise VectorError(f"vector {k} ({vec}) out of range for {len(names)} inputs")
            out.append(tuple((vec >> i) & 1 for i in range(len(names))))
        else:
            missing = [n for n in names if n not in vec]
            if missing:
                raise VectorError(f"vector {k} missing bits for {missing}")
            out.append(tuple(1 if vec[n] else 0 for n in names))
    return out


def _gate_rows(nl: Netlist) -> tuple:
    """(net names, net index, event pair per net, (name, output) per gate,
    fanout[net]: (gate, pin bits OR-ing each pin the net drives, truth
    table) per gate the net feeds), the delay-independent part of a run."""
    names = nl.nets
    idx = {n: i for i, n in enumerate(names)}
    fanout: List[list] = [[] for _ in names]
    for gi, g in enumerate(nl.gates):
        table = spec_from_name(g.kind).table
        pins: Dict[int, int] = {}
        for k, n in enumerate(g.ins):
            pins[idx[n]] = pins.get(idx[n], 0) | 1 << k
        for net, bits in pins.items():
            fanout[net].append((gi, bits, table))
    ev = tuple(((n, 0), (n, 1)) for n in range(len(names)))
    gates = tuple((g.name, idx[g.out]) for g in nl.gates)
    return names, idx, ev, gates, tuple(map(tuple, fanout))


def _nets(system: PipelineSystem) -> tuple:
    """The netlist's ``_gate_rows``, with the inverter outputs it lacks
    appended to the nets."""
    names, idx, ev, gates, fanout = system.netlist.derive(_gate_rows)
    extra = tuple(out for out in system.inverters if out not in idx)
    if extra:
        names += extra
        idx = {n: i for i, n in enumerate(names)}
        ev += tuple(((n, 0), (n, 1)) for n in range(len(ev), len(names)))
        fanout += ((),) * len(extra)
    return names, idx, ev, gates, fanout


T_MAX = (1 << 63) - 1                    # the largest time a trace's time column holds
# A run of at least this many vectors x gates is split into segments that
# run at once (``timesplit``).  On 2 cores a split pays from about 10,000
# (CHANGES.md); the margin covers compiling forkmap and timesplit for the
# first split of a process, and the dearer fork of a larger process.
SPLIT_MIN = 40_000


def simulate(system: PipelineSystem, data_vectors: Sequence,
             delays: Optional[DelayAssignment] = None,
             max_events: Optional[int] = None) -> Trace:
    """Push ``data_vectors`` through the pipeline and record every transition.

    The producer presents vector k when the first bank requests DATA and
    NULL when it requests otherwise; the consumer acknowledges each full
    output word.  The run ends when the last NULL wavefront has drained.
    ``delays`` may name only gates of the pipeline (ValueError otherwise).
    """
    delays = delays or DelayAssignment()
    unknown = sorted(delays.per_gate.keys() - system.netlist._names)
    if unknown:
        raise ValueError(f"delays name {len(unknown)} instances that are not gates of the "
                         f"pipeline: {', '.join(unknown[:4])}{', ...' if unknown[4:] else ''}")
    vectors = _as_bit_vectors(system, data_vectors)
    nets = _nets(system)
    limit = (max_events if max_events is not None
             else 50 * (len(vectors) + 2) * max(len(nets[0]), 1))
    if len(vectors) * len(system.netlist.gates) >= SPLIT_MIN:
        from .timesplit import split_run
        trace = split_run(system, nets, vectors, delays, limit)
        if trace is not None:
            return trace
    events, times, waves, _ = _run(system, nets, vectors, delays, limit)
    return Trace(Records(nets[0], events, [(times, 0)]), waves, dict(system.net_class))


class _Stop(Exception):
    """A run reached its ``stop`` seam; the args are what ``_run`` returns."""


def _run(system: PipelineSystem, nets: tuple, vectors: List[Tuple[int, ...]],
         delays: DelayAssignment, limit: int, seams: Tuple[int, ...] = (),
         stop: Optional[int] = None) -> tuple:
    """The kernel: run ``vectors`` from reset and return the trace columns,
    the waves and the seam marks.  When the consumer acknowledges the NULL
    word that ends wave count s in ``seams``, it marks the seam with (time,
    records so far, events popped so far, state relative to the seam), and
    at wave count ``stop`` the run ends there by raising ``_Stop``.  A run
    that finishes marks (last time popped, records, events popped, None)."""
    names, idx, ev, gates, fanout = nets
    values = [0] * len(names)
    for n, v in system.reset_state().items():
        values[idx[n]] = v

    # Per-gate kernel state: input mask, hysteresis state, and
    # sched[gate] = ((fall, out event 0), (rise, out event 1)).
    get, default = delays.per_gate.get, delays.default
    sched = []
    for name, out in gates:
        d = get(name, default)
        rise, fall = d if isinstance(d, tuple) else (d, d)
        sched.append(((fall, ev[out][0]), (rise, ev[out][1])))
    masks = [0] * len(gates)
    for net, v in enumerate(values):
        if v:
            for gi, bits, _ in fanout[net]:
                masks[gi] |= bits
    state = [values[out] for _, out in gates]

    inputs, outputs = system.netlist.inputs, system.netlist.outputs
    req = idx[REQUEST_NET]
    ack = idx[ACK_NET]
    in_rails = [(idx[p.rail1], idx[p.rail0]) for p in inputs]
    out_names = [p.name for p in outputs]
    out_rails = [(idx[p.rail1], idx[p.rail0]) for p in outputs]
    n_out = len(out_rails)

    # Environment bookkeeping.  rail_outs[net] lists the outputs (in port
    # order) with a rail on the net; INV/BUF aliases can give one net to
    # several outputs.  out_class[o] is 0 for NULL (rails 00), 1 for DATA
    # (rails differ) and 2 for both rails high; class_count counts outputs
    # per class.  touched holds the outputs whose rails changed since the
    # environment last ran.
    rail_outs: List[List[int]] = [[] for _ in names]
    for o, rails in enumerate(out_rails):
        for net in dict.fromkeys(rails):
            rail_outs[net].append(o)
    out_class = [1 if values[r1] != values[r0] else 2 * values[r1] for r1, r0 in out_rails]
    class_count = [out_class.count(c) for c in range(3)]
    touched: Set[int] = set()
    inv_of = [-1] * len(names)
    for out, src in system.inverters.items():
        inv_of[idx[src]] = idx[out]
    special = [bool(rail_outs[n] or inv_of[n] >= 0) or n == req for n in range(len(names))]

    # The trace columns: the applied events and their times.
    rec_events: List[Event] = []
    rec_times = array("q")
    waves: List[Wave] = []
    marks: list = []
    prod_next = 0                 # next vector to present
    prod_phase = "data"           # what the producer will present next
    cons_phase = "data"           # what the consumer is waiting for
    t_applied: List[int] = []
    arrivals: Dict[str, int] = {}
    pending: Optional[Tuple[int, int, int, Dict[str, int]]] = None

    # Pending events by time: buckets[t] lists events in push order and times
    # is a heap of the bucket keys.
    buckets: Dict[int, List[Event]] = {0: []}

    # state and buckets, which only a seam reads here, are bound as defaults
    # so that the event loop keeps them as plain locals.
    def run_env(t: int, bucket: List[Event], drained: int, popped: int,
                state=state, buckets=buckets) -> None:
        """Act on the request and output rails at t, appending events due at
        t to ``bucket``, whose first ``drained`` events have run; ``popped``
        events ran before t."""
        nonlocal prod_next, prod_phase, cons_phase, pending
        push = bucket.append
        if prod_phase == "data" and prod_next < len(vectors) and values[req] == 1:
            for b, (r1, r0) in zip(vectors[prod_next], in_rails):
                if values[r1] != b:
                    push(ev[r1][b])
                if values[r0] != 1 - b:
                    push(ev[r0][1 - b])
            t_applied.append(t)
            prod_phase = "null"
        elif prod_phase == "null" and values[req] == 0:
            for r1, r0 in in_rails:
                if values[r1]:
                    push(ev[r1][0])
                if values[r0]:
                    push(ev[r0][0])
            prod_next += 1
            prod_phase = "data"
        if cons_phase == "data":
            for o in sorted(touched):
                if out_class[o] == 1 and out_names[o] not in arrivals:
                    arrivals[out_names[o]] = t
            if class_count[1] == n_out:
                value = sum(values[r1] << i for i, (r1, _) in enumerate(out_rails))
                pending = (t_applied[len(waves)], t, value, dict(arrivals))
                arrivals.clear()
                push(ev[ack][0])
                cons_phase = "null"
        elif cons_phase == "null" and class_count[0] == n_out:
            t0, t_data, value, arr = pending
            waves.append(Wave(t0, t_data, t, value, arr))
            pending = None
            push(ev[ack][1])
            cons_phase = "data"
            if len(waves) in seams:
                # Everything the rest of the run depends on; the output
                # classes and gate masks follow from the net values.
                later = sorted((u - t, b[:]) for u, b in buckets.items())
                marks.append((t, len(rec_events), popped + drained,
                              (bytes(values), bytes(state), bucket[drained:], later,
                               prod_next - len(waves), prod_phase,
                               [u - t for u in t_applied[len(waves):]])))
                if len(waves) == stop:
                    raise _Stop(rec_events, rec_times, waves, marks)
        touched.clear()

    popped = 0                    # events popped before the current timestep
    times = [0]
    rec_event = rec_events.append
    rec_time = rec_times.append
    run_env(0, buckets[0], 0, 0)
    while times:
        t = heappop(times)
        if t > T_MAX:
            raise SimulationError(f"event time {t} ps does not fit the trace's 64-bit time column")
        bucket = buckets.pop(t)
        events = iter(bucket)
        while True:
            env_changed = False
            for event in events:
                net, v = event
                if values[net] == v:
                    continue
                values[net] = v
                rec_event(event)
                rec_time(t)
                for gi, bits, table in fanout[net]:
                    mask = masks[gi] ^ bits       # the pins the net feeds all flip
                    masks[gi] = mask
                    nxt = table[mask]
                    if nxt >= 0 and nxt != state[gi]:
                        state[gi] = nxt
                        delay, out_event = sched[gi][nxt]
                        t_out = t + delay
                        later = buckets.get(t_out)
                        if later is None:
                            buckets[t_out] = [out_event]
                            heappush(times, t_out)
                        else:
                            later.append(out_event)
                if special[net]:
                    if net == req:
                        env_changed = True
                    for o in rail_outs[net]:
                        r1, r0 = out_rails[o]
                        cls = 1 if values[r1] != values[r0] else 2 * values[r1]
                        class_count[out_class[o]] -= 1
                        class_count[cls] += 1
                        out_class[o] = cls
                        touched.add(o)
                        env_changed = True
                    if inv_of[net] >= 0:
                        bucket.append(ev[inv_of[net]][1 - v])
                        if popped + len(bucket) > limit:
                            break         # a zero-delay loop; raised below
            if popped + len(bucket) > limit:
                raise EventLimitError(f"exceeded {limit} events at t={t}; circuit is live-locked")
            if not env_changed:
                break
            drained = len(bucket)
            run_env(t, bucket, drained, popped)
            if len(bucket) == drained:
                break
            events = islice(bucket, drained, None)
        popped += len(bucket)

    done = (prod_next == len(vectors) and prod_phase == "data"
            and cons_phase == "data" and len(waves) == len(vectors))
    if not done:
        if prod_phase == "null":
            raise DeadlockError(REQUEST_NET,
                                f"producer holding vector {prod_next}, request stuck at {values[req]}")
        if prod_next < len(vectors):
            raise DeadlockError(REQUEST_NET,
                                f"producer has {len(vectors) - prod_next} vectors left, "
                                f"request stuck at {values[req]}")
        for n, (r1, r0) in zip(out_names, out_rails):
            a, b = values[r1], values[r0]
            if (cons_phase == "data" and a == b) or (cons_phase == "null" and (a or b)):
                raise DeadlockError(n, f"consumer waiting for {cons_phase.upper()} word, "
                                       f"output rails at ({a},{b})")
        raise DeadlockError(ACK_NET, "handshake never returned to idle")
    marks.append((t, len(rec_events), popped, None))
    return rec_events, rec_times, waves, marks


class DIReport(NamedTuple):
    passed: bool
    n_trials: int
    words: Tuple[int, ...]
    counterexample: Optional[DelayAssignment] = None
    detail: str = ""


def check_delay_insensitivity(system: PipelineSystem, data_vectors: Sequence,
                              n_trials: int = 100, seed: int = 0) -> DIReport:
    """Re-run under random positive per-gate delays; outputs must not move.

    Every trial must reproduce the words of a unit-delay baseline, run
    first; a failed baseline runs no trial.  The trials are the jobs of
    :func:`di_trials`, shared out among the usable cores (``forkmap``).
    Every trial runs, each capped by :func:`simulate`'s event limit, even
    after one has failed; the report is of the first failure in trial
    order, as one trial after another would give.

    Random trials do not catch the input-completeness defect class; the
    static checkers in :mod:`ncl3d.netlist` do.  The bundled
    ``and2_relaxed.ncl`` has 6 input-completeness violations, yet never
    failed here: not in 1,000 trials at 1-20 ps, not in 3,000 at 1-1000 ps,
    and not in 200 with a delay gate on every input fork.  A likely reason
    is that the four-phase environment changes the inputs only after every
    output has completed or reset, so an output that fires early is never
    told apart from one that fires on time.
    """
    from .forkmap import fork_map
    jobs, report = di_trials(system, data_vectors, n_trials, seed)
    try:
        expect = tuple(simulate(system, data_vectors).words())
    except SimulationError as err:
        return DIReport(False, 0, (), DelayAssignment(), f"baseline run failed: {err}")
    return report(expect, fork_map(jobs))


def di_trials(system: PipelineSystem, data_vectors: Sequence,
              n_trials: int = 100, seed: int = 0) -> tuple:
    """The trials of :func:`check_delay_insensitivity` as jobs for
    ``forkmap.fork_map``, and the function that makes the report from the
    reference words and the trials' results, cut after the first failure.

    The assignments are drawn up front from one ``random.Random(seed)``.  A
    job returns its trial's words, or its ``SimulationError`` text.  Nothing
    is simulated here: the reference is the unit-delay baseline's words in
    :func:`check_delay_insensitivity` and the checked 2D words in
    ``multiplier-demo``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    rng = random.Random(seed)
    gate_names = [g.name for g in system.netlist.gates]
    assignments = [DelayAssignment.uniform_random(gate_names, rng) for _ in range(n_trials)]

    def trial(assignment: DelayAssignment) -> Union[Tuple[int, ...], str]:
        try:
            return tuple(simulate(system, data_vectors, assignment).words())
        except SimulationError as err:
            return str(err)

    def report(expect: Tuple[int, ...], results: List[Union[Tuple[int, ...], str]]) -> DIReport:
        for k, got in enumerate(results):
            if got != expect:
                failure = got if isinstance(got, str) else f"outputs {got} != {expect}"
                return DIReport(False, k + 1, expect, assignments[k], f"trial {k}: {failure}")
        return DIReport(True, n_trials, expect)

    return [partial(trial, a) for a in assignments], report

