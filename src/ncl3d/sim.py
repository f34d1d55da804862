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
"""
import random
from array import array
from collections import Counter
from collections.abc import Sequence
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import islice
from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Set, Tuple, Union

from .gates import spec_from_name
from .netlist import FormatError, Netlist
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
    """

    __slots__ = ("names", "events", "times")

    def __init__(self, names: Tuple[str, ...], events: List[Event], times: array):
        self.names = names
        self.events = events
        self.times = times

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(Records(self.names, self.events[k], self.times[k]))
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


class _TraceFields(NamedTuple):
    records: Records
    waves: List[Wave]
    completed: bool
    net_class: Dict[str, str]


class Trace(_TraceFields):
    """No ``__slots__``: the cached ``_counts`` lives in the instance dict."""

    def to_tsv(self) -> str:
        lines = ["time\tnet\tvalue"]
        lines += [f"{t}\t{n}\t{v}" for t, n, v in self.records]
        return "\n".join(lines) + "\n"

    @cached_property
    def _counts(self) -> Dict[str, int]:
        names = self.records.names
        counts = Counter(map(itemgetter(0), self.records.events))
        return {names[net]: n for net, n in counts.items()}

    def transition_counts(self) -> Dict[str, int]:
        """Transitions per net name, in order of each net's first transition
        (a copy of the counts made on the first call; records are read-only)."""
        return dict(self._counts)

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
    if not trace.completed:
        raise SimulationError("incomplete trace")
    lat = tuple(w.t_data_complete - w.t_applied for w in trace.waves)
    completions = [w.t_data_complete for w in trace.waves]
    cycles = tuple(b - a for a, b in zip(completions, completions[1:]))
    skews = tuple(w.output_skew for w in trace.waves)
    by_class: Dict[str, int] = {}
    for net, n in trace._counts.items():
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


def _as_bit_vectors(system: PipelineSystem, vectors) -> List[Dict[str, int]]:
    out = []
    names = [p.name for p in system.netlist.inputs]
    for k, vec in enumerate(vectors):
        if isinstance(vec, int):
            if vec < 0 or vec >= (1 << len(names)):
                raise VectorError(f"vector {k} ({vec}) out of range for {len(names)} inputs")
            out.append({n: (vec >> i) & 1 for i, n in enumerate(names)})
        else:
            missing = [n for n in names if n not in vec]
            if missing:
                raise VectorError(f"vector {k} missing bits for {missing}")
            out.append({n: 1 if vec[n] else 0 for n in names})
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


def simulate(system: PipelineSystem, data_vectors: Sequence,
             delays: Optional[DelayAssignment] = None,
             max_events: Optional[int] = None) -> Trace:
    """Push ``data_vectors`` through the pipeline and record every transition.

    The producer presents vector k when the first bank requests DATA and
    NULL when it requests otherwise; the consumer acknowledges each full
    output word.  The run ends when the last NULL wavefront has drained.
    """
    delays = delays or DelayAssignment()
    vectors = _as_bit_vectors(system, data_vectors)
    names, idx, ev, gates, gate_fanout = system.netlist.derive(_gate_rows)
    extra = tuple(out for out in system.inverters if out not in idx)
    if extra:
        names += extra
        idx = {n: i for i, n in enumerate(names)}
        ev += tuple(((n, 0), (n, 1)) for n in range(len(ev), len(names)))

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
    fanout = gate_fanout + ((),) * len(extra)
    masks = [0] * len(gates)
    for net, v in enumerate(values):
        if v:
            for gi, bits, _ in fanout[net]:
                masks[gi] |= bits
    state = [values[out] for _, out in gates]

    inputs, outputs = system.netlist.inputs, system.netlist.outputs
    req = idx[REQUEST_NET]
    ack = idx[ACK_NET]
    in_names = [p.name for p in inputs]
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
    prod_next = 0                 # next vector to present
    prod_phase = "data"           # what the producer will present next
    cons_phase = "data"           # what the consumer is waiting for
    t_applied: List[int] = []
    arrivals: Dict[str, int] = {}
    pending: Optional[Tuple[int, int, int, Dict[str, int]]] = None

    def run_env(t: int, push) -> None:
        """Act on the request and output rails at t, pushing events due at t."""
        nonlocal prod_next, prod_phase, cons_phase, pending
        if prod_phase == "data" and prod_next < len(vectors) and values[req] == 1:
            bits = vectors[prod_next]
            for name, (r1, r0) in zip(in_names, in_rails):
                b = bits[name]
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
        touched.clear()

    limit = max_events if max_events is not None else 50 * (len(vectors) + 2) * max(len(names), 1)
    popped = 0                    # events popped before the current timestep
    # Pending events by time: buckets[t] lists events in push order and times
    # is a heap of the bucket keys.
    buckets: Dict[int, List[Event]] = {0: []}
    times = [0]
    rec_event = rec_events.append
    rec_time = rec_times.append
    t_max = (1 << 63) - 1                 # the largest time rec_times holds
    run_env(0, buckets[0].append)
    while times:
        t = heappop(times)
        if t > t_max:
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
            run_env(t, bucket.append)
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

    return Trace(records=Records(names, rec_events, rec_times), waves=waves,
                 completed=True, net_class=dict(system.net_class))


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


def parse_vectors(text: str) -> List[int]:
    """One input word per line, decimal or 0b-prefixed binary."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = int(line, 2) if line.startswith(("0b", "0B")) else int(line, 10)
        except ValueError:
            raise FormatError(lineno, f"bad vector {line!r}") from None
        if value < 0:
            raise FormatError(lineno, "vectors must be non-negative")
        out.append(value)
    return out


def load_vectors(path) -> List[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vectors(fh.read())
