"""Pipeline construction and handshake simulation.

Latency assertions use an independent earliest-arrival oracle computed
on the netlist DAG; multiplier words are checked against integer
arithmetic.
"""
import gc
import hashlib
import random
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl3d import pipeline, sim
from ncl3d.boolnet import parse_boolean_netlist
from ncl3d.checks import check_input_completeness, check_observability
from ncl3d.gates import spec_from_name
from ncl3d.model import default_calibration, default_tech
from ncl3d.netlist import Netlist, NetlistError, Port
from ncl3d.pipeline import build_pipeline, load_vectors, parse_vectors
from ncl3d.ppa import circuit_delay_assignment
from ncl3d.sim import (
    DeadlockError,
    DelayAssignment,
    EventLimitError,
    SimulationError,
    check_delay_insensitivity,
    measure,
    simulate,
)
from ncl3d.synth import build_array_multiplier, expand_dual_rail, operand_bits
from oracles import evaluate_outputs
from test_netlist import boolean_circuit


def identity_cl(bits):
    names = [f"x{i}" for i in range(bits)]
    return Netlist(names, [Port(f"y{i}", f"x{i}.1", f"x{i}.0") for i in range(bits)])


def and_pipeline(stages=1):
    return build_pipeline(expand_dual_rail(parse_boolean_netlist("AND2 a b -> z\n")), stages)


def broken_cl():
    # z never completes unless a and b agree; not input-complete on purpose
    nl = Netlist(["a", "b"], [])
    nl.add("TH22", ["a.1", "b.1"], "z.1", name="z1")
    nl.add("TH22", ["a.0", "b.0"], "z.0", name="z0")
    nl.bind_outputs([Port("z", "z.1", "z.0")])
    return nl


# ---------------------------------------------------------------- structure

def test_two_stage_identity_structure():
    sys2 = build_pipeline(identity_cl(2), 2)
    kinds = {}
    for g in sys2.netlist.gates:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    # 4 register bits of 2 TH22 each, plus one TH22 tree combine per bank
    assert kinds == {"TH22": 10, "TH12": 4}
    assert sys2.netlist.ctl_outputs == ("cd1", "cd2")
    assert sys2.inverters == {"ko1": "cd1", "ko2": "cd2"}
    # each bank's registers take the next bank's request; the last, the ack
    for bank, ki in ((1, "ko2"), (2, pipeline.ACK_NET)):
        regs = [g for g in sys2.netlist.gates if g.name.startswith(f"rg{bank}_")]
        assert len(regs) == 4 and {g.ins[1] for g in regs} == {ki}
    assert pipeline.ACK_NET == "ack"
    assert pipeline.REQUEST_NET == "ko1"
    assert sys2.netlist.ctl_inputs == ("ko2", pipeline.ACK_NET)


def test_single_bit_single_stage_degenerates_to_one_th12():
    sys1 = build_pipeline(identity_cl(1), 1)
    kinds = [g.kind for g in sys1.netlist.gates]
    assert kinds.count("TH12") == 1
    assert kinds.count("TH22") == 2
    assert len(kinds) == 3


def test_wide_bank_builds_a_balanced_tree():
    system = build_pipeline(identity_cl(8), 1)
    kinds = {}
    for g in system.netlist.gates:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    # 8 rail-ORs reduce 4+4 then 2
    assert kinds == {"TH22": 17, "TH12": 8, "TH44": 2}


def test_reset_state_requests_data_everywhere():
    system = and_pipeline()
    state = system.reset_state()
    assert state["ko1"] == 1
    assert state["ack"] == 1
    assert all(v == 0 for n, v in state.items() if n not in ("ko1", "ack"))


def test_build_rejects_bad_input():
    with pytest.raises(NetlistError):
        build_pipeline(identity_cl(1), 0)
    bad = Netlist(["a", "b"], [])
    bad.add("TH22", ["a.1", "b.1"], "ack")
    bad.bind_outputs([Port("z", "a.1", "a.0")])
    with pytest.raises(NetlistError):
        build_pipeline(bad, 1)


# build_pipeline checks only its argument: the plumbing it adds validates
# whenever the combinational netlist does.
@settings(max_examples=60, deadline=None)
@given(boolean_circuit(), st.integers(1, 3))
def test_pipelines_of_valid_circuits_validate(case, n_stages):
    bnl, _ = case
    assert build_pipeline(expand_dual_rail(bnl), n_stages).netlist.validate() == []


@pytest.mark.parametrize("width", range(2, 9))
def test_multiplier_pipelines_validate(width):
    assert build_pipeline(build_array_multiplier(width)).netlist.validate() == []


@pytest.mark.parametrize("name,n_stages", [("rg1_a_1", 1), ("cdet1_b0", 1), ("rg2_z_0", 2)])
def test_gate_named_like_plumbing_is_refused(name, n_stages):
    cl = Netlist(["a", "b"], [])
    cl.add("TH22", ["a.1", "b.1"], "z.1", name=name)
    cl.add("TH12", ["a.0", "b.0"], "z.0", name="z0")
    cl.bind_outputs([Port("z", "z.1", "z.0")])
    assert cl.validate() == []
    with pytest.raises(NetlistError, match=f"^duplicate instance name {name}$"):
        build_pipeline(cl, n_stages)


# ---------------------------------------------------------------- behavior

def test_identity_single_wave():
    system = build_pipeline(identity_cl(1), 1)
    trace = simulate(system, [1])
    assert trace.words() == [1]
    assert len(trace.waves) == 1
    y = [(t, v) for t, n, v in trace.records if n == system.netlist.outputs[0].rail1]
    assert [v for _, v in y] == [1, 0]


def test_identity_two_stages_streams_words():
    system = build_pipeline(identity_cl(2), 2)
    trace = simulate(system, [1, 2, 3, 0])
    assert trace.words() == [1, 2, 3, 0]


def test_and_pipeline_truth_table():
    system = and_pipeline()
    trace = simulate(system, [0, 1, 2, 3])
    assert trace.words() == [0, 0, 0, 1]


def test_forward_latency_is_additive_along_the_logic_path():
    text = "AND2 g1 a b -> t\nAND2 g2 t c -> z\n"
    system = build_pipeline(expand_dual_rail(parse_boolean_netlist(text)), 1)
    delays = DelayAssignment(per_gate={"t_r1": 3, "t_r0": 4, "z_r1": 5, "z_r0": 6})
    r = measure(simulate(system, [7], delays))       # a=b=c=1
    assert r.forward_latencies == (1 + 3 + 5,)
    r = measure(simulate(system, [6], delays))       # a=0: z=0 via the 0 rails
    assert r.forward_latencies == (1 + 4 + 6,)


def rise_oracle(system, vector_bits):
    """Earliest-arrival times of a monotone DATA wavefront, unit delays."""
    inf = float("inf")
    t = {net: -inf for net in system.netlist.ctl_inputs}
    for p in system.netlist.inputs:
        b = vector_bits[p.name]
        t[p.rail1] = 0 if b else inf
        t[p.rail0] = inf if b else 0
    for g in system.netlist.topo_order():
        spec = spec_from_name(g.kind)
        best = inf
        for prod in spec.products:
            arr = max(t.get(g.ins[i], inf) for i in prod)
            best = min(best, arr)
        t[g.out] = best + 1 if best < inf else inf
    arrivals = []
    for p in system.netlist.outputs:
        times = [t.get(p.rail1, inf), t.get(p.rail0, inf)]
        arrivals.append(min(times))
    return max(arrivals)


@pytest.mark.parametrize("x,y", [(15, 15), (7, 9), (1, 1), (13, 6), (0, 11)])
def test_multiplier_latency_matches_longest_path(x, y):
    system = build_pipeline(build_array_multiplier(4), 1)
    bits = {f"a{i}": (x >> i) & 1 for i in range(4)}
    bits.update({f"b{i}": (y >> i) & 1 for i in range(4)})
    trace = simulate(system, [bits])
    assert trace.words() == [x * y]
    r = measure(trace)
    assert r.forward_latencies == (rise_oracle(system, bits),)


def test_multiplier_pipeline_streams_products():
    system = build_pipeline(build_array_multiplier(4), 1)
    vectors = [x | (y << 4) for x, y in [(7, 9), (15, 15), (0, 5), (12, 11), (3, 3)]]
    trace = simulate(system, vectors)
    assert trace.words() == [7 * 9, 15 * 15, 0, 12 * 11, 3 * 3]
    # one completion-detector round trip per vector
    cd = [v for _, n, v in trace.records if n == "cd1"]
    assert cd == [1, 0] * len(vectors)


def causal_mismatches(system, trace, delays=None):
    """Nets whose recorded transitions differ from those their drivers cause.

    An independent replay of ``trace`` under transport semantics.  Walking
    the records in order, a gate whose state flips at t (by its sum of
    products, not its truth table) predicts its new output value at t plus
    that edge's delay, and a completion inverter predicts the negation of
    its source at t.  A gate's inputs are a bitmask, pin i at bit i, kept
    up to date as each net changes; a product holds when the mask covers
    the product's own mask.  A net's caused transitions are its predictions
    sorted by (time, order made), less those that repeat the running value.
    Nets the environment drives are not checked.
    """
    delays = delays or DelayAssignment()
    value = system.reset_state()
    readers, predicted = {}, {}
    gates = system.netlist.gates
    state = [value[g.out] for g in gates]
    mask = [sum(value[net] << i for i, net in enumerate(g.ins)) for g in gates]
    for k, g in enumerate(gates):
        pins = {}
        for i, net in enumerate(g.ins):
            pins[net] = pins.get(net, 0) | 1 << i
        products = [sum(1 << i for i in prod) for prod in spec_from_name(g.kind).products]
        d = delays.per_gate.get(g.name, delays.default)
        rise, fall = d if isinstance(d, tuple) else (d, d)
        for net, bits in pins.items():     # the delay to a new value v is edge[v]
            readers.setdefault(net, []).append((k, bits, products, (fall, rise), g.out))
        predicted[g.out] = []
    inverters = {}
    for out, src in system.inverters.items():
        inverters.setdefault(src, []).append(out)
        predicted[out] = []
    start = {net: value[net] for net in predicted}
    recorded = {net: [] for net in predicted}
    for seq, (t, net, v) in enumerate(trace.records):
        value[net] = v
        if net in recorded:
            recorded[net].append((t, v))
        for out in inverters.get(net, ()):
            predicted[out].append((t, seq, 1 - v))
        for k, bits, products, edge, out in readers.get(net, ()):
            m = mask[k] = mask[k] | bits if v else mask[k] & ~bits
            if any(m & p == p for p in products):
                nxt = 1
            else:
                nxt = state[k] if m else 0
            if nxt != state[k]:
                state[k] = nxt
                predicted[out].append((t + edge[nxt], seq, nxt))
    bad = []
    for net, preds in predicted.items():
        running, caused = start[net], []
        for t, _, v in sorted(preds):
            if v != running:
                caused.append((t, v))
                running = v
        if caused != recorded[net]:
            bad.append(net)
    return bad


class RequestFirst(Netlist):
    """A netlist that numbers the first bank's request net 0.  Input rails
    come first in every Netlist, so in a built pipeline no inverter drives
    net 0."""

    def _ends(self):
        head, tail = super()._ends()
        return (pipeline.REQUEST_NET, *head), tail


def test_a_run_does_not_depend_on_how_the_nets_are_numbered():
    """The same pipeline, hand-made with its request inverter's output as
    net 0, runs exactly as the built one."""
    system = and_pipeline()
    nl = system.netlist
    first = RequestFirst(nl.inputs, nl.outputs, nl.ctl_inputs, nl.ctl_outputs)
    for g in nl.gates:
        first.add(g.kind, g.ins, g.out, name=g.name)
    moved = system._replace(netlist=first)
    assert first.nets[0] == "ko1" and nl.nets[0] != "ko1" and "ko1" in system.inverters
    want, got = (simulate(s, [3, 1, 0, 2], DelayAssignment(per_gate={"z_r1": 4}, default=2))
                 for s in (system, moved))
    assert got.words() == want.words() == [1, 0, 0, 0]
    assert (list(got.records), got.waves) == (list(want.records), want.waves)


@settings(max_examples=40, deadline=None)
@given(case=boolean_circuit(), words=st.lists(st.integers(0, 15), max_size=6),
       stages=st.integers(1, 2), seed=st.integers(0, 2**16), split=st.booleans())
def test_random_delays_reproduce_boolean_evaluation(case, words, stages, seed, split):
    """The dual-rail expansion of a random Boolean netlist, pipelined and
    simulated under random per-gate delays (one per gate, or a (rise, fall)
    pair), outputs the Boolean words, and every gate transition is caused."""
    bnl, _ = case
    system = build_pipeline(expand_dual_rail(bnl), stages)
    vectors = [w % (1 << len(bnl.inputs)) for w in words]
    names = [g.name for g in system.netlist.gates]
    rng = random.Random(seed)
    if split:
        delays = DelayAssignment(per_gate={n: (rng.randint(1, 20), rng.randint(1, 20))
                                           for n in names})
    else:
        delays = DelayAssignment.uniform_random(names, rng)
    expected = []
    for v in vectors:
        outs = evaluate_outputs(bnl, {x: v >> i & 1 for i, x in enumerate(bnl.inputs)})
        expected.append(sum(b << i for i, b in enumerate(outs)))
    trace = simulate(system, vectors, delays)
    assert trace.words() == expected
    assert len(trace.records) == sum(trace.transition_counts().values())
    assert causal_mismatches(system, trace, delays) == []


def test_cycle_time_is_stable_for_a_steady_stream():
    system = and_pipeline()
    r = measure(simulate(system, [3, 3, 3, 3, 3]))
    assert len(set(r.cycle_times)) == 1
    assert r.cycle_times[0] > 0


def test_trace_per_net_times_increase_and_values_alternate():
    system = build_pipeline(build_array_multiplier(2), 1)
    trace = simulate(system, [5, 10, 15])
    seen = {}
    for t, net, v in trace.records:
        if net in seen:
            pt, pv = seen[net]
            assert t > pt, net
            assert v != pv, net
        seen[net] = (t, v)


def test_net_classes_cover_every_recorded_net():
    system = build_pipeline(build_array_multiplier(2), 1)
    r = measure(simulate(system, [5, 15]))
    assert set(r.transitions_by_class) <= {"input", "register", "logic",
                                           "completion", "handshake"}
    assert r.total_transitions == sum(r.transitions_by_class.values())


def test_empty_vector_list_is_a_clean_run():
    trace = simulate(and_pipeline(), [])
    assert trace.records == [] and trace.waves == []
    check_trace_columns(trace)
    r = measure(trace)
    assert r.worst_forward_latency is None and r.cycle_times == ()


def test_determinism_bit_for_bit():
    delays = DelayAssignment(per_gate={"z_r1": 4}, default=2)
    a = to_tsv(simulate(and_pipeline(), [3, 1, 0], delays))
    b = to_tsv(simulate(and_pipeline(), [3, 1, 0], delays))
    assert a == b


def test_incomplete_circuit_deadlocks_with_named_output():
    system = build_pipeline(broken_cl(), 1)
    with pytest.raises(DeadlockError) as err:
        simulate(system, [1])                       # a=1, b=0: z never arrives
    assert err.value.stalled_net == "z"
    # a=b=1 completes fine; the defect is input-dependent
    assert simulate(system, [3]).words() == [1]


def test_a_bank_that_never_completes_stalls_the_producer_holding_its_word():
    # bank 1's detector reads only the 1-rail, so a DATA0 word never completes
    # it and the request never drops to ask for NULL
    system = build_pipeline(identity_cl(1), 1)
    old = system.netlist
    nl = Netlist(old.inputs, old.outputs, old.ctl_inputs, old.ctl_outputs)
    for g in old.gates:
        if g.name == "cdet1_b0":
            nl.add("TH22", ["rg1.x0.1", "rg1.x0.1"], g.out, name=g.name)
        else:
            nl.add(g.kind, g.ins, g.out, name=g.name)
    stuck = pipeline.PipelineSystem(nl, system.inverters, system.net_class)
    assert simulate(stuck, [1]).words() == [1]
    with pytest.raises(DeadlockError) as err:
        simulate(stuck, [1, 0, 1])
    assert str(err.value) == ("deadlock waiting on ko1: producer holding vector 1, "
                              "request stuck at 1")


def test_event_limit_guards_against_livelock():
    with pytest.raises(EventLimitError) as err:
        simulate(and_pipeline(), [3, 3], max_events=5)
    assert str(err.value) == "exceeded 5 events at t=2; circuit is live-locked"


def test_live_lock_inside_one_timestep_hits_the_event_limit():
    """A ring of three zero-delay inverters through ack oscillates without
    time advancing; the event limit must still stop the run."""
    system = and_pipeline()
    ring = system._replace(inverters={**system.inverters, "ring.q": "ack",
                                      "ring.r": "ring.q", "ack": "ring.r"})

    def hang(signum, frame):
        raise TimeoutError("simulate did not stop a live-lock within one timestep")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(EventLimitError) as err:
            simulate(ring, [3, 1, 2])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(err.value) == "exceeded 4250 events at t=8; circuit is live-locked"


def test_changing_the_netlist_after_a_run_changes_the_next_run():
    """simulate's per-netlist cache follows a gate added after a run."""
    def spied(system):
        system.netlist.add("TH12", list(system.netlist.outputs[0].rails), "spy", name="spy")
        return system

    system = and_pipeline()
    simulate(system, [3, 1])
    trace = simulate(spied(system), [3, 1])
    assert trace.records == simulate(spied(and_pipeline()), [3, 1]).records
    assert trace.transition_counts()["spy"] == 4


def test_event_time_past_64_bits_is_a_simulation_error():
    with pytest.raises(SimulationError, match="does not fit the trace's 64-bit time column"):
        simulate(and_pipeline(), [3], DelayAssignment(default=2**62))


# ------------------------------------------------------- delay insensitivity

def test_di_check_passes_for_template_logic():
    report = check_delay_insensitivity(and_pipeline(), [0, 3, 1, 2], n_trials=25, seed=11)
    assert report.passed
    assert report.words == (0, 1, 0, 0)
    assert report.counterexample is None


def test_di_check_reports_counterexample_for_broken_logic():
    system = build_pipeline(broken_cl(), 1)
    report = check_delay_insensitivity(system, [3, 1], n_trials=5, seed=3)
    assert not report.passed
    assert report.counterexample is not None
    assert "deadlock" in report.detail


def test_di_check_multiplier_short_run():
    system = build_pipeline(build_array_multiplier(2), 1)
    report = check_delay_insensitivity(system, [15, 6, 9], n_trials=10, seed=1)
    assert report.passed


def orphan_mutant():
    """The width-3 multiplier with ``c2_0_r1``, the DATA1 rail of the OR of
    two half-adder carries, relaxed from THand0 to a TH12 on its first two
    inputs: ``fa2_c1_r0`` and ``fa2_c2_r0`` may then switch in a wave in
    which no output observes them."""
    base = build_array_multiplier(3)
    nl = Netlist([p.name for p in base.inputs], base.outputs)
    for g in base.gates:
        if g.name == "c2_0_r1":
            assert (g.kind, g.ins) == ("THand0", ("fa2_c1.1", "fa2_c2.1", "fa2_c1.0", "fa2_c2.0"))
            nl.add("TH12", g.ins[:2], g.out, name=g.name)
        else:
            nl.add(g.kind, g.ins, g.out, name=g.name)
    return nl


def test_an_orphan_deadlocks_the_pipeline_that_the_checkers_pass():
    """A delay-insensitivity defect that unit delays, the input-completeness
    check and the observability check all miss: one slow orphan gate
    outlives its wave and the producer stalls."""
    nl = orphan_mutant()
    system = build_pipeline(nl, 1)
    pairs = [(x, y) for x in range(8) for y in range(8)]
    vectors = [operand_bits(3, x, y) for x, y in pairs]
    assert simulate(system, vectors).words() == [x * y for x, y in pairs]
    slow = DelayAssignment(per_gate={"fa2_c2_r0": 50})
    with pytest.raises(DeadlockError) as err:
        simulate(system, vectors, slow)
    assert str(err.value) == ("deadlock waiting on ko1: producer has 33 vectors left, "
                              "request stuck at 0")
    assert check_input_completeness(nl) == [] and check_observability(nl) == []


# ----------------------------------------------------------------- vectors

def test_vector_parsing(tmp_path):
    text = "5\n0b101\n# comment\n\n7   # trailing\n"
    assert parse_vectors(text) == [5, 5, 7]
    path = tmp_path / "v.txt"
    path.write_text(text)
    assert load_vectors(path) == [5, 5, 7]


@pytest.mark.parametrize("bad", ["abc", "-1", "0b21", "1.5"])
def test_vector_parsing_rejects(bad):
    from ncl3d.netlist import FormatError
    with pytest.raises(FormatError):
        parse_vectors(bad)


@pytest.mark.parametrize("delay", [0, -1, (2, 0), (3,), (1, 2, 3), True, (1, True), 1.5,
                                   (2.0, 3), [2, 3], "2", None], ids=repr)
def test_delay_assignment_rejects_malformed_delays(delay):
    with pytest.raises(ValueError):
        DelayAssignment(default=delay)
    with pytest.raises(ValueError):
        DelayAssignment(per_gate={"g": delay})


@pytest.mark.parametrize("split_min", [0, 1 << 62], ids=["split", "serial"])
def test_delays_for_instances_the_pipeline_lacks_are_refused(monkeypatch, split_min):
    """Delays keyed by net names reach no gate, so every gate would run at
    the default delay: the call refuses them, split or not."""
    system = build_pipeline(build_array_multiplier(4))
    monkeypatch.setattr(sim, "SPLIT_MIN", split_min)
    delays = DelayAssignment.uniform_random(system.netlist.nets, random.Random(42))
    with pytest.raises(ValueError) as err:
        simulate(system, [0, 5], delays)
    assert str(err.value) == ("delays name 172 instances that are not gates of the "
                              "pipeline: a0.0, a0.1, a1.0, a1.1, ...")


def test_delay_assignment_validation():
    d = DelayAssignment(per_gate={"g": (2, 9)})
    assert d.per_gate == {"g": (2, 9)} and d.default == 1


def test_delay_assignments_do_not_share_a_map():
    a, b = DelayAssignment(), DelayAssignment(default=3)
    assert a.per_gate == b.per_gate == {} and a.per_gate is not b.per_gate
    with pytest.raises(AttributeError):
        a.default = 2


def test_vectors_validate_against_port_count():
    with pytest.raises(ValueError):
        simulate(and_pipeline(), [4])               # two inputs, max word 3
    with pytest.raises(ValueError):
        simulate(and_pipeline(), [{"a": 1}])        # missing b


def wave_digest(trace):
    """SHA-256 over every wave: its position, the three times, the packed value and
    the arrival times in the order the trace recorded them."""
    lines = [f"{k}\t{w.t_applied}\t{w.t_data_complete}\t{w.t_null_complete}"
             f"\t{w.value}\t{list(w.arrivals.items())}" for k, w in enumerate(trace.waves)]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def to_tsv(trace):
    """The records as tab-separated rows under a header: the text every
    golden trace digest is taken over."""
    lines = ["time\tnet\tvalue"]
    lines += [f"{t}\t{n}\t{v}" for t, n, v in trace.records]
    return "\n".join(lines) + "\n"


def tsv_digest(trace):
    return hashlib.sha256(to_tsv(trace).encode()).hexdigest()


def check_trace_columns(trace):
    """The records view and the column-wise transition counts agree with the
    records parsed back from to_tsv() (whose digest the golden tests pin)
    and with the per-record counting loop the column count replaced."""
    decoded = [(int(t), n, int(v)) for t, n, v in
               (row.split("\t") for row in to_tsv(trace).splitlines()[1:])]
    counts = {}
    for _, net, _ in decoded:
        counts[net] = counts.get(net, 0) + 1
    assert list(trace.transition_counts().items()) == list(counts.items())
    view = trace.records
    n = len(decoded)
    assert len(view) == n
    assert list(view) == decoded and view == decoded and decoded == view
    assert view != decoded + [(0, "x", 0)]
    for k in (0, 1, n // 2, -1, -2, -n):
        if -n <= k < n:
            assert view[k] == decoded[k]
    for s in (slice(3, 10), slice(-5, None), slice(None, None, 7), slice(10, 2, -3),
              slice(n, None)):
        assert view[s] == decoded[s]
    with pytest.raises(IndexError):
        view[n]


# SHA-256 of to_tsv(trace) and of the wave bookkeeping for the width-4
# multiplier pipeline over all 256 operand pairs, pinned from the reference
# simulator.  Any change to event order, transport semantics, handshake
# bookkeeping or trace formatting moves these digests.  "split_random"
# gives every gate its own seeded (rise, fall) pair, so a simulator that
# schedules an edge with the other edge's delay moves it.
GOLDEN_WAVE_SHA256 = {
    "unit": "47c94482781a57ca383c05676e53006b613180a6635dc37b0479febe8077d5ef",
    "uniform_random": "f6c04a49945668e90a5ccde34c3b63828a46066611d0ced92f201d94b5e4b71d",
    "split_random": "f4655abb051d3d8e79b2c75db919334b4ef53ae7d70d9f7d0ecc5989d93c383c",
    "m3d_0.7": "c2168c8dd66fa32611b8b20dcb96a5262656a48f154b394b29decc7d5b457201",
}
GOLDEN_TRACE_SHA256 = {
    "unit": "7d2bb83e5e7a87514b779e4340cb4d94e43e67ae5ecb8aa24dbef4c9eaa2747d",
    "uniform_random": "3760ff2bb198592f4421c2dfcdb2dec523d5f4dbbe6e1feab21b75b6d05b46bf",
    "split_random": "5009f1ba5f0106324c898bf7bd3fa06a357f1af93cd8d82b51f3c7280692db5d",
    "m3d_0.7": "af538b5f4c49ad0bedc5e6e012bcef6f71c096eccab6527c4f741c9951e08c88",
}


@pytest.fixture(scope="module")
def mult4():
    cl = build_array_multiplier(4)
    return cl, build_pipeline(cl)


@pytest.mark.parametrize("model", sorted(GOLDEN_TRACE_SHA256))
def test_golden_trace_digest(mult4, model):
    cl, system = mult4
    names = [g.name for g in system.netlist.gates]
    if model == "unit":
        delays = None
    elif model == "uniform_random":
        delays = DelayAssignment.uniform_random(names, random.Random(0))
    elif model == "split_random":
        rng = random.Random(4)
        delays = DelayAssignment(per_gate={n: (rng.randint(1, 20), rng.randint(1, 20))
                                           for n in names})
    else:
        delays = circuit_delay_assignment(system, cl, default_tech(),
                                          default_calibration(), "M3D", 0.7)
    vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
    trace = simulate(system, vectors, delays)
    assert trace.words() == [x * y for x in range(16) for y in range(16)]
    assert tsv_digest(trace) == GOLDEN_TRACE_SHA256[model]
    assert wave_digest(trace) == GOLDEN_WAVE_SHA256[model]
    check_trace_columns(trace)
    assert causal_mismatches(system, trace, delays) == []


def test_golden_three_stage_pipeline_digest():
    system = build_pipeline(build_array_multiplier(4), 3)
    names = [g.name for g in system.netlist.gates]
    delays = DelayAssignment.uniform_random(names, random.Random(1))
    vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
    trace = simulate(system, vectors, delays)
    assert trace.words() == [x * y for x in range(16) for y in range(16)]
    assert tsv_digest(trace) == "ed2e52f68815625b5ec21bc7bdf65661f46f478b22cf84af94717f2a9ef3cb8c"
    assert wave_digest(trace) == "ee580c6d53db24a1c2f3be156871685369d318ee71c67720992836346e2343a8"
    check_trace_columns(trace)
    assert causal_mismatches(system, trace, delays) == []


def test_golden_shared_output_rails_digest():
    """x and BUF(x) share both rails, INV(x) swaps them and INV(a) swaps a
    registered input's rails: one rail change completes several outputs."""
    bnl = parse_boolean_netlist("input a b\noutput x y w n\n"
                                "AND2 a b -> x\nBUF x -> y\nINV x -> w\nINV a -> n\n")
    system = build_pipeline(expand_dual_rail(bnl), 1)
    assert system.netlist.outputs[0].rails == system.netlist.outputs[1].rails
    assert system.netlist.outputs[2].rails == system.netlist.outputs[0].rails[::-1]
    names = [g.name for g in system.netlist.gates]
    delays = DelayAssignment.uniform_random(names, random.Random(2))
    vectors = [0, 1, 2, 3, 3, 0, 2, 1]
    trace = simulate(system, vectors, delays)
    expected = []
    for v in vectors:
        outs = evaluate_outputs(bnl, {"a": v & 1, "b": v >> 1 & 1})
        expected.append(sum(b << i for i, b in enumerate(outs)))
    assert trace.words() == expected
    assert tsv_digest(trace) == "67c783086bd007982a1bb1a0d2412d266a5bdf302af6928176415dc8b467f4de"
    assert wave_digest(trace) == "48937186a331c8e8fe75fd6d524f66993702fad7847ce8ba8d0bfc602142ab50"
    check_trace_columns(trace)
    assert causal_mismatches(system, trace, delays) == []


def test_causal_replay_rejects_a_trace_under_other_delays():
    """The replay checker has power: a split-delay trace replayed against
    its delays with rise and fall swapped, or with one gate's rise one ps
    late, fails on the gates whose timing moved."""
    system = build_pipeline(build_array_multiplier(2), 1)
    rng = random.Random(5)
    per = {g.name: (rng.randint(1, 20), rng.randint(1, 20)) for g in system.netlist.gates}
    delays = DelayAssignment(per_gate=per)
    trace = simulate(system, list(range(16)), delays)
    assert causal_mismatches(system, trace, delays) == []
    swapped = DelayAssignment(per_gate={n: (f, r) for n, (r, f) in per.items()})
    assert len(causal_mismatches(system, trace, swapped)) > 1
    gate = system.netlist.gates[-1]
    rise, fall = per[gate.name]
    late = DelayAssignment(per_gate={**per, gate.name: (rise + 1, fall)})
    assert causal_mismatches(system, trace, late) == [gate.out]


def traced_run(system, vectors):
    """simulate's trace, and the bytes the trace holds and the most bytes
    traced during the run, above what was traced before it."""
    simulate(system, vectors[:1])                 # fill the gate-table caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = simulate(system, vectors)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trace, held - before, peak - before


def test_trace_memory_per_transition(mult4):
    """The width-4 multiplier over its 256 vectors with unit delays (about
    47.6k transitions): the returned Trace holds at most 32 bytes per
    transition.  A fresh (t, name, value) tuple per record took about 90."""
    _, system = mult4
    vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
    trace, held, _ = traced_run(system, vectors)
    assert len(trace.records) > 40_000
    assert held <= 32 * len(trace.records), held / len(trace.records)


@pytest.mark.usefixtures("no_child_left")
def test_split_trace_memory_per_transition(monkeypatch, mult4):
    """The same run split in two (timesplit): the stitched trace holds no
    event or time column (about 5 bytes a transition, its waves and
    counts), under the serial bound of 32, and the parent's traced peak
    during the run stays under it too (about 12 a transition: its own
    half's columns)."""
    from ncl3d import forkmap
    _, system = mult4
    vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
    monkeypatch.setattr(forkmap, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sim, "SPLIT_MIN", 0)
    trace, held, peak = traced_run(system, vectors)
    assert callable(trace.records._columns)            # stitched, no column held
    assert held <= 32 * len(trace.records), held / len(trace.records)
    assert peak <= 32 * len(trace.records), peak / len(trace.records)
