"""Netlist graph, settle fixpoint, checkers, and text format.

The dual-rail AND template used throughout is built by hand here (not via
the synthesis module) so these tests stay independent of it. Its expected
truth table is derived from plain Boolean AND.
"""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncl3d.boolnet import BOOL_KINDS, BoolNetlist
from ncl3d.checks import ICViolation, check_input_completeness, check_observability, settle
from ncl3d.netlist import (
    CycleError,
    FormatError,
    Netlist,
    NetlistError,
    Port,
    parse_netlist,
    serialize_netlist,
)
from ncl3d.synth import expand_dual_rail
from oracles import DATA, DATA0, INVALID, NULL, encode_word, evaluate_outputs, output_word


def and_template() -> Netlist:
    nl = Netlist(["A", "B"], ["Z"])
    nl.add("TH22", ["A.1", "B.1"], "Z.1", name="z1")
    nl.add("THand0", ["A.0", "B.0", "A.1", "B.1"], "Z.0", name="z0")
    return nl


def relaxed_and_template() -> Netlist:
    # Deliberately input-incomplete: the zero rail fires from either input.
    nl = Netlist(["A", "B"], ["Z"])
    nl.add("TH22", ["A.1", "B.1"], "Z.1", name="z1")
    nl.add("TH12", ["A.0", "B.0"], "Z.0", name="z0")
    return nl


def test_settle_all_null_is_all_zero():
    nl = and_template()
    vals = settle(nl, {})
    assert set(vals.values()) == {0}


@pytest.mark.parametrize("a,b", list(itertools.product((0, 1), repeat=2)))
def test_and_template_truth_table(a, b):
    nl = and_template()
    vals = settle(nl, encode_word(nl.inputs, {"A": a, "B": b}))
    assert output_word(nl, vals)["Z"] == DATA[a & b]


def test_settle_is_idempotent_and_hysteresis_holds():
    nl = and_template()
    data = settle(nl, encode_word(nl.inputs, {"A": 1, "B": 1}))
    again = settle(nl, encode_word(nl.inputs, {"A": 1, "B": 1}), data)
    assert again == data
    # drop one input: TH22 holds its 1 until both rails fall
    partial = settle(nl, encode_word(nl.inputs, {"A": 1}), data)
    assert partial["Z.1"] == 1
    null = settle(nl, encode_word(nl.inputs, {}), partial)
    assert set(null.values()) == {0}


def test_validate_reports_each_structural_defect():
    nl = Netlist(["A"], ["Z"])
    nl.add("TH22", ["A.1", "A.0"], "Z.1", name="g1")
    nl.add("TH12", ["A.1", "A.0"], "Z.1", name="g2")       # second driver
    nl.add("TH22", ["A.1"], "Z.0", name="g3")              # arity mismatch
    nl.add("NOPE99", ["A.1"], "n1", name="g4")             # unknown kind
    nl.add("TH22", ["n2", "A.0"], "n3", name="g5")         # n2 undriven
    codes = {d.code for d in nl.validate()}
    assert codes == {"multiple-drivers", "arity-mismatch", "unknown-gate", "undriven-net"}


def test_validate_asks_for_an_input_and_an_output_port():
    nl = Netlist([], ["Z"])
    assert [str(d) for d in nl.validate()] == [
        "missing-port: input (the netlist has no input port)",
        "undriven-net: Z.1 (no gate output or primary input drives it)",
        "undriven-net: Z.0 (no gate output or primary input drives it)"]
    nl = Netlist(["A"], [])
    nl.add("TH12", ["A.1", "A.0"], "x")
    assert [str(d) for d in nl.validate()] == [
        "missing-port: output (the netlist has no output port)"]
    assert [str(d) for d in BoolNetlist().validate()] == [
        "missing-port: input (the netlist has no input port)",
        "missing-port: output (the netlist has no output port)"]


def test_cycle_detection():
    nl = Netlist(["A"], ["Z"])
    nl.add("TH22", ["A.1", "x"], "y", name="g1")
    nl.add("TH22", ["y", "A.0"], "x", name="g2")
    nl.add("TH12", ["y", "x"], "Z.1", name="g3")
    nl.add("TH12", ["A.0", "A.1"], "Z.0", name="g4")
    assert any(d.code == "cycle" for d in nl.validate())
    with pytest.raises(CycleError):
        nl.topo_order()
    with pytest.raises(NetlistError):
        check_input_completeness(nl)


def test_second_driver_does_not_hide_a_cycle():
    """x has two drivers, and the cycle g3 -> g4 -> g3 runs through x's
    reader g3: each of x's drivers used to release g3 once."""
    nl = parse_netlist("input A\noutput Z\n"
                       "TH11 g1 A.1 -> x\nTH11 g2 A.1 -> x\n"
                       "TH22 g3 x y -> z\nTH22 g4 z A.0 -> y\n"
                       "TH12 g5 z A.0 -> Z.1\nTH11 g6 A.0 -> Z.0\n")
    assert [d.code for d in nl.validate()] == ["multiple-drivers", "cycle"]
    with pytest.raises(CycleError, match="g3, g4, g5$"):
        nl.topo_order()


def test_a_repeated_pin_waits_for_every_driver():
    """gz reads x twice and y once; each of x's two reader entries used to
    release both pins, so gz was released before y, or never."""
    nl = parse_netlist("input A B\noutput Z\n"
                       "TH12 gx A.1 B.1 -> x\nTH12 gw A.0 B.0 -> w\nTH11 gy w -> y\n"
                       "TH33 gz x x y -> Z.1\nTH12 g0 A.0 B.0 -> Z.0\n")
    assert nl.validate() == []
    assert [g.name for g in nl.topo_order()] == ["gx", "gw", "g0", "gy", "gz"]
    nl = parse_netlist("input A B\noutput Z\n"
                       "TH12 gw A.0 B.0 -> w\nTH11 gy w -> y\nTH12 gx A.1 B.1 -> x\n"
                       "TH33 gz x y x -> Z.1\nTH12 g0 A.0 B.0 -> Z.0\n")
    assert [g.name for g in nl.topo_order()] == ["gw", "gx", "g0", "gy", "gz"]


def test_settle_refuses_a_second_driver():
    nl = Netlist(["A"], ["Z"])
    nl.add("TH11", ["A.1"], "Z.1", name="g1")
    nl.add("TH11", ["A.0"], "Z.1", name="g2")   # second driver of Z.1
    nl.add("TH11", ["A.0"], "Z.0", name="g3")
    with pytest.raises(NetlistError, match=r"^net Z\.1 has a second driver, gate g2$"):
        settle(nl, encode_word(nl.inputs, {"A": 1}))
    # a gate that drives an input rail or a control input is its second driver
    for decl, net in (("", "A.1"), ("ctlin ki\n", "ki")):
        nl = parse_netlist(f"input A B\noutput Z\n{decl}TH11 g B.1 -> {net}\n"
                           "TH11 z1 A.1 -> Z.1\nTH11 z0 A.0 -> Z.0\n")
        with pytest.raises(NetlistError, match=rf"^net {net} has a second driver, gate g$"):
            settle(nl, encode_word(nl.inputs, {"A": 1, "B": 1}))
        assert [str(d) for d in nl.validate()] == [
            f"multiple-drivers: {net} (an input and a gate drive this net)"]


def test_and_template_passes_both_checkers():
    nl = and_template()
    assert check_input_completeness(nl) == []
    assert check_observability(nl) == []


def test_relaxed_and_is_flagged_input_incomplete():
    nl = relaxed_and_template()
    violations = check_input_completeness(nl)
    # From the NULL state, a lone DATA0 on either input already completes Z.
    assert ICViolation("null-to-data", (0, 0), ("A",)) in violations
    expected = {
        # TH12 fires from a single zero rail
        ("null-to-data", (0, 0), ("A",)),
        ("null-to-data", (0, 0), ("B",)),
        ("null-to-data", (0, 1), ("A",)),
        ("null-to-data", (1, 0), ("B",)),
        # and resets from a single dropped zero rail (the other is DATA1)
        ("data-to-null", (0, 1), ("A",)),
        ("data-to-null", (1, 0), ("B",)),
    }
    assert {(v.direction, v.vector, v.subset) for v in violations} == expected


def test_sampled_mode_finds_the_same_relaxed_and_defect():
    violations = check_input_completeness(relaxed_and_template(), trials=64, seed=7)
    assert any(v.direction == "null-to-data" for v in violations)


def test_exhaustive_guard_trips():
    nl = Netlist([f"I{i}" for i in range(13)], ["Z"])
    nl.add("TH12", ["I0.1", "I1.1"], "Z.1", name="g1")
    nl.add("TH12", ["I0.0", "I1.0"], "Z.0", name="g2")
    with pytest.raises(NetlistError):
        check_input_completeness(nl)


def test_single_input_buffer_is_trivially_complete():
    nl = Netlist(["A"], ["Z"])
    nl.add("TH11", ["A.1"], "Z.1", name="b1")
    nl.add("TH11", ["A.0"], "Z.0", name="b0")
    assert check_input_completeness(nl) == []


def test_dead_gate_is_flagged_unobservable():
    nl = and_template()
    nl.add("TH12", ["A.1", "B.0"], "dead", name="spur")
    flagged = check_observability(nl)
    assert [v.gate for v in flagged] == ["spur"]


def test_output_port_may_bind_to_swapped_rails():
    # An inverter realized as a rail swap: Z reads A's rails crossed.
    nl = Netlist(["A"], [Port("Z", "A.0", "A.1")])
    assert nl.validate() == []
    vals = settle(nl, encode_word(nl.inputs, {"A": 1}))
    assert output_word(nl, vals)["Z"] == DATA0


NCL_TEXT = """\
input A B
output Z
TH22 z1 A.1 B.1 -> Z.1
THand0 z0 A.0 B.0 A.1 B.1 -> Z.0
"""


def test_parse_and_serialize_round_trip():
    nl = parse_netlist(NCL_TEXT)
    assert serialize_netlist(nl) == NCL_TEXT
    assert [g.kind for g in nl.gates] == ["TH22", "THand0"]
    assert check_input_completeness(nl) == []
    # comments and odd whitespace do not affect the canonical form
    noisy = "# header\n\ninput   A B\noutput Z   # ports\n" \
            "TH22 z1 A.1 B.1 -> Z.1\nTHand0 z0 A.0 B.0 A.1 B.1 -> Z.0\n"
    assert serialize_netlist(parse_netlist(noisy)) == NCL_TEXT


def test_round_trip_preserves_rebound_output_rails():
    nl = Netlist(["A"], [Port("Z", "A.0", "A.1")])
    text = serialize_netlist(nl)
    assert "Z=A.0,A.1" in text
    again = parse_netlist(text)
    assert again.outputs == nl.outputs
    assert serialize_netlist(again) == text


@pytest.mark.parametrize("bad,lineno", [
    ("input A\nTH22 g1 A.1 -> \n", 2),
    ("input A\noutput Z\nTH22 g1 A.1 A.0 Z.1\n", 3),
    ("input A\noutput Z\nTH99 g1 A.1 A.0 -> Z.1\n", 3),
    ("output Z\nTH11 g1 x -> Z.1\n", 1),
    ("input A\noutput Z=only\nTH11 g1 A.1 -> Z.1\n", 2),
    ("input A A\noutput Z\nTH11 g1 A.1 -> Z.1\n", 1),
    ("input A\noutput Z\noutput Y Z\nTH11 g1 A.1 -> Z.1\n", 3),
])
def test_parse_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(FormatError) as err:
        parse_netlist(bad)
    assert err.value.lineno == lineno


@pytest.mark.parametrize("bad,message", [
    ("input A\noutput Z\nTH11 g1 -> Z.1\n",
     "line 3: gate line needs kind, instance, inputs, '->', output"),
    ("input A\nTH11 g1 A.1 -> Z.1\n", "line 1: no output declaration"),
], ids=["gate-without-inputs", "no-output-line"])
def test_parse_errors_name_the_rule(bad, message):
    with pytest.raises(FormatError) as err:
        parse_netlist(bad)
    assert str(err.value) == message


def test_control_nets_round_trip():
    text = ("input A\noutput Z\nctlin ki kj\nctlout ko\n"
            "TH22 g1 A.1 ki -> Z.1\nTH22 g0 A.0 kj -> Z.0\nTH12 g2 Z.1 Z.0 -> ko\n")
    nl = parse_netlist(text)
    assert (nl.ctl_inputs, nl.ctl_outputs) == (("ki", "kj"), ("ko",))
    assert serialize_netlist(nl) == text


def test_duplicate_port_names_rejected():
    for inputs, outputs in ((["A", "A"], ["Z"]), (["A"], ["Z", "Z"])):
        with pytest.raises(NetlistError, match="^duplicate (in|out)put port [AZ]$"):
            Netlist(inputs, outputs)
    nl = Netlist(["A"], ["Z"])
    with pytest.raises(NetlistError, match="^duplicate output port Z$"):
        nl.bind_outputs([Port("Z", "A.1", "A.0"), Port("Z", "A.0", "A.1")])


def test_input_port_must_use_canonical_rails():
    with pytest.raises(NetlistError, match=r"^input port A must use canonical rails$"):
        Netlist([Port("A", "A.0", "A.1")], ["Z"])


def test_duplicate_instance_name_rejected():
    text = "input A\noutput Z\nTH11 g A.1 -> Z.1\nTH11 g A.0 -> Z.0\n"
    with pytest.raises(FormatError):
        parse_netlist(text)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    order=st.permutations(["A", "B"]),
)
def test_monotone_wavefronts(bits, order):
    """Applying DATA one input at a time only raises nets; removing only
    lowers them. The per-net monotonicity is the DI foundation."""
    nl = and_template()
    word = dict(zip(["A", "B"], bits))
    state = settle(nl, {})
    applied = {}
    for name in order:
        applied[name] = word[name]
        new = settle(nl, encode_word(nl.inputs, applied), state)
        assert all(new[n] >= state[n] for n in nl.nets)
        state = new
    for name in order:
        del applied[name]
        new = settle(nl, encode_word(nl.inputs, applied), state)
        assert all(new[n] <= state[n] for n in nl.nets)
        state = new
    assert set(state.values()) == {0}


def test_no_invalid_state_reachable_with_legal_inputs():
    nl = and_template()
    state = settle(nl, {})
    for a, b in itertools.product((0, 1), repeat=2):
        state = settle(nl, encode_word(nl.inputs, {"A": a, "B": b}), state)
        assert output_word(nl, state)["Z"] != INVALID
        state = settle(nl, {}, state)
        assert output_word(nl, state)["Z"] == NULL


@st.composite
def boolean_circuit(draw):
    """A small random Boolean DAG and one input vector for it."""
    n_in = draw(st.integers(1, 4))
    nets = [f"x{i}" for i in range(n_in)]
    bnl = BoolNetlist(inputs=nets[:])
    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(sorted(BOOL_KINDS)))
        ins = [draw(st.sampled_from(nets)) for _ in range(BOOL_KINDS[kind])]
        bnl.add(kind, ins, f"t{k}")
        nets.append(f"t{k}")
    gate_outs = nets[n_in:]
    outs = draw(st.lists(st.sampled_from(gate_outs), min_size=1, unique=True))
    bnl.outputs = tuple(outs)
    bits = {x: draw(st.integers(0, 1)) for x in bnl.inputs}
    return bnl, bits


@settings(max_examples=100, deadline=None)
@given(boolean_circuit())
def test_settle_matches_boolean_evaluation(case):
    bnl, bits = case
    nl = expand_dual_rail(bnl)
    null_state = settle(nl, {})
    vals = settle(nl, encode_word(nl.inputs, bits), null_state)
    word = output_word(nl, vals)
    assert (tuple(word[o] for o in bnl.outputs)
            == tuple(DATA[b] for b in evaluate_outputs(bnl, bits)))
    back = settle(nl, {}, vals)
    assert all(pair == NULL for pair in output_word(nl, back).values())
