"""Dual-rail expansion and the array multiplier.

Fidelity is checked against the Boolean interpreter and against plain
integer arithmetic, both computed independently of the code under test.
"""
import hashlib
import itertools

import pytest

from ncl3d.boolnet import BoolNetlist, parse_boolean_netlist
from ncl3d.checks import check_input_completeness, check_observability, settle
from ncl3d.netlist import serialize_netlist
from ncl3d.synth import (
    SynthError,
    build_array_multiplier,
    build_boolean_multiplier,
    count_transistors,
    expand_dual_rail,
    operand_bits,
)
from oracles import (BOOL, DATA, NULL, encode_word, evaluate_outputs, output_word,
                     product_value, serialize_boolean_netlist)


def settle_word(nl, bits):
    rails = encode_word(nl.inputs, bits)
    state = settle(nl, rails)
    return output_word(nl, state)


BINARY = {kind: f for kind, f in BOOL.items() if kind not in ("INV", "BUF")}


@pytest.mark.parametrize("kind", sorted(BINARY))
def test_binary_template_truth_tables(kind):
    nl = expand_dual_rail(parse_boolean_netlist(f"{kind} a b -> z\n"))
    for a, b in itertools.product((0, 1), repeat=2):
        word = settle_word(nl, {"a": a, "b": b})
        assert word["z"] == DATA[BINARY[kind](a, b)]
    # NULL in, NULL out
    assert settle_word(nl, {"a": None, "b": None})["z"] == NULL


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_inverter_chains_cost_no_gates(depth):
    text = "".join(f"INV n{i} -> n{i + 1}\n" for i in range(depth)).replace("n0", "a", 1)
    nl = expand_dual_rail(parse_boolean_netlist(text))
    assert len(nl.gates) == 0
    for a in (0, 1):
        word = settle_word(nl, {"a": a})
        assert word[f"n{depth}"] == DATA[a ^ (depth & 1)]


def test_buffer_is_an_alias():
    nl = expand_dual_rail(parse_boolean_netlist("BUF a -> z\n"))
    assert len(nl.gates) == 0
    assert nl.outputs[0].rails == ("a.1", "a.0")


@pytest.mark.parametrize("kind", sorted(BINARY))
def test_templates_are_input_complete_and_observable(kind):
    nl = expand_dual_rail(parse_boolean_netlist(f"{kind} a b -> z\n"))
    assert check_input_completeness(nl) == []
    assert check_observability(nl) == []


def test_small_circuit_fidelity_exhaustive():
    text = (
        "input a b c\n"
        "output y z\n"
        "XOR2 g1 a b -> t\n"
        "NAND2 g2 t c -> y\n"
        "NOR2 g3 a c -> w\n"
        "OR2 g4 w t -> z\n"
    )
    bnl = parse_boolean_netlist(text)
    nl = expand_dual_rail(bnl)
    assert nl.validate() == []
    for vec in itertools.product((0, 1), repeat=3):
        bits = dict(zip(("a", "b", "c"), vec))
        expect = tuple(DATA[b] for b in evaluate_outputs(bnl, bits))
        word = settle_word(nl, bits)
        assert (word["y"], word["z"]) == expect
    assert check_input_completeness(nl) == []
    assert check_observability(nl) == []


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_boolean_multiplier_matches_integer_product(width):
    bnl = build_boolean_multiplier(width)
    assert bnl.validate() == []
    for x, y in itertools.product(range(1 << width), repeat=2):
        out = evaluate_outputs(bnl, operand_bits(width, x, y))
        value = sum(bit << k for k, bit in enumerate(out))
        assert value == x * y, (width, x, y)


def test_boolean_multiplier_gate_counts_grow_quadratically():
    # w*w products, w half adders, w*(w-2) full adders at 5 gates each
    for width in range(2, 7):
        bnl = build_boolean_multiplier(width)
        assert len(bnl.gates) == width * width + 1 + 2 * width + 5 * width * (width - 2)


# The ids name the template adder, as they did beside a second adder style.
@pytest.mark.parametrize("width", [2, 3], ids="{}-template".format)
def test_dual_rail_multiplier_matches_integer_product(width):
    nl = build_array_multiplier(width)
    assert nl.validate() == []
    for x, y in itertools.product(range(1 << width), repeat=2):
        word = settle_word(nl, operand_bits(width, x, y))
        assert product_value(word) == x * y, (x, y)


def test_dual_rail_multiplier_w4_spot_checks():
    nl = build_array_multiplier(4)
    for x, y in [(0, 0), (15, 15), (7, 9), (12, 5), (1, 14), (10, 10)]:
        assert product_value(settle_word(nl, operand_bits(4, x, y))) == x * y


def test_template_multiplier_is_delay_insensitive_w2():
    nl = build_array_multiplier(2)
    assert check_input_completeness(nl) == []
    assert check_observability(nl) == []


def test_template_gate_mix_w4():
    nl = build_array_multiplier(4)
    kinds = {}
    for g in nl.gates:
        kinds[g.kind] = kinds.get(g.kind, 0) + 1
    assert kinds == {"TH22": 44, "THand0": 44, "TH24comp": 40}
    assert len(nl.gates) == 12 * 4 * 4 - 16 * 4


def test_transistor_totals_are_stable():
    tc = count_transistors(build_array_multiplier(4))
    assert (tc.pmos, tc.nmos, tc.total) == (1064, 1064, 2128)


def test_transistor_count_rejects_unpriced_gate():
    nl = build_array_multiplier(2)
    nl.add("TH33w22", ["a.1", "b.1", "a.0"], "dead")
    with pytest.raises(SynthError):
        count_transistors(nl)


@pytest.mark.parametrize("gates,defect", [
    ([("FOO2", ["a", "b"], "z")], "unknown-gate: u1 (kind FOO2)"),
    ([("AND2", ["a"], "z")], "arity-mismatch: u1 (AND2 takes 2 inputs, got 1)"),
    ([("AND2", ["a", "q"], "z")], "undriven-net: q (no gate output or primary input drives it)"),
    ([("AND2", ["b", "b"], "a"), ("AND2", ["a", "b"], "z")],
     "multiple-drivers: a (an input and a gate drive this net)"),
], ids=["unknown-gate", "arity-mismatch", "undriven-net", "input-driven"])
def test_expansion_refuses_an_invalid_boolean_netlist(gates, defect):
    """The parser refuses these, so they are built gate by gate."""
    bnl = BoolNetlist(["a", "b"], ["z"])
    for kind, ins, out in gates:
        bnl.add(kind, ins, out)
    assert [str(d) for d in bnl.validate()] == [defect]
    with pytest.raises(SynthError) as err:
        expand_dual_rail(bnl)
    assert str(err.value) == f"boolean netlist does not validate: {defect}"


def test_construction_is_deterministic():
    a = serialize_netlist(build_array_multiplier(3))
    b = serialize_netlist(build_array_multiplier(3))
    assert a == b


# SHA-256 of the serialized Boolean and dual-rail multipliers: gate order,
# instance names and nets, for every supported width.
MULTIPLIER_SHA256 = {
    2: ("2376f2d667abe6b19e9eaa0ea680cc6121628ca8039e336c4eacb4950f19c742",
        "34e3a6a865a18f5d1d76a4b896160ec8a0a968682abec095ab9488e7c177ccde"),
    3: ("a7c39eadece51521cd3ce1e5e8fa0097096759790146dc48ab14c2115c9c5c40",
        "dbe26f48ef857b2c69652e4b16aaaa361fafcd06b7a6c68c8ddaa8d33aa9b23d"),
    4: ("4f8049b18207e08311d02480b673e13181e91edd28901536114b8689a641a625",
        "cb9ec17b3c73b335ffa6d3c0a7f8908383264240debd91e221843fb3ab1eb6f5"),
    5: ("6788016a0ddf45d9219f50726b977d4870b4a5605542fb34e0f09788faa27f49",
        "394baa14ff3f0ddd5a166055dffa257d0f4a555e51392ae5c81e1d6dc91a2965"),
    6: ("11e2b6f216db5a0ffd894edd13d5e3c503589db014d27335576a9ebd80a76c2d",
        "06d09dc2254eb77bf31b7179a11ed04d803067d4b355b8e5024b0c8701656ca5"),
    7: ("2161c4018030c390d304363aab7d9b6b53f1cd00cf72d7c2d5641ed0f6af149f",
        "0ecb8b37b5a32e177cf7e4533fd4fa0dbc4571bd1a2c8163fd15bb51a8fa283f"),
    8: ("38e303c7504a5209c128da1e87b1f1059acceaed06972a222797233eee788b1c",
        "3703ccdcf28f5f041c3849fc978072a11404424d1825ba962a21beeace1b6876"),
}


@pytest.mark.parametrize("width", sorted(MULTIPLIER_SHA256))
def test_multiplier_structure_is_pinned(width):
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
        serialize_boolean_netlist(build_boolean_multiplier(width)),
        serialize_netlist(build_array_multiplier(width))))
    assert digests == MULTIPLIER_SHA256[width]


def test_operand_bits_round_trip():
    bits = operand_bits(3, 5, 6)
    assert bits == {"a0": 1, "a1": 0, "a2": 1, "b0": 0, "b1": 1, "b2": 1}
    with pytest.raises(ValueError):
        operand_bits(3, 8, 0)
    word = {f"p{k}": DATA[(30 >> k) & 1] for k in range(6)}
    assert product_value(word) == 30
    word["p3"] = NULL
    assert product_value(word) is None
