"""Boolean netlist parsing and the interpreter oracle."""
import itertools

import pytest

from ncl3d.boolnet import (
    BOOL_KINDS,
    BoolNetlist,
    parse_boolean_netlist,
    serialize_boolean_netlist,
)
from ncl3d.netlist import CycleError, FormatError

# Independent semantics, typed out rather than imported.
EXPECTED = {
    "AND2": lambda a, b: a and b,
    "OR2": lambda a, b: a or b,
    "XOR2": lambda a, b: a != b,
    "NAND2": lambda a, b: not (a and b),
    "NOR2": lambda a, b: not (a or b),
    "XNOR2": lambda a, b: a == b,
    "INV": lambda a: not a,
    "BUF": lambda a: a,
}


def test_one_line_document():
    bnl = parse_boolean_netlist("AND2 a b -> z\n")
    assert bnl.inputs == ("a", "b")
    assert bnl.outputs == ("z",)
    assert len(bnl.gates) == 1
    assert bnl.validate() == []


@pytest.mark.parametrize("kind", sorted(BOOL_KINDS))
def test_every_kind_evaluates_correctly(kind):
    arity = BOOL_KINDS[kind]
    ins = ["a", "b"][:arity]
    bnl = parse_boolean_netlist(f"{kind} {' '.join(ins)} -> z\n")
    for vec in itertools.product((0, 1), repeat=arity):
        got = bnl.evaluate_outputs(dict(zip(ins, vec)))
        assert got == (int(EXPECTED[kind](*vec)),)


def ripple_adder_text(width: int) -> str:
    lines = [f"input {' '.join([f'a{i}' for i in range(width)] + [f'b{i}' for i in range(width)] + ['c0'])}"]
    lines.append(f"output {' '.join([f's{i}' for i in range(width)] + [f'c{width}'])}")
    for i in range(width):
        lines += [
            f"XOR2 x{i} a{i} b{i} -> t{i}",
            f"XOR2 sx{i} t{i} c{i} -> s{i}",
            f"AND2 ga{i} a{i} b{i} -> u{i}",
            f"AND2 gb{i} t{i} c{i} -> v{i}",
            f"OR2 go{i} u{i} v{i} -> c{i + 1}",
        ]
    return "\n".join(lines) + "\n"


def test_ripple_adder_matches_integer_addition():
    width = 4
    bnl = parse_boolean_netlist(ripple_adder_text(width))
    assert bnl.validate() == []
    for x, y, cin in itertools.product(range(16), range(16), (0, 1)):
        values = {f"a{i}": (x >> i) & 1 for i in range(width)}
        values.update({f"b{i}": (y >> i) & 1 for i in range(width)})
        values["c0"] = cin
        out = bnl.evaluate(values)
        total = sum(out[f"s{i}"] << i for i in range(width)) + (out[f"c{width}"] << width)
        assert total == x + y + cin


def test_serialize_round_trip():
    text = "input a b\noutput z\nAND2 u1 a b -> w\nINV u2 w -> z\n"
    bnl = parse_boolean_netlist(text)
    assert serialize_boolean_netlist(bnl) == text
    again = parse_boolean_netlist(serialize_boolean_netlist(bnl))
    assert serialize_boolean_netlist(again) == text


def test_io_inference_keeps_first_appearance_order():
    bnl = parse_boolean_netlist("XOR2 b a -> y\nAND2 a b -> z\n")
    assert bnl.inputs == ("b", "a")
    assert bnl.outputs == ("y", "z")


def test_duplicate_driver_error_names_the_net():
    with pytest.raises(FormatError) as err:
        parse_boolean_netlist("AND2 a b -> z\nOR2 a b -> z\n")
    assert "z" in str(err.value)


def test_unnamed_gates_are_named_by_position():
    bnl = parse_boolean_netlist("AND2 a b -> x\nOR2 g7 x c -> y\nXOR2 y a -> z\n")
    assert [g.name for g in bnl.gates] == ["u1", "g7", "u3"]
    with pytest.raises(FormatError, match="line 2: duplicate instance name u2"):
        parse_boolean_netlist("AND2 u2 a b -> x\nOR2 x c -> y\n")


@pytest.mark.parametrize("text", [
    "FROB2 a b -> z\n",                       # unknown kind
    "AND2 a -> z\n",                          # arity
    "AND2 a b z\n",                           # missing arrow
    "input a\nAND2 a b -> z\n",               # b undeclared
    "input a b\noutput q\nAND2 a b -> z\n",   # declared output undriven
    "input a b z\nAND2 a b -> z\n",           # declared input driven
    "AND2 a b -> 1z\n",                       # bad identifier
])
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(FormatError):
        parse_boolean_netlist(text)


def test_cycle_is_a_defect():
    bnl = BoolNetlist(inputs=("a",), outputs=("z",))
    bnl.add("AND2", ["a", "y"], "x")
    bnl.add("AND2", ["x", "a"], "y")
    bnl.add("OR2", ["x", "y"], "z")
    assert any(d.code == "cycle" for d in bnl.validate())


def test_second_driver_does_not_hide_a_cycle():
    """x has two drivers, and the cycle u3 -> u4 -> u3 runs through x's
    reader u3: each of x's drivers used to release u3 once."""
    bnl = BoolNetlist(inputs=("a",), outputs=("z",))
    bnl.add("BUF", ["a"], "x")
    bnl.add("BUF", ["a"], "x")
    bnl.add("AND2", ["x", "y"], "z")
    bnl.add("AND2", ["z", "a"], "y")
    assert [d.code for d in bnl.validate()] == ["multiple-drivers", "cycle"]
    with pytest.raises(CycleError, match="u3, u4$"):
        bnl.topo_order()
