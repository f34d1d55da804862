"""Oracles the tests judge the package by, sharing no evaluator with it.

Dual-rail values follow the README's rail convention: the rails
(``X.1``, ``X.0``) of a port ``X`` read NULL as (0, 0), DATA0 as (0, 1)
and DATA1 as (1, 0); (1, 1) is illegal.  ``DATA[bit]`` is the pair that
carries ``bit``, which is its rail 1.
Boolean netlists are interpreted and written from their declared ports,
their gate list and their ``topo_order`` alone.
"""
NULL, DATA0, DATA1, INVALID = (0, 0), (0, 1), (1, 0), (1, 1)
DATA = (DATA0, DATA1)

BOOL = {
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "XOR2": lambda a, b: a ^ b,
    "NAND2": lambda a, b: 1 - (a & b),
    "NOR2": lambda a, b: 1 - (a | b),
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
}


def encode_word(ports, bits):
    """Input rail values for ``bits`` (port name -> bit); a port whose bit
    is None or missing is NULL."""
    rails = {}
    for p in ports:
        bit = bits.get(p.name)
        rails[f"{p.name}.1"], rails[f"{p.name}.0"] = NULL if bit is None else DATA[bit]
    return rails


def output_word(netlist, values):
    """Output port name -> its (rail 1, rail 0) pair in ``values``."""
    return {p.name: (values[p.rail1], values[p.rail0]) for p in netlist.outputs}


def product_value(word):
    """The integer a product word (``p<k>`` -> rail pair) carries, or None
    while a bit is not DATA."""
    if not all(pair in DATA for pair in word.values()):
        return None
    return sum(pair[0] << int(name[1:]) for name, pair in word.items())


def evaluate(bnl, values):
    """Every net's value under the input bits ``values``."""
    vals = {n: int(values[n]) for n in bnl.inputs}
    for g in bnl.topo_order():
        vals[g.out] = BOOL[g.kind](*(vals[p] for p in g.ins))
    return vals


def evaluate_outputs(bnl, values):
    vals = evaluate(bnl, values)
    return tuple(vals[o] for o in bnl.outputs)


def serialize_boolean_netlist(bnl):
    """The ``.bnl`` text: ports, then one named gate per line."""
    lines = ["input " + " ".join(bnl.inputs), "output " + " ".join(bnl.outputs)]
    lines += [f"{g.kind} {g.name} {' '.join(g.ins)} -> {g.out}" for g in bnl.gates]
    return "\n".join(lines) + "\n"
