"""Boolean structural netlists, the input side of dual-rail expansion.

The gate vocabulary is fixed to the two-input basics plus INV/BUF; that is
what the expansion templates cover. Netlists are single-driver DAGs over
named nets, evaluated by a topological interpreter that doubles as the
truth oracle for the synthesized dual-rail circuits.
"""
from __future__ import annotations

import re
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .netlist import CycleError, Defect, FormatError, GateGraph, NetlistError

BOOL_KINDS: Dict[str, int] = {
    "AND2": 2, "OR2": 2, "XOR2": 2,
    "NAND2": 2, "NOR2": 2, "XNOR2": 2,
    "INV": 1, "BUF": 1,
}

_BOOL_EVAL = {
    "AND2": lambda a, b: a & b,
    "OR2": lambda a, b: a | b,
    "XOR2": lambda a, b: a ^ b,
    "NAND2": lambda a, b: 1 - (a & b),
    "NOR2": lambda a, b: 1 - (a | b),
    "XNOR2": lambda a, b: 1 - (a ^ b),
    "INV": lambda a: 1 - a,
    "BUF": lambda a: a,
}

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class BoolNetlist(GateGraph):
    """Single-driver acyclic Boolean netlist."""

    def __init__(self, inputs: Sequence[str] = (), outputs: Sequence[str] = ()):
        super().__init__()
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.outputs: Tuple[str, ...] = tuple(outputs)

    def _ends(self):
        return self.inputs, self.outputs

    def validate(self) -> list:
        driver, _, _, nets = self._structure()
        defects = []
        for inst in self.gates:
            first = driver[inst.out]
            if first is not inst:
                defects.append(Defect("multiple-drivers", inst.out,
                                      f"driven by {first.name} and {inst.name}"))
            if inst.kind not in BOOL_KINDS:
                defects.append(Defect("unknown-gate", inst.name, f"kind {inst.kind}"))
            elif len(inst.ins) != BOOL_KINDS[inst.kind]:
                defects.append(Defect("arity-mismatch", inst.name,
                                      f"{inst.kind} takes {BOOL_KINDS[inst.kind]} inputs"))
        external = set(self.inputs)
        for net in nets:
            if net not in driver and net not in external:
                defects.append(Defect("undriven-net", net, "no driver or input declaration"))
        try:
            self.topo_order()
        except CycleError as exc:
            defects.append(Defect("cycle", "netlist", str(exc)))
        return defects

    def evaluate(self, values: Mapping[str, int]) -> Dict[str, int]:
        """Plain Boolean interpretation; the oracle for dual-rail fidelity."""
        vals: Dict[str, int] = {n: int(values[n]) for n in self.inputs}
        for inst in self.topo_order():
            vals[inst.out] = _BOOL_EVAL[inst.kind](*(vals[p] for p in inst.ins))
        return vals

    def evaluate_outputs(self, values: Mapping[str, int]) -> Tuple[int, ...]:
        vals = self.evaluate(values)
        return tuple(vals[o] for o in self.outputs)


def _check_ident(tok: str, lineno: int) -> str:
    if not _IDENT.match(tok):
        raise FormatError(lineno, f"bad net or instance name {tok!r}")
    return tok


def parse_boolean_netlist(text: str) -> BoolNetlist:
    """Parse the gate-per-line format.

        input a b        (optional; inferred from usage when absent)
        output z
        AND2 g1 a b -> z (instance name optional: "AND2 a b -> z")

    Declared IO is enforced; without declarations, inputs are the undriven
    nets and outputs the unread ones, in order of first appearance.
    """
    declared_in: Optional[list] = None
    declared_out: Optional[list] = None
    bnl = BoolNetlist()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head, rest = toks[0], toks[1:]
        if head == "input":
            declared_in = (declared_in or []) + [_check_ident(t, lineno) for t in rest]
            continue
        if head == "output":
            declared_out = (declared_out or []) + [_check_ident(t, lineno) for t in rest]
            continue
        if head not in BOOL_KINDS:
            raise FormatError(lineno, f"unsupported gate kind {head!r}")
        arity = BOOL_KINDS[head]
        if "->" not in rest or rest.index("->") != len(rest) - 2:
            raise FormatError(lineno, "gate line must end with '-> <output net>'")
        body, out = rest[:-2], rest[-1]
        if len(body) == arity:
            name = None
        elif len(body) == arity + 1:
            name, body = body[0], body[1:]
            _check_ident(name, lineno)
        else:
            raise FormatError(lineno, f"{head} takes {arity} inputs")
        try:
            bnl.add(head, [_check_ident(t, lineno) for t in body],
                    _check_ident(out, lineno), name=name)
        except NetlistError as exc:
            raise FormatError(lineno, str(exc)) from exc
    driver, _, readers, nets = bnl._structure()
    inferred_in = [n for n in nets if n not in driver]
    inferred_out = [inst.out for inst in bnl.gates if inst.out not in readers]
    if declared_in is None:
        declared_in = inferred_in
    else:
        extra = [n for n in inferred_in if n not in declared_in]
        if extra:
            raise FormatError(1, f"undeclared input nets: {', '.join(extra)}")
        driven = [n for n in declared_in if n in driver]
        if driven:
            raise FormatError(1, f"declared inputs are gate-driven: {', '.join(driven)}")
    if declared_out is None:
        declared_out = inferred_out
    else:
        for n in declared_out:
            if n not in driver and n not in declared_in:
                raise FormatError(1, f"declared output {n!r} is not driven")
    bnl.inputs = tuple(declared_in)
    bnl.outputs = tuple(declared_out)
    defects = [d for d in bnl.validate() if d.code != "undriven-net"]
    # undriven nets not covered by declarations were rejected above; the
    # remaining defect kinds are all reportable as parse-level problems
    if defects:
        raise FormatError(1, "; ".join(str(d) for d in defects))
    return bnl


def serialize_boolean_netlist(bnl: BoolNetlist) -> str:
    lines = ["input " + " ".join(bnl.inputs), "output " + " ".join(bnl.outputs)]
    for g in bnl.gates:
        lines.append(f"{g.kind} {g.name} {' '.join(g.ins)} -> {g.out}")
    return "\n".join(lines) + "\n"


def load_boolean_netlist(path) -> BoolNetlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_boolean_netlist(fh.read())
