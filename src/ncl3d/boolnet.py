"""Boolean structural netlists, the input side of dual-rail expansion.

The gate vocabulary is fixed to the two-input basics plus INV/BUF; that is
what the expansion templates cover. Netlists are single-driver DAGs over
named nets. The package never evaluates them: dual-rail expansion reads
their ports and gates.
"""
from __future__ import annotations

import re
from typing import Dict, Sequence, Tuple

from .netlist import FormatError, GateGraph, NetlistError
from .gates import GateError

BOOL_KINDS: Dict[str, int] = {
    "AND2": 2, "OR2": 2, "XOR2": 2,
    "NAND2": 2, "NOR2": 2, "XNOR2": 2,
    "INV": 1, "BUF": 1,
}

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class BoolNetlist(GateGraph):
    """Boolean netlist over the BOOL_KINDS vocabulary; GateGraph validates it."""

    def __init__(self, inputs: Sequence[str] = (), outputs: Sequence[str] = ()):
        super().__init__()
        self.inputs: Tuple[str, ...] = tuple(inputs)
        self.outputs: Tuple[str, ...] = tuple(outputs)

    def _arity(self, kind: str) -> int:
        if kind not in BOOL_KINDS:
            raise GateError(f"kind {kind}")
        return BOOL_KINDS[kind]

    def _ends(self):
        return self.inputs, self.outputs


def _check_ident(tok: str, lineno: int) -> str:
    if not _IDENT.match(tok):
        raise FormatError(lineno, f"bad net or instance name {tok!r}")
    return tok


def parse_boolean_netlist(text: str) -> BoolNetlist:
    """Parse the gate-per-line format.

        input a b        (optional; inferred from usage when absent)
        output z
        AND2 g1 a b -> z (instance name optional: "AND2 a b -> z")

    Without declarations, inputs are the undriven nets and outputs the
    unread ones, in order of first appearance; whatever ``validate``
    reports is a FormatError.
    """
    declared: Dict[str, list] = {}    # "input" and "output" lines' names
    bnl = BoolNetlist()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head, rest = toks[0], toks[1:]
        if head in ("input", "output"):
            names = declared.setdefault(head, [])
            for t in rest:
                if t in names:
                    raise FormatError(lineno, f"duplicate {head} {t!r}")
                names.append(_check_ident(t, lineno))
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
    bnl.inputs = tuple(declared.get("input", [n for n in nets if n not in driver]))
    bnl.outputs = tuple(declared.get("output",
                                     [g.out for g in bnl.gates if g.out not in readers]))
    defects = bnl.validate()
    if defects:
        raise FormatError(1, "; ".join(str(d) for d in defects))
    return bnl


def load_boolean_netlist(path) -> BoolNetlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_boolean_netlist(fh.read())
