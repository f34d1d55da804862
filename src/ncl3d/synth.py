"""Dual-rail expansion of Boolean netlists and the array multiplier.

Each two-input Boolean kind maps to a fixed input-complete template over
threshold gates; inverters and buffers cost nothing because dual-rail
negation is a rail swap. The multiplier is a carry-ripple array of half
and full adders, built as a Boolean netlist and expanded through the
templates, which matches the studied transistor budget.
"""
from __future__ import annotations

import itertools
from typing import Callable, Dict, NamedTuple, Tuple

from .boolnet import BoolNetlist
from .gates import spec_from_name
from .netlist import Netlist, NetlistError, Port

Rails = Tuple[str, str]


class SynthError(NetlistError):
    pass


def _emit_and(nl: Netlist, a: Rails, b: Rails, out: str, z1: str, z0: str) -> None:
    nl.add("TH22", [a[0], b[0]], z1, name=f"{out}_r1")
    nl.add("THand0", [a[1], b[1], a[0], b[0]], z0, name=f"{out}_r0")


def _emit_or(nl: Netlist, a: Rails, b: Rails, out: str, z1: str, z0: str) -> None:
    nl.add("THand0", [a[0], b[0], a[1], b[1]], z1, name=f"{out}_r1")
    nl.add("TH22", [a[1], b[1]], z0, name=f"{out}_r0")


def _emit_xor(nl: Netlist, a: Rails, b: Rails, out: str, z1: str, z0: str) -> None:
    nl.add("TH24comp", [a[0], b[0], a[1], b[1]], z1, name=f"{out}_r1")
    nl.add("TH24comp", [a[0], b[1], a[1], b[0]], z0, name=f"{out}_r0")


# kind -> (emitter, swap outputs). The inverting kinds reuse the positive
# template with the output rails crossed.
_TEMPLATES: Dict[str, Tuple[Callable, bool]] = {
    "AND2": (_emit_and, False),
    "NAND2": (_emit_and, True),
    "OR2": (_emit_or, False),
    "NOR2": (_emit_or, True),
    "XOR2": (_emit_xor, False),
    "XNOR2": (_emit_xor, True),
}


def expand_dual_rail(bnl: BoolNetlist) -> Netlist:
    """Compile a Boolean netlist into an input-complete dual-rail netlist.

    Rail naming follows the Boolean nets (``x`` becomes ``x.1``/``x.0``);
    INV/BUF introduce rail aliases instead of gates, so primary outputs
    may end up bound to swapped or shared rails.
    """
    defects = bnl.validate()
    if defects:
        raise SynthError("boolean netlist does not validate: "
                         + "; ".join(str(d) for d in defects[:4]))
    rails: Dict[str, Rails] = {n: (f"{n}.1", f"{n}.0") for n in bnl.inputs}
    nl = Netlist(bnl.inputs, [])
    for inst in bnl.topo_order():
        if inst.kind == "INV":
            r1, r0 = rails[inst.ins[0]]
            rails[inst.out] = (r0, r1)
            continue
        if inst.kind == "BUF":
            rails[inst.out] = rails[inst.ins[0]]
            continue
        emitter, swap = _TEMPLATES[inst.kind]
        z1, z0 = f"{inst.out}.1", f"{inst.out}.0"
        rails[inst.out] = (z1, z0)
        if swap:
            z1, z0 = z0, z1
        emitter(nl, rails[inst.ins[0]], rails[inst.ins[1]], inst.out, z1, z0)
    nl.bind_outputs([Port(o, *rails[o]) for o in bnl.outputs])
    return nl


# -- array multiplier ---------------------------------------------------------

def build_boolean_multiplier(width: int) -> BoolNetlist:
    """Unsigned carry-ripple array multiplier as a Boolean netlist.

    Row 1 is half adders; rows 2..width-1 full adders; a final ripple row
    combines the leftover carries. Cell counts: width half adders,
    width*(width-2) full adders. Each cell's gates are emitted as the
    array is walked, cell n named ``ha{n}_*`` or ``fa{n}_*``.
    """
    if not 2 <= width <= 8:
        raise SynthError(f"width {width} outside the supported range [2, 8]")
    w = width
    pp = [[f"pp{i}_{j}" for j in range(w)] for i in range(w)]
    outs = [f"p{k}" for k in range(2 * w)]
    bnl = BoolNetlist(
        inputs=[f"a{i}" for i in range(w)] + [f"b{j}" for j in range(w)],
        outputs=outs,
    )
    for j in range(w):
        for i in range(w):
            bnl.add("AND2", [f"a{i}", f"b{j}"], pp[i][j], name=f"g_{pp[i][j]}")
    bnl.add("BUF", [pp[0][0]], outs[0], name="g_p0")
    cells = itertools.count()

    def ha(a, b, s, co):
        n = next(cells)
        bnl.add("XOR2", [a, b], s, name=f"ha{n}_s")
        bnl.add("AND2", [a, b], co, name=f"ha{n}_c")

    def fa(a, b, ci, s, co):
        n = next(cells)
        t = f"fa{n}_t"
        bnl.add("XOR2", [a, b], t, name=f"fa{n}_x1")
        bnl.add("XOR2", [t, ci], s, name=f"fa{n}_x2")
        bnl.add("AND2", [a, b], f"fa{n}_c1", name=f"fa{n}_a1")
        bnl.add("AND2", [t, ci], f"fa{n}_c2", name=f"fa{n}_a2")
        bnl.add("OR2", [f"fa{n}_c1", f"fa{n}_c2"], co, name=f"fa{n}_o")

    # row 1: pp[i+1][0] + pp[i][1]
    s_prev = []
    c_prev = []
    for i in range(w - 1):
        s = outs[1] if i == 0 else f"s1_{i}"
        ha(pp[i + 1][0], pp[i][1], s, f"c1_{i}")
        s_prev.append(s)
        c_prev.append(f"c1_{i}")
    # rows 2..w-1: fold in pp[.][r]
    for r in range(2, w):
        s_row, c_row = [], []
        for i in range(w - 1):
            top = s_prev[i + 1] if i < w - 2 else pp[w - 1][r - 1]
            s = outs[r] if i == 0 else f"s{r}_{i}"
            fa(c_prev[i], top, pp[i][r], s, f"c{r}_{i}")
            s_row.append(s)
            c_row.append(f"c{r}_{i}")
        s_prev, c_prev = s_row, c_row
    # final ripple over the remaining carries
    first_top = s_prev[1] if w > 2 else pp[w - 1][w - 1]
    first_co = outs[2 * w - 1] if w == 2 else "cc_0"
    ha(c_prev[0], first_top, outs[w], first_co)
    for i in range(1, w - 1):
        top = s_prev[i + 1] if i < w - 2 else pp[w - 1][w - 1]
        co = outs[2 * w - 1] if i == w - 2 else f"cc_{i}"
        fa(c_prev[i], top, f"cc_{i - 1}", outs[w + i], co)
    return bnl


def build_array_multiplier(width: int) -> Netlist:
    """Dual-rail array multiplier: ``a`` times ``b``, both ``width`` bits,
    the Boolean adder expanded through the two-input templates (the
    reference transistor budget)."""
    return expand_dual_rail(build_boolean_multiplier(width))


class TransistorCount(NamedTuple):
    pmos: int
    nmos: int

    @property
    def total(self) -> int:
        return self.pmos + self.nmos


def count_transistors(netlist: Netlist) -> TransistorCount:
    """Device totals over all instances; cataloged gate types only."""
    pmos = nmos = 0
    for inst in netlist.gates:
        spec = spec_from_name(inst.kind)
        if spec.pmos is None or spec.nmos is None:
            raise SynthError(f"gate type {inst.kind} has no cataloged transistor counts")
        pmos += spec.pmos
        nmos += spec.nmos
    return TransistorCount(pmos, nmos)


def operand_bits(width: int, x: int, y: int) -> Dict[str, int]:
    """Port-bit map for the multiplier inputs, LSB first."""
    if not (0 <= x < 2 ** width and 0 <= y < 2 ** width):
        raise ValueError(f"operands must fit in {width} bits")
    bits = {f"a{i}": (x >> i) & 1 for i in range(width)}
    bits.update({f"b{j}": (y >> j) & 1 for j in range(width)})
    return bits
