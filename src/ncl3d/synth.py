"""Dual-rail expansion of Boolean netlists and the array multiplier.

Each two-input Boolean kind maps to a fixed input-complete template over
threshold gates; inverters and buffers cost nothing because dual-rail
negation is a rail swap. The multiplier is a carry-ripple array built from
one shared topology plan, emitted either through the Boolean templates
(the default, which matches the studied transistor budget) or with the
compact carry/sum threshold-gate full adder.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .boolnet import BoolNetlist
from .gates import spec_from_name
from .netlist import DR, Netlist, NetlistError, Port

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

class _AdderCell(NamedTuple):
    """One reduction cell of the array: a half or full adder."""

    kind: str  # "HA" or "FA"
    a: str
    b: str
    ci: Optional[str]
    s: str
    co: str


def _array_plan(width: int):
    """Topology of the carry-ripple array multiplier over named nets.

    Returns (pp pairs, adder cells, output nets). Row 1 is half adders;
    rows 2..width-1 full adders; a final ripple row combines the leftover
    carries. Cell counts: width half adders, width*(width-2) full adders.
    """
    w = width
    pp = [[f"pp{i}_{j}" for j in range(w)] for i in range(w)]
    pairs = [(f"a{i}", f"b{j}", pp[i][j]) for j in range(w) for i in range(w)]
    cells: List[_AdderCell] = []
    outs = [f"p{k}" for k in range(2 * w)]

    def ha(a, b, s, co):
        cells.append(_AdderCell("HA", a, b, None, s, co))

    def fa(a, b, ci, s, co):
        cells.append(_AdderCell("FA", a, b, ci, s, co))

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
    return pairs, cells, outs, pp[0][0]


def build_boolean_multiplier(width: int) -> BoolNetlist:
    """Unsigned carry-ripple array multiplier as a Boolean netlist."""
    if not 2 <= width <= 8:
        raise SynthError(f"width {width} outside the supported range [2, 8]")
    pairs, cells, outs, p0_net = _array_plan(width)
    bnl = BoolNetlist(
        inputs=[f"a{i}" for i in range(width)] + [f"b{j}" for j in range(width)],
        outputs=outs,
    )
    for a, b, out in pairs:
        bnl.add("AND2", [a, b], out, name=f"g_{out}")
    bnl.add("BUF", [p0_net], outs[0], name="g_p0")
    for n, cell in enumerate(cells):
        if cell.kind == "HA":
            bnl.add("XOR2", [cell.a, cell.b], cell.s, name=f"ha{n}_s")
            bnl.add("AND2", [cell.a, cell.b], cell.co, name=f"ha{n}_c")
        else:
            t = f"fa{n}_t"
            bnl.add("XOR2", [cell.a, cell.b], t, name=f"fa{n}_x1")
            bnl.add("XOR2", [t, cell.ci], cell.s, name=f"fa{n}_x2")
            bnl.add("AND2", [cell.a, cell.b], f"fa{n}_c1", name=f"fa{n}_a1")
            bnl.add("AND2", [t, cell.ci], f"fa{n}_c2", name=f"fa{n}_a2")
            bnl.add("OR2", [f"fa{n}_c1", f"fa{n}_c2"], cell.co, name=f"fa{n}_o")
    return bnl


def _emit_compact_fa(nl: Netlist, n: int, a: Rails, b: Rails, ci: Rails,
                     s: Rails, co: Rails) -> None:
    # carry = 2-of-3 majority per rail; sum reuses the carry rails with
    # double weight, the classic carry/sum threshold pairing
    nl.add("TH23", [a[0], b[0], ci[0]], co[0], name=f"fa{n}_co1")
    nl.add("TH23", [a[1], b[1], ci[1]], co[1], name=f"fa{n}_co0")
    nl.add("TH34w2", [co[1], a[0], b[0], ci[0]], s[0], name=f"fa{n}_s1")
    nl.add("TH34w2", [co[0], a[1], b[1], ci[1]], s[1], name=f"fa{n}_s0")


def build_array_multiplier(
    width: int,
    adder_style: str = "template",
) -> Netlist:
    """Dual-rail array multiplier: ``a`` times ``b``, both ``width`` bits.

    ``adder_style`` picks the full-adder realization: "template" expands
    the Boolean adder through the standard two-input templates (the
    reference transistor budget); "compact" uses the TH23/TH34w2 cell,
    roughly 30% smaller but with early carry transitions that are only
    jointly, not per-output, input-complete.
    """
    if adder_style == "template":
        return expand_dual_rail(build_boolean_multiplier(width))
    if adder_style != "compact":
        raise SynthError(f"unknown adder style {adder_style!r}")
    if not 2 <= width <= 8:
        raise SynthError(f"width {width} outside the supported range [2, 8]")
    pairs, cells, outs, p0_net = _array_plan(width)
    rails: Dict[str, Rails] = {}

    def r(net: str) -> Rails:
        return rails.setdefault(net, (f"{net}.1", f"{net}.0"))

    nl = Netlist([f"a{i}" for i in range(width)] + [f"b{j}" for j in range(width)], [])
    for name in nl.inputs:
        rails[name.name] = name.rails
    for a, b, out in pairs:
        _emit_and(nl, r(a), r(b), out, *r(out))
    rails[outs[0]] = r(p0_net)
    for n, cell in enumerate(cells):
        if cell.kind == "HA":
            _emit_xor(nl, r(cell.a), r(cell.b), cell.s, *r(cell.s))
            _emit_and(nl, r(cell.a), r(cell.b), cell.co, *r(cell.co))
        else:
            _emit_compact_fa(nl, n, r(cell.a), r(cell.b), r(cell.ci),
                             r(cell.s), r(cell.co))
    nl.bind_outputs([Port(o, *r(o)) for o in outs])
    return nl


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


def product_value(word: Mapping[str, DR]) -> Optional[int]:
    """Integer from a DATA-complete product word; None while not complete."""
    total = 0
    for name, dv in word.items():
        if not dv.is_data:
            return None
        total |= dv.bit << int(name[1:])
    return total
