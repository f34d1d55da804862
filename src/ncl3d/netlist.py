"""Combinational NCL netlists: the gate graph, validation and the text format.

A Netlist is an acyclic graph of threshold-gate instances over named
single-rail nets; feedback exists only inside gate hysteresis. Primary
inputs and outputs are dual-rail ports. The settle fixpoint and the
delay-insensitivity checkers that run on it live in ``checks``.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .gates import GateError, spec_from_name


class NetlistError(ValueError):
    pass


class CycleError(NetlistError):
    """The gate graph contains a combinational cycle."""


class FormatError(NetlistError):
    """Malformed netlist text; carries a 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class Port(NamedTuple):
    """A dual-rail port: a name bound to its two rail nets.

    Input ports always use the canonical ``name.1``/``name.0`` rails (they
    are the external drive points); output ports may be bound to arbitrary
    internal nets, which is how inverters become zero-cost rail swaps.
    """

    name: str
    rail1: str
    rail0: str

    @property
    def rails(self) -> Tuple[str, str]:
        return self.rail1, self.rail0

    @property
    def is_canonical(self) -> bool:
        return self.rail1 == f"{self.name}.1" and self.rail0 == f"{self.name}.0"


def port(name: str) -> Port:
    return Port(name, f"{name}.1", f"{name}.0")


def _ports(kind: str, ports: Sequence) -> Tuple[Port, ...]:
    """``ports`` as Ports, a bare name on its canonical rails; NetlistError
    if two share a name."""
    ports = tuple(p if isinstance(p, Port) else port(p) for p in ports)
    seen = set()
    for p in ports:
        if p.name in seen:
            raise NetlistError(f"duplicate {kind} port {p.name}")
        seen.add(p.name)
    return ports


class GateInst(NamedTuple):
    """One gate instance: type name, instance name, input nets, output net."""

    kind: str
    name: str
    ins: Tuple[str, ...]
    out: str


class Defect(NamedTuple):
    """One structural rule violation found by validate()."""

    code: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.subject} ({self.detail})"


class GateGraph:
    """Gate instances over named nets, the structure Netlist and BoolNetlist
    share: unique instance names, drivers, readers, net order, and one
    topological sort.

    Subclasses name the nets listed before and after the gates' own pins
    (``_ends``); one that caches derived structure rebuilds it while
    ``_dirty`` is set.
    """

    def __init__(self):
        self.gates: list[GateInst] = []
        self._names: set[str] = set()
        self._dirty = True

    def add(self, kind: str, ins: Sequence[str], out: str, name: Optional[str] = None) -> GateInst:
        if name is None:
            name = f"u{len(self.gates) + 1}"
        if name in self._names:
            raise NetlistError(f"duplicate instance name {name}")
        inst = GateInst(kind, name, tuple(ins), out)
        self.gates.append(inst)
        self._names.add(name)
        self._dirty = True
        return inst

    def _ends(self) -> Tuple[Sequence[str], Sequence[str]]:
        raise NotImplementedError

    def _structure(self) -> tuple:
        """(first driver per net, nets driven again, readers per net, nets).

        Nets are ordered head first, then pins and outputs in gate order,
        then tail.
        """
        head, tail = self._ends()
        driver: Dict[str, GateInst] = {}
        multi: list[str] = []
        readers: Dict[str, list] = {}
        nets = dict.fromkeys(head)
        for inst in self.gates:
            if inst.out in driver:
                multi.append(inst.out)
            else:
                driver[inst.out] = inst
            for pin in inst.ins:
                readers.setdefault(pin, []).append(inst)
                nets.setdefault(pin)
            nets.setdefault(inst.out)
        for net in tail:
            nets.setdefault(net)
        return driver, multi, readers, tuple(nets)

    @property
    def nets(self) -> Tuple[str, ...]:
        return self._structure()[3]

    def topo_order(self) -> Tuple[GateInst, ...]:
        """Gates in dependency order; raises CycleError on feedback."""
        driver, _, readers, _ = self._structure()
        pending = {inst.name: sum(1 for pin in inst.ins if pin in driver)
                   for inst in self.gates}
        ready = [inst for inst in self.gates if pending[inst.name] == 0]
        order = []
        head = 0
        while head < len(ready):
            inst = ready[head]
            head += 1
            order.append(inst)
            if driver[inst.out] is not inst:
                continue            # only a net's first driver releases its readers
            for reader in readers.get(inst.out, ()):
                pending[reader.name] -= 1      # one reader entry per pin
                if pending[reader.name] == 0:
                    ready.append(reader)
        if len(order) != len(self.gates):
            stuck = sorted(n for n, k in pending.items() if k > 0)
            raise CycleError(f"combinational cycle through {', '.join(stuck[:8])}")
        return tuple(order)


class Netlist(GateGraph):
    """Combinational dual-rail NCL netlist.

    Mutable while being built (add gates), then treated as immutable;
    settle() and the checkers never modify it.
    """

    def __init__(
        self,
        inputs: Sequence,
        outputs: Sequence,
        ctl_inputs: Sequence[str] = (),
        ctl_outputs: Sequence[str] = (),
    ):
        super().__init__()
        self.inputs = _ports("input", inputs)
        self.outputs = _ports("output", outputs)
        self.ctl_inputs = tuple(ctl_inputs)
        self.ctl_outputs = tuple(ctl_outputs)
        for p in self.inputs:
            if not p.is_canonical:
                raise NetlistError(f"input port {p.name} must use canonical rails")

    def __repr__(self) -> str:
        return (f"Netlist({len(self.gates)} gates, {len(self.inputs)} inputs, "
                f"{len(self.outputs)} outputs)")

    def bind_outputs(self, ports: Sequence[Port]) -> None:
        """Replace the output port list (used once synthesis knows rails)."""
        self.outputs = _ports("output", ports)
        self._dirty = True

    # -- derived structure -------------------------------------------------

    def input_rails(self) -> Tuple[str, ...]:
        return tuple(r for p in self.inputs for r in p.rails)

    def output_rails(self) -> Tuple[str, ...]:
        return tuple(r for p in self.outputs for r in p.rails)

    def external_rails(self) -> Tuple[str, ...]:
        return self.input_rails() + self.ctl_inputs

    def _ends(self):
        return self.external_rails(), self.output_rails() + self.ctl_outputs

    def _structure(self) -> tuple:
        """The shared structure, cached; a rebuild also drops what derive built."""
        if self._dirty:
            self._cache = super()._structure()
            self._derived: Dict[Callable, object] = {}
            self._dirty = False
        return self._cache

    def derive(self, build: Callable[["Netlist"], Any]) -> Any:
        """``build(self)``, computed once and kept with the cached structure,
        so adding a gate or rebinding the outputs drops it.  ``settle`` keeps
        its rows here and ``simulate`` its gate rows."""
        self._structure()
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def fanout(self, net: str) -> int:
        return len(self._structure()[2].get(net, ()))

    # -- validation ---------------------------------------------------------

    def validate(self) -> list:
        """Structural defects as data; empty list iff all invariants hold."""
        driver, multi, _, nets = self._structure()
        external = set(self.external_rails())
        defects = [Defect("multiple-drivers", net, "more than one gate drives this net"
                          if net in multi else "an input and a gate drive this net")
                   for net in sorted(set(multi) | external.intersection(driver))]
        for net in nets:
            if net not in driver and net not in external:
                defects.append(Defect("undriven-net", net, "no gate output or primary input drives it"))
        for inst in self.gates:
            try:
                spec = spec_from_name(inst.kind)
            except GateError as exc:
                defects.append(Defect("unknown-gate", inst.name, str(exc)))
                continue
            if len(inst.ins) != spec.arity:
                defects.append(Defect(
                    "arity-mismatch", inst.name,
                    f"{inst.kind} takes {spec.arity} inputs, got {len(inst.ins)}"))
        try:
            self.topo_order()
        except CycleError as exc:
            defects.append(Defect("cycle", "netlist", str(exc)))
        return defects


# perfbench/child.py's TRACED list names settle and both checkers as
# attributes of this module, as it names the loaders in
# cli._PACKAGE_LOADERS as attributes of cli.  ROADMAP item 19 deletes this
# forwarder and that one.
_MOVED_TO_CHECKS = ("settle", "check_input_completeness", "check_observability")


def __getattr__(name: str):
    if name not in _MOVED_TO_CHECKS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks
    return getattr(checks, name)


# -- text format -------------------------------------------------------------
#
# One declaration or gate per line; '#' starts a comment.
#   input A B
#   output S Cout            (or  output Z=x.0,x.1  for rebound rails)
#   ctlin ki                 (optional bare control nets)
#   TH22 s1 A.1 B.1 -> S.1   (kind, instance, inputs..., ->, output)
# Serialization is deterministic and round-trips bit-exact.

def _parse_output_token(tok: str, lineno: int) -> Port:
    if "=" not in tok:
        return port(tok)
    name, _, rest = tok.partition("=")
    rails = rest.split(",")
    if len(rails) != 2 or not name or not all(rails):
        raise FormatError(lineno, f"bad output binding {tok!r}; expected NAME=RAIL1,RAIL0")
    return Port(name, rails[0], rails[1])


def parse_netlist(text: str) -> Netlist:
    ports = {"input": (), "output": ()}
    ctl_in: list = []
    ctl_out: list = []
    gate_lines: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head, rest = toks[0], toks[1:]
        if head in ports:
            new = [port(t) if head == "input" else _parse_output_token(t, lineno)
                   for t in rest]
            try:
                ports[head] = _ports(head, ports[head] + tuple(new))
            except NetlistError as exc:
                raise FormatError(lineno, str(exc)) from exc
        elif head == "ctlin":
            ctl_in.extend(rest)
        elif head == "ctlout":
            ctl_out.extend(rest)
        else:
            if "->" not in rest or rest.index("->") != len(rest) - 2:
                raise FormatError(lineno, "gate line must end with '-> <output net>'")
            if len(rest) < 4:
                raise FormatError(lineno, "gate line needs kind, instance, inputs, '->', output")
            gate_lines.append((lineno, head, rest[0], rest[1:-2], rest[-1]))
    if not ports["input"]:
        raise FormatError(1, "no input declaration")
    if not ports["output"]:
        raise FormatError(1, "no output declaration")
    nl = Netlist(ports["input"], ports["output"], ctl_inputs=ctl_in, ctl_outputs=ctl_out)
    for lineno, kind, name, ins, out in gate_lines:
        try:
            spec_from_name(kind)
        except GateError as exc:
            raise FormatError(lineno, str(exc)) from exc
        try:
            nl.add(kind, ins, out, name=name)
        except NetlistError as exc:
            raise FormatError(lineno, str(exc)) from exc
    return nl


def serialize_netlist(netlist: Netlist) -> str:
    lines = ["input " + " ".join(p.name for p in netlist.inputs)]
    outs = []
    for p in netlist.outputs:
        outs.append(p.name if p.is_canonical else f"{p.name}={p.rail1},{p.rail0}")
    lines.append("output " + " ".join(outs))
    if netlist.ctl_inputs:
        lines.append("ctlin " + " ".join(netlist.ctl_inputs))
    if netlist.ctl_outputs:
        lines.append("ctlout " + " ".join(netlist.ctl_outputs))
    for g in netlist.gates:
        lines.append(f"{g.kind} {g.name} {' '.join(g.ins)} -> {g.out}")
    return "\n".join(lines) + "\n"


def load_netlist(path) -> Netlist:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_netlist(fh.read())
