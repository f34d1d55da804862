"""Combinational NCL netlists, their settle fixpoint, and DI checkers.

A Netlist is an acyclic graph of threshold-gate instances over named
single-rail nets; feedback exists only inside gate hysteresis. Primary
inputs and outputs are dual-rail ports. Evaluation is a one-pass fixpoint
(settle) over lane ints, one bit per case. On it the two behavioral
delay-insensitivity checkers run as parallel-pattern, parallel-fault
simulation: lane ``j*V + k`` is case block j (a partial input wavefront
for input-completeness, a gate held at 0 by an AND lane mask for
observability) under vector k of the V DATA vectors, with whole blocks
packed up to LANE_BUDGET lanes per settle.
"""
from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from .gates import GateError, eval_sop, spec_from_name


class NetlistError(ValueError):
    pass


class CycleError(NetlistError):
    """The gate graph contains a combinational cycle."""


class NonConvergenceError(NetlistError):
    """A second settle pass still changed nets; acyclicity was violated."""


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
        defects = []
        for net in sorted(set(multi)):
            defects.append(Defect("multiple-drivers", net, "more than one gate drives this net"))
        external = set(self.external_rails())
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


def _settle_rows(netlist: Netlist) -> tuple:
    """Net index map and topo-ordered settle rows.

    Each row is (products over net indices, one single-net product per
    distinct input net, output net index, instance name).
    """
    index = {net: i for i, net in enumerate(netlist.nets)}
    rows = tuple(
        (tuple(tuple(index[inst.ins[k]] for k in prod)
               for prod in spec_from_name(inst.kind).products),
         tuple((i,) for i in dict.fromkeys(index[p] for p in inst.ins)),
         index[inst.out], inst.name)
        for inst in netlist.topo_order()
    )
    return index, rows


def settle(
    netlist: Netlist,
    rails: Mapping[str, int],
    state: Optional[Mapping[str, int]] = None,
    frozen: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Fixpoint evaluation: one topological pass, then a verification pass.

    ``rails`` gives externally driven rail values (missing rails read 0);
    ``state`` gives previous net values for hysteresis (missing nets read
    0, the all-NULL reset); ``frozen`` maps nets to AND lane masks: in
    both passes a frozen net's value is ANDed with its mask, so
    ``{net: 0}`` holds the net at 0 in every lane, and the observability
    checker holds one gate output at 0 in each block of lanes. Returns the
    complete net-value map. One pass suffices on an acyclic graph; a
    second pass verifies that and raises NonConvergenceError if any lane
    still changes. Values are lane ints (bit k is vector k; 0/1 is one
    lane) and each gate steps as ``set | (prev & any input)``.
    """
    index, rows = netlist.derive(_settle_rows)
    nets = netlist.nets
    state = state or {}
    values = [state.get(net, 0) for net in nets]
    for r in netlist.external_rails():
        values[index[r]] = rails.get(r, 0)
    masks = {index[net]: m for net, m in (frozen or {}).items() if net in index}
    for i, m in masks.items():
        values[i] &= m
    for verify in (False, True):
        for prods, anys, out, name in rows:
            prev = values[out]
            nxt = eval_sop(prods, values)
            if prev:
                nxt |= prev & eval_sop(anys, values)
            if out in masks:
                nxt &= masks[out]
            if nxt != prev:
                if verify:
                    raise NonConvergenceError(f"net {nets[out]} (gate {name}) did not settle")
                values[out] = nxt
    return dict(zip(nets, values))


class ICViolation(NamedTuple):
    """Outputs completed a wavefront before the inputs did."""

    direction: str               # "null-to-data" or "data-to-null"
    vector: Tuple[int, ...]      # data bit per input port
    subset: Tuple[str, ...]      # the partial input set that sufficed

    def __str__(self):
        word = "".join(str(b) for b in self.vector)
        return (f"input-completeness ({self.direction}): inputs {{{', '.join(self.subset)}}} "
                f"of vector {word} already complete all outputs")


class ObsViolation(NamedTuple):
    """A gate whose transitions never reach a primary output."""

    gate: str

    def __str__(self):
        return f"observability: gate {self.gate} never affects any primary output"


def _check_preconditions(netlist: Netlist) -> None:
    defects = netlist.validate()
    if defects:
        raise NetlistError("netlist does not validate: " + "; ".join(str(d) for d in defects[:4]))
    if netlist.ctl_inputs:
        raise NetlistError("checkers expect pure dual-rail netlists (no control inputs)")


# Exhaustive checker sweeps refuse netlists with more dual-rail inputs.
MAX_EXHAUSTIVE_INPUTS = 12

# Lanes one checker settle carries at most: every net holds an int this
# wide. Unbounded, the exhaustive width-5 multiplier sweep (1M lanes) peaks
# at 81 MB RSS and runs 4x slower than under this bound (20.5 MB).
LANE_BUDGET = 1 << 16


def _all_vectors(netlist: Netlist) -> list:
    """Every legal DATA vector as a per-port bit tuple, under the guard."""
    n = len(netlist.inputs)
    if n > MAX_EXHAUSTIVE_INPUTS:
        raise NetlistError(
            f"{n} dual-rail inputs exceed the exhaustive guard of {MAX_EXHAUSTIVE_INPUTS}; "
            f"pass a trial count for sampled mode")
    return list(itertools.product((0, 1), repeat=n))


def _lane_rails(ports: Sequence[Port], vectors: Sequence[Tuple[int, ...]]) -> Dict[str, int]:
    """Input rail values as lane ints: lane k carries the DATA of vectors[k]."""
    every = (1 << len(vectors)) - 1
    rails = {}
    for i, p in enumerate(ports):
        rails[p.rail1] = sum(vec[i] << k for k, vec in enumerate(vectors))
        rails[p.rail0] = every ^ rails[p.rail1]
    return rails


def _chunks(cases: Sequence, width: int, *states: Mapping[str, int]):
    """Cut ``cases`` into runs of at most LANE_BUDGET lanes (at least one
    case each), one block of ``width`` lanes per case. Yields each run with
    every one of ``states`` copied into each of its blocks; the copies are
    made once, for a full run, and cut down for a shorter last run. The NULL
    state needs no copy: NULL→DATA settles from no state, which reads 0."""
    step = max(1, LANE_BUDGET // max(width, 1))
    count = min(step, len(cases))
    # values fit in ``width`` lanes, so multiplying by ones copies them exactly
    ones = sum(1 << j * width for j in range(count))
    full = [{net: v * ones for net, v in state.items()} for state in states]
    for lo in range(0, len(cases), step):
        run = cases[lo:lo + step]
        if len(run) < count:
            cut = (1 << len(run) * width) - 1
            full = [{net: v & cut for net, v in state.items()} for state in full]
        yield run, full


def check_input_completeness(
    netlist: Netlist,
    trials: Optional[int] = None,
    seed: int = 0,
) -> list:
    """Partial-wavefront sweep per the behavioral definition.

    Exhaustive over every legal DATA vector and every strict nonempty
    subset of input ports when the port count is within the guard;
    otherwise ``trials`` random (vector, subset) pairs. Checks both the
    NULL→DATA and DATA→NULL directions. Empty list iff input-complete;
    violations come in case order (vector, then subset; first draw when
    sampled), NULL→DATA before DATA→NULL.

    Cases are lanes: lane ``j*V + k`` is subset block j and vector k of
    the V vectors, so one settle per direction covers every subset of a
    LANE_BUDGET chunk. Sampled blocks keep only the lanes their draws used.

    NULL→DATA starts from no state, as no control input is driven, every
    gate product has a literal and a gate holds a 1 only once set: with
    all rails 0, the settled NULL state is 0 on every net.

    Random-delay trials (``sim.check_delay_insensitivity``) do not see
    this defect class: the four-phase environment changes the inputs only
    after every output has completed or reset, so an output that fires on
    part of its inputs still gives the same words (``and2_relaxed.ncl``).
    """
    _check_preconditions(netlist)
    ports = netlist.inputs
    n = len(ports)
    if n < 2:
        return []  # no strict nonempty subset exists
    if trials is None:
        vectors = _all_vectors(netlist)
        every = (1 << len(vectors)) - 1
        subsets = {c: every for k in range(1, n) for c in itertools.combinations(range(n), k)}
    else:
        rng = random.Random(seed)
        lane_of: Dict[Tuple[int, ...], int] = {}
        subsets = {}
        first: Dict[tuple, int] = {}
        for t in range(trials):
            vec = tuple(rng.randint(0, 1) for _ in range(n))
            k = rng.randint(1, n - 1)
            sub = tuple(sorted(rng.sample(range(n), k)))
            lane = lane_of.setdefault(vec, len(lane_of))
            subsets[sub] = subsets.get(sub, 0) | 1 << lane
            first.setdefault((lane, sub), t)
        vectors = list(lane_of)
    width = len(vectors)
    rails = _lane_rails(ports, vectors)
    out_rails = [p.rails for p in netlist.outputs]
    data_state = settle(netlist, rails)
    hits = []
    for chunk, (wide_rails, data) in _chunks(list(subsets.items()), width,
                                             rails, data_state):
        # NULL -> DATA drives only each subset's rails (in_sub), from no
        # state (all NULL); DATA -> NULL drops them, from the full-DATA state.
        for direction, in_sub, start, done in (
                ("null-to-data", True, None, lambda r1, r0: r1 ^ r0),
                ("data-to-null", False, data, lambda r1, r0: ~(r1 | r0))):
            drive = {}
            for i, p in enumerate(ports):
                # bit 0 of each block that drives port i; (on << width) - on
                # fills those blocks
                on = sum(1 << j * width for j, (sub, _) in enumerate(chunk)
                         if (i in sub) == in_sub)
                for r in p.rails:
                    drive[r] = wide_rails[r] & ((on << width) - on)
            vals = settle(netlist, drive, start)
            bits = -1
            for r1, r0 in out_rails:
                bits &= done(vals[r1], vals[r0])
            del vals  # one wide net map alive at a time bounds the peak
            for j, (sub, lanes) in enumerate(chunk):
                block = bits >> j * width & lanes
                while block:
                    lane = (block & -block).bit_length() - 1
                    block &= block - 1
                    hits.append((lane, sub, ICViolation(
                        direction, vectors[lane], tuple(ports[i].name for i in sub))))
    # case order; the sort is stable, so NULL->DATA stays first in a case
    if trials is None:
        rank = {sub: i for i, sub in enumerate(subsets)}
        hits.sort(key=lambda hit: (hit[0], rank[hit[1]]))
    else:
        hits.sort(key=lambda hit: first[hit[0], hit[1]])
    return [v for _, _, v in hits]


def check_observability(
    netlist: Netlist,
    trials: Optional[int] = None,
    seed: int = 0,
) -> list:
    """Transition-suppression sweep: freeze one gate output at 0 per DATA
    wavefront; a gate no wavefront can ever observe at the outputs is
    flagged. Empty list iff every gate is observable.

    Faults are lanes: lane ``j*V + k`` is vector k of the V vectors with
    gate j of a LANE_BUDGET chunk stuck at 0 (an AND mask on its output),
    so one settle covers the chunk; gate j is unobservable iff block j of
    the outputs equals the fault-free settle in every lane."""
    _check_preconditions(netlist)
    if trials is None:
        vectors = _all_vectors(netlist)
    else:
        rng = random.Random(seed)
        vectors = [tuple(rng.randint(0, 1) for _ in netlist.inputs) for _ in range(trials)]
    width = len(vectors)
    every = (1 << width) - 1
    rails = _lane_rails(netlist.inputs, vectors)
    out_rails = netlist.output_rails()
    base = settle(netlist, rails)
    violations = []
    for chunk, (wide_rails, wide_base) in _chunks(
            netlist.gates, width, rails, {r: base[r] for r in out_rails}):
        stuck = {inst.out: ~(every << j * width) for j, inst in enumerate(chunk)}
        vals = settle(netlist, wide_rails, frozen=stuck)
        diff = 0
        for r in out_rails:
            diff |= vals[r] ^ wide_base[r]
        del vals  # one wide net map alive at a time bounds the peak
        violations += [ObsViolation(inst.name) for j, inst in enumerate(chunk)
                       if not diff >> j * width & every]
    return violations


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
