"""Registration pipelines around combinational dual-rail logic.

A pipeline wraps a combinational netlist in register banks driven by
4-phase handshaking.  Each register bit is a pair of TH22 gates gated
by the bank's request line; completion of a bank is detected by a
rail-OR per bit (TH12) feeding a balanced tree of C-elements (TH22,
TH33, TH44).  The detector output is inverted at the request boundary,
so a bank that holds a full DATA word requests NULL and vice versa.
The first bank's request, ``REQUEST_NET``, is the one presented to the
producer; the last bank's, ``ACK_NET``, is driven by the consumer.

The inversion is not representable as a threshold gate, so it lives
outside the netlist proper: ``PipelineSystem.inverters`` maps each
request net to the detector net it negates, and the simulator applies
the negation with zero delay.
"""
from typing import Dict, List, NamedTuple, Tuple

from .netlist import Netlist, NetlistError, Port

RESERVED_PREFIXES = ("rg", "cd", "ko")
REQUEST_NET = "ko1"                      # first bank's ko, watched by the producer
ACK_NET = "ack"                          # last request, driven by the consumer


class PipelineSystem(NamedTuple):
    netlist: Netlist
    inverters: Dict[str, str]            # out net -> in net, out = not in
    net_class: Dict[str, str]

    def reset_state(self) -> Dict[str, int]:
        """All rails NULL, every request asking for DATA."""
        state = {n: 0 for n in self.netlist.nets}
        for out in self.inverters:
            state[out] = 1
        state[ACK_NET] = 1
        return state


def _completion_tree(nl: Netlist, stage: int, bits, net_class) -> None:
    """Rail-OR per bit, then 4-ary C-element reduction down to one net."""
    cd = f"cd{stage}"
    level: List[str] = []
    for i, (r1, r0) in enumerate(bits):
        out = cd if len(bits) == 1 else f"{cd}.b{i}"
        nl.add("TH12", [r1, r0], out, name=f"cdet{stage}_b{i}")
        net_class[out] = "completion"
        level.append(out)
    depth = 0
    while len(level) > 1:
        nxt: List[str] = []
        j = 0
        while level[j:]:
            chunk = level[j:j + 4]
            j += 4
            if len(chunk) == 1:
                nxt.append(chunk[0])
                continue
            last = j >= len(level) and len(nxt) == 0
            out = cd if last else f"{cd}.l{depth}.{len(nxt)}"
            nl.add(f"TH{len(chunk)}{len(chunk)}", chunk, out,
                   name=f"cdet{stage}_l{depth}_{len(nxt)}")
            net_class[out] = "completion"
            nxt.append(out)
        level = nxt
        depth += 1


def build_pipeline(cl: Netlist, n_stages: int = 1) -> PipelineSystem:
    """Wrap ``cl`` in ``n_stages`` register banks with completion detection.

    Bank 1 registers the primary inputs and feeds ``cl``; further banks
    register the previous outputs unchanged.  Each bank's request comes
    from the next bank's inverted detector; the last request is driven
    by the consumer, and the first bank's detector (inverted) is the
    request presented to the producer.  The checks on ``cl`` are the
    only ones: the plumbing adds TH12, TH22, TH33 and TH44 gates on
    reserved nets fed by input rails and requests, so the result
    validates whenever ``cl`` does.
    """
    if n_stages < 1:
        raise NetlistError("need at least one register bank")
    defects = cl.validate()
    if defects:
        raise NetlistError(f"combinational netlist invalid: {defects[0]}")
    if cl.ctl_inputs or cl.ctl_outputs:
        raise NetlistError("combinational netlist must not use control nets")
    for net in cl.nets:
        if net == ACK_NET or net.startswith(RESERVED_PREFIXES):
            raise NetlistError(f"net name {net!r} is reserved for pipeline plumbing")

    def ki(s: int) -> str:
        return f"ko{s + 1}" if s < n_stages else ACK_NET

    nl = Netlist(
        [p.name for p in cl.inputs],
        [],
        ctl_inputs=tuple(ki(s) for s in range(1, n_stages + 1)),
        ctl_outputs=tuple(f"cd{s}" for s in range(1, n_stages + 1)),
    )
    net_class: Dict[str, str] = {}
    for p in nl.inputs:
        net_class[p.rail1] = net_class[p.rail0] = "input"
    for s in range(1, n_stages + 1):
        net_class[ki(s)] = "handshake"
        net_class[f"ko{s}"] = "handshake"

    # rails entering the bank about to be built
    incoming: List[Tuple[str, Tuple[str, str]]] = [(p.name, p.rails) for p in cl.inputs]

    for s in range(1, n_stages + 1):
        registered: List[Tuple[str, str]] = []
        for bit, (r1, r0) in incoming:
            q1, q0 = f"rg{s}.{bit}.1", f"rg{s}.{bit}.0"
            nl.add("TH22", [r1, ki(s)], q1, name=f"rg{s}_{bit}_1")
            nl.add("TH22", [r0, ki(s)], q0, name=f"rg{s}_{bit}_0")
            registered.append((q1, q0))
            net_class[q1] = net_class[q0] = "register"
        _completion_tree(nl, s, registered, net_class)
        if s == 1:
            mapping = {r: q for (_, (r1, r0)), (q1, q0) in zip(incoming, registered)
                       for r, q in ((r1, q1), (r0, q0))}
            for g in cl.gates:
                nl.add(g.kind, [mapping.get(n, n) for n in g.ins], g.out, name=g.name)
                net_class.setdefault(g.out, "logic")
            incoming = [(p.name, tuple(mapping.get(r, r) for r in p.rails))
                        for p in cl.outputs]
        else:
            incoming = [(bit, q) for (bit, _), q in zip(incoming, registered)]

    nl.bind_outputs(tuple(Port(bit, q1, q0) for bit, (q1, q0) in incoming))
    inverters = {f"ko{s}": f"cd{s}" for s in range(1, n_stages + 1)}
    return PipelineSystem(netlist=nl, inverters=inverters, net_class=net_class)
