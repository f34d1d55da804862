"""``ncl3d synth``: a Boolean netlist expanded to dual-rail threshold gates."""
from pathlib import Path
from typing import Dict

from .netlist import NetlistError, parse_netlist, serialize_netlist


def run(args) -> tuple:
    from .boolnet import load_boolean_netlist
    from .synth import count_transistors, expand_dual_rail
    bnl = load_boolean_netlist(args.netlist)
    nl = expand_dual_rail(bnl)
    by_kind: Dict[str, int] = {}
    for g in nl.gates:
        by_kind[g.kind] = by_kind.get(g.kind, 0) + 1
    mix = " ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
    summary = [f"# source: {args.netlist} ({len(bnl.gates)} boolean gates)",
               f"# dual-rail: {len(nl.gates)} gates, "
               f"{count_transistors(nl).total} transistors ({mix})"]
    body = serialize_netlist(nl)
    try:    # a Boolean netlist without inputs or outputs has no .ncl form
        parse_netlist(body)
    except NetlistError as exc:
        raise NetlistError(f"{args.netlist}: the dual-rail result is not a valid .ncl "
                           f"file ({exc})") from None
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
        summary.append(f"# wrote {args.out}")
    else:   # stdout doubles as the artifact: header comments plus netlist
        summary.append(body.removesuffix("\n"))
    return summary, None, True
