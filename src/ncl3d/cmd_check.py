"""``ncl3d check``: structural, input-completeness and observability checks
on a dual-rail netlist."""
from typing import List, Sequence

from .cli import EXHAUSTIVE_PORT_LIMIT
from .checks import check_input_completeness, check_observability
from .netlist import load_netlist

# Past EXHAUSTIVE_PORT_LIMIT dual-rail inputs the checkers sample this many
# (vector, port subset) cases unless --exhaustive forces the full sweep.
SAMPLED_TRIALS = 256


def _itemize(label: str, items: Sequence, limit: int = 8) -> List[str]:
    if not items:
        return [f"{label}: clean"]
    lines = [f"{label}: {len(items)} violation(s)"]
    lines += [f"  - {v}" for v in items[:limit]]
    if len(items) > limit:
        lines.append(f"  ... and {len(items) - limit} more")
    return lines


def run(args) -> tuple:
    nl = load_netlist(args.netlist)
    lines = [f"netlist: {args.netlist} "
             f"(gates={len(nl.gates)}, inputs={len(nl.inputs)}, "
             f"outputs={len(nl.outputs)})"]
    defects = nl.validate()
    passed = not defects
    ic: List = []
    obs: List = []
    if defects:
        lines += _itemize("structural", defects)
        lines.append("semantic checks skipped until the structure is clean")
    else:
        lines.append("structural: clean")
        if args.exhaustive or len(nl.inputs) <= EXHAUSTIVE_PORT_LIMIT:
            trials, tag = None, "exhaustive"
        else:
            trials, tag = SAMPLED_TRIALS, f"sampled {SAMPLED_TRIALS} (seed {args.seed})"
        lines.append(f"sweep: {tag}")
        ic = check_input_completeness(nl, trials=trials, seed=args.seed)
        obs = check_observability(nl, trials=trials, seed=args.seed)
        lines += _itemize("input-completeness", ic)
        lines += _itemize("observability", obs)
        passed = not ic and not obs
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    doc = {"netlist": str(args.netlist),
           "structural": [str(d) for d in defects],
           "input_completeness": [str(v) for v in ic],
           "observability": [str(v) for v in obs], "passed": passed}
    return lines, doc, passed
