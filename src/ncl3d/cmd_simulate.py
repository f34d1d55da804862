"""``ncl3d simulate``: a dual-rail netlist driven through the four-phase
pipeline, at unit delays or at the delays of the RC model."""
from typing import Dict, List

from .cli import _model, _single_alpha
from .netlist import load_netlist


def run(args) -> tuple:
    from .pipeline import build_pipeline, load_vectors
    from .sim import measure, simulate
    # the spec is checked in every mode, its range only where a mode prices it
    alpha = _single_alpha(args.alpha)
    nl = load_netlist(args.netlist)
    vectors = load_vectors(args.vectors)
    system = build_pipeline(nl)
    doc: Dict = {"netlist": str(args.netlist),
                 "vector_count": len(vectors), "mode": args.mode or "unit"}
    delays = None
    lines: List[str] = []
    if args.mode:
        from .ppa import circuit_delay_assignment
        tech, cal, lines, digests = _model(args)
        delays = circuit_delay_assignment(system, nl, tech, cal, args.mode, alpha)
        if args.mode == "2D":   # a 2D run prices alpha 1
            alpha = 1.0
        doc.update(alpha=alpha, **digests)
    lines += [f"netlist: {args.netlist} (gates={len(nl.gates)})",
              f"vectors: {len(vectors)} from {args.vectors}",
              f"delay model: {args.mode} alpha={alpha:.2f}" if args.mode else "delay model: unit"]
    trace = simulate(system, vectors, delays)
    rep = measure(trace)
    lines.append("words: " + " ".join(str(w) for w in rep.words))
    if rep.worst_forward_latency is not None:
        lines.append(f"forward latency ps: worst {rep.worst_forward_latency} "
                     f"(per wave: {' '.join(str(v) for v in rep.forward_latencies)})")
        lines.append(f"output skew ps: worst {rep.worst_output_skew}")
    if rep.avg_cycle_time is not None:
        lines.append(f"cycle time ps: avg {rep.avg_cycle_time:.1f}")
    by_class = " ".join(f"{k}={v}" for k, v in sorted(rep.transitions_by_class.items()))
    lines.append(f"transitions: total={rep.total_transitions} {by_class}")
    doc.update(words=list(rep.words),
               forward_latencies_ps=list(rep.forward_latencies),
               output_skews_ps=list(rep.output_skews),
               cycle_times_ps=list(rep.cycle_times),
               transitions_by_class=dict(rep.transitions_by_class),
               total_transitions=rep.total_transitions)
    return lines, doc, True
