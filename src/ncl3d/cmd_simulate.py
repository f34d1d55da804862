"""``ncl3d simulate``: a dual-rail netlist driven through the four-phase
pipeline, at unit delays or at the delays of the RC model."""
from typing import Dict

from .cli import _model, _model_header, _single_alpha, _write_report
from .netlist import load_netlist


def cmd_simulate(args) -> int:
    from .pipeline import build_pipeline
    from .sim import load_vectors, measure, simulate
    # the spec's syntax is checked in every mode; a 2D run prices alpha 1
    alpha = _single_alpha(args.alpha)
    nl = load_netlist(args.netlist)
    vectors = load_vectors(args.vectors)
    system = build_pipeline(nl)
    doc: Dict = {"command": "simulate", "netlist": str(args.netlist),
                 "vector_count": len(vectors), "mode": args.mode or "unit"}
    delays = None
    lines = ["# ncl3d simulate"]
    if args.mode:
        from .ppa import circuit_delay_assignment
        tech, cal = _model(args)
        if args.mode == "2D":
            alpha = 1.0
        delays = circuit_delay_assignment(system, nl, tech, cal, args.mode, alpha)
        lines = _model_header("simulate", tech, cal)
        doc.update(alpha=alpha, tech_digest=tech.digest(), calibration_digest=cal.digest())
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
    lines += _write_report(args, doc)
    print("\n".join(lines))
    return 0
