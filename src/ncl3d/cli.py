"""Command-line driver.

Subcommands cover the whole flow: inspect gate figures, check netlists,
simulate pipelines, expand Boolean designs to dual-rail, run the
multiplier demonstration, and sweep the fold ratio.  Every command is
deterministic: fixed inputs and seed give byte-identical stdout and
report files, and model-based reports open with the digests of the
technology and calibration actually used.

Exit codes: 0 success, 1 a checker or verification found a violation,
2 bad usage, unreadable input, or malformed file.
"""
import argparse
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .gates import STUDY_GATES, GateError
from .netlist import (
    NetlistError,
    check_input_completeness,
    check_observability,
    load_netlist,
    serialize_netlist,
)

# The checkers sweep every (vector, port subset) pair exhaustively up to
# this many dual-rail inputs; beyond it they sample unless forced.
EXHAUSTIVE_PORT_LIMIT = 8
SAMPLED_TRIALS = 256

# A fold ratio range names at most this many values.  Each one is priced (a
# multiplier sweep simulates each), and a step of 1e-9 would build its
# whole list before anything else runs.
MAX_ALPHAS = 10_000


class CliError(ValueError):
    pass


# Loaders that perfbench/child.py reads as attributes of this module.  Each
# command imports what it needs itself, so these resolve on first use.
_PACKAGE_LOADERS = ("load_vectors", "build_pipeline", "build_array_multiplier",
                    "default_tech", "default_calibration")


def __getattr__(name: str):
    if name not in _PACKAGE_LOADERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


# ------------------------------------------------------------------ helpers

def _parse_alphas(spec: str) -> List[float]:
    """Fold ratios as comma values ("0.7,0.8") or a range ("0.6:0.8:0.1")."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = [float(tok) for tok in spec.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            span = (stop - start) / step + 1e-9
            if not span < MAX_ALPHAS:   # an inf or nan span fails too
                raise ValueError
            values = [round(start + k * step, 12) for k in range(int(span) + 1)]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad fold ratio spec {spec!r}; use values like "
                       f"'0.7', '0.6,0.8', or a range '0.6:0.8:0.1'") from None
    if not values:
        raise CliError("fold ratio spec names no values")
    return values


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _single_alpha(spec: str) -> float:
    values = _parse_alphas(spec)
    if len(values) != 1:
        raise CliError(f"this command takes one fold ratio, got {values}")
    return values[0]


def _model(args) -> tuple:
    from .ppa import default_calibration, default_tech, load_calibration, load_tech
    tech = load_tech(args.tech) if args.tech else default_tech()
    cal = load_calibration(args.cal) if args.cal else default_calibration()
    return tech, cal


def _model_header(command: str, tech, cal) -> List[str]:
    return [f"# ncl3d {command}",
            f"# tech {tech.digest()}",
            f"# calibration {cal.digest()}"]


def _write_report(args, doc: Dict) -> List[str]:
    if not getattr(args, "out", None):
        return []
    import json
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    return [f"wrote {args.out}"]


def _itemize(label: str, items: Sequence, limit: int = 8) -> List[str]:
    if not items:
        return [f"{label}: clean"]
    lines = [f"{label}: {len(items)} violation(s)"]
    lines += [f"  - {v}" for v in items[:limit]]
    if len(items) > limit:
        lines.append(f"  ... and {len(items) - limit} more")
    return lines


def _mult_vectors(width: int, exhaustive: bool, seed: int) -> tuple:
    """Operand vectors and the products they must produce."""
    from .synth import operand_bits
    if exhaustive:
        pairs = [(x, y) for x in range(1 << width) for y in range(1 << width)]
        tag = f"exhaustive {len(pairs)}"
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(1 << width), rng.randrange(1 << width))
                 for _ in range(64)]
        tag = f"sampled 64 (seed {seed})"
    vectors = [operand_bits(width, x, y) for x, y in pairs]
    expected = tuple(x * y for x, y in pairs)
    return vectors, expected, tag


# --------------------------------------------------------------- subcommands

def cmd_gate_report(args) -> int:
    from .ppa import METRICS, gate_ppa, improvement_pct
    tech, cal = _model(args)
    alphas = _parse_alphas(args.alpha)
    # absent or "all" -> the studied six
    names = list(args.gates)
    if names == ["all"]:
        names = list(STUDY_GATES)
    lines = _model_header("gate-report", tech, cal)
    head = (f"{'gate':<10} {'mode':<5} {'alpha':>5} {'t_d_ps':>9} {'t_s_ps':>9} "
            f"{'power_uW':>9} {'area_um2':>9}  {'d_t_d%':>7} {'d_t_s%':>7} "
            f"{'d_pow%':>7} {'d_area%':>7}")
    lines.append(head)
    rows = []

    def emit(name, rep, impr):
        cells = (f"{name:<10} {rep.mode:<5} {rep.alpha:>5.2f} {rep.t_d:>9.1f} "
                 f"{rep.t_s:>9.1f} {rep.power:>9.2f} {rep.area:>9.4f}")
        if impr is None:
            cells += "  " + " ".join(f"{'-':>7}" for _ in METRICS)
        else:
            cells += "  " + " ".join(f"{impr[m]:>7.1f}" for m in METRICS)
        lines.append(cells)
        rows.append({"gate": name, "mode": rep.mode, "alpha": rep.alpha,
                     "t_d_ps": rep.t_d, "t_s_ps": rep.t_s, "power_uw": rep.power,
                     "area_um2": rep.area, "improvement_pct": impr})

    averages = []
    improvements = {}
    for name in names:
        base = gate_ppa(name, tech, cal, "2D")
        emit(name, base, None)
        for a in alphas:
            fold = gate_ppa(name, tech, cal, "M3D", a)
            improvements[name, a] = improvement_pct(base, fold)
            emit(name, fold, improvements[name, a])
    for a in alphas:
        per = [improvements[n, a] for n in names]
        avg = {m: sum(p[m] for p in per) / len(per) for m in METRICS}
        averages.append({"alpha": a, "improvement_pct": avg})
        lines.append(f"{'average':<10} {'M3D':<5} {a:>5.2f} {'-':>9} {'-':>9} "
                     f"{'-':>9} {'-':>9}  "
                     + " ".join(f"{avg[m]:>7.1f}" for m in METRICS))
    doc = {"command": "gate-report", "tech_digest": tech.digest(),
           "calibration_digest": cal.digest(), "alphas": alphas,
           "rows": rows, "averages": averages}
    lines += _write_report(args, doc)
    print("\n".join(lines))
    return 0


def cmd_check(args) -> int:
    nl = load_netlist(args.netlist)
    lines = [f"# ncl3d check",
             f"netlist: {args.netlist} "
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
    doc = {"command": "check", "netlist": str(args.netlist),
           "structural": [str(d) for d in defects],
           "input_completeness": [str(v) for v in ic],
           "observability": [str(v) for v in obs], "passed": passed}
    lines += _write_report(args, doc)
    print("\n".join(lines))
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    from .pipeline import build_pipeline
    from .sim import load_vectors, measure, simulate
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
        alpha = 1.0 if args.mode == "2D" else _single_alpha(args.alpha)
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


def cmd_synth(args) -> int:
    from .boolnet import load_boolean_netlist
    from .synth import count_transistors, expand_dual_rail
    bnl = load_boolean_netlist(args.netlist)
    nl = expand_dual_rail(bnl)
    by_kind: Dict[str, int] = {}
    for g in nl.gates:
        by_kind[g.kind] = by_kind.get(g.kind, 0) + 1
    mix = " ".join(f"{k}={n}" for k, n in sorted(by_kind.items()))
    summary = [f"# ncl3d synth",
               f"# source: {args.netlist} ({len(bnl.gates)} boolean gates)",
               f"# dual-rail: {len(nl.gates)} gates, "
               f"{count_transistors(nl).total} transistors ({mix})"]
    body = serialize_netlist(nl)
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
        summary.append(f"# wrote {args.out}")
        print("\n".join(summary))
    else:
        # stdout doubles as the artifact: header comments plus netlist
        print("\n".join(summary))
        print(body, end="")
    return 0


def cmd_multiplier_demo(args) -> int:
    from .forkmap import fork_map
    from .pipeline import build_pipeline
    from .ppa import PpaReport, improvement_pct, ppa_jobs
    from .sim import di_trials
    from .synth import build_array_multiplier, count_transistors
    tech, cal = _model(args)
    alpha = _single_alpha(args.alpha)
    cl = build_array_multiplier(args.width)
    transistors = count_transistors(cl).total
    lines = _model_header("multiplier-demo", tech, cal)
    lines.append(f"width: {args.width}   gates: {len(cl.gates)}   "
                 f"transistors: {transistors}")

    exhaustive = args.exhaustive or args.width <= 4
    vectors, expected, tag = _mult_vectors(args.width, exhaustive, args.seed)
    di_vectors = vectors[:16]
    trials, di_report = di_trials(build_pipeline(cl), di_vectors, args.trials, args.seed)

    # one simulation per delay assignment, long jobs first: the 2D evaluation
    # (its words are the products checked below), the M3D one, the DI trials
    (flat, words), (fold, _), *outcomes = fork_map(
        [*ppa_jobs(cl, vectors, tech, cal, [("2D", 1.0), ("M3D", alpha)]), *trials])
    correct = sum(1 for got, want in zip(words, expected) if got == want)
    ok_products = correct == len(expected)
    lines.append(f"verification: {tag}: {correct}/{len(expected)} products correct, "
                 f"every wave returned to NULL")
    if not ok_products:
        bad = next(i for i, (g, w) in enumerate(zip(words, expected)) if g != w)
        lines.append(f"  first mismatch at vector {bad}: got {words[bad]}, "
                     f"want {expected[bad]}")

    # a DI circuit's words do not depend on delays: the checked 2D words are the reference
    di = di_report(words[:len(di_vectors)], outcomes)
    lines.append(f"delay insensitivity: {args.trials} random assignments over "
                 f"{len(di_vectors)} vectors: {'pass' if di.passed else 'FAIL'}")
    if not di.passed:
        lines.append(f"  {di.detail}")

    flat, fold = PpaReport(*flat), PpaReport(*fold)
    impr = improvement_pct(flat, fold)
    lines.append(f"{'figure':<10} {'2D':>12} {'M3D a=' + format(alpha, '.2f'):>12} "
                 f"{'impr%':>7}")
    for m, nd in (("t_d", 0), ("t_s", 0), ("power", 2), ("area", 4)):
        lines.append(f"{m:<10} {getattr(flat, m):>12.{nd}f} "
                     f"{getattr(fold, m):>12.{nd}f} {impr[m]:>7.1f}")
    passed = ok_products and di.passed
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    doc = {"command": "multiplier-demo", "tech_digest": tech.digest(),
           "calibration_digest": cal.digest(), "width": args.width,
           "alpha": alpha, "gates": len(cl.gates),
           "transistors": transistors,
           "verification": {"mode": tag, "correct": correct,
                            "total": len(expected)},
           "delay_insensitivity": {"trials": args.trials, "passed": di.passed},
           "ppa": {"2D": flat._asdict(), "M3D": fold._asdict(),
                   "improvement_pct": impr},
           "passed": passed}
    if not di.passed:   # what a replay of the failed trial needs
        doc["delay_insensitivity"].update(counterexample=dict(di.counterexample.per_gate),
                                          detail=di.detail)
    lines += _write_report(args, doc)
    print("\n".join(lines))
    return 0 if passed else 1


def cmd_sweep(args) -> int:
    from .ppa import METRICS, sweep_alpha
    tech, cal = _model(args)
    alphas = _parse_alphas(args.alpha)
    lines = _model_header("sweep", tech, cal)
    if args.target == "gates":
        rows = sweep_alpha(STUDY_GATES, alphas, tech, cal)
        lines.append(f"target: study gates ({len(STUDY_GATES)}), "
                     f"average improvement over 2D")
    else:
        from .synth import build_array_multiplier
        cl = build_array_multiplier(args.width)
        vectors, _, tag = _mult_vectors(args.width, args.width <= 4, args.seed)
        rows = sweep_alpha(cl, alphas, tech, cal, vectors=vectors)
        lines.append(f"target: width-{args.width} multiplier, {tag} vectors, "
                     f"improvement over 2D")
    lines.append(f"{'alpha':>5}  " + " ".join(f"{'d_' + m + '%':>8}" for m in METRICS))
    for row in rows:
        lines.append(f"{row.alpha:>5.2f}  "
                     + " ".join(f"{row.improvements[m]:>8.2f}" for m in METRICS))
    monotone = {}
    for m in ("t_d", "t_s", "power"):
        series = [r.improvements[m] for r in rows]  # deepest fold last
        monotone[m] = all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    area_series = [r.improvements["area"] for r in rows]
    monotone["area_constant"] = max(area_series) - min(area_series) < 1e-9
    lines.append("deeper fold helps: "
                 + " ".join(f"{m}={'yes' if monotone[m] else 'NO'}"
                            for m in ("t_d", "t_s", "power"))
                 + f" (area constant: {'yes' if monotone['area_constant'] else 'NO'})")
    doc = {"command": "sweep", "tech_digest": tech.digest(),
           "calibration_digest": cal.digest(), "target": args.target,
           "rows": [{"alpha": r.alpha, "improvement_pct": dict(r.improvements),
                     "per_gate": {k: dict(v) for k, v in r.per_gate.items()}}
                    for r in rows],
           "monotone": monotone}
    lines += _write_report(args, doc)
    print("\n".join(lines))
    return 0 if all(monotone[m] for m in ("t_d", "t_s", "power")) else 1


# --------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncl3d",
        description="NCL gate/circuit toolkit: dual-rail synthesis, "
                    "handshake simulation, and 2D vs folded-3D estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def model_opts(sp, alpha="0.7"):
        sp.add_argument("--tech", metavar="FILE",
                        help="technology JSON (bundled defaults otherwise)")
        sp.add_argument("--cal", metavar="FILE",
                        help="calibration JSON (bundled fit otherwise)")
        sp.add_argument("--alpha", default=alpha, metavar="SPEC",
                        help="fold ratio values '0.7', '0.6,0.8', or range "
                             "'0.6:0.8:0.1' (default %(default)s)")

    def out_opt(sp):
        sp.add_argument("--out", metavar="FILE",
                        help="also write a JSON report here")

    sp = sub.add_parser("gate-report",
                        help="per-gate 2D and folded figures with improvements")
    sp.add_argument("gates", nargs="*", default=["all"],
                    help="gate type names, or 'all' for the studied six "
                         "(default: all)")
    model_opts(sp)
    out_opt(sp)
    sp.set_defaults(func=cmd_gate_report)

    sp = sub.add_parser("check",
                        help="structural, input-completeness, and "
                             "observability checks on a dual-rail netlist")
    sp.add_argument("netlist")
    sp.add_argument("--exhaustive", action="store_true",
                    help="force the exhaustive sweep past "
                         f"{EXHAUSTIVE_PORT_LIMIT} input ports")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the sampled sweep (default %(default)s)")
    out_opt(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("simulate",
                        help="drive a dual-rail netlist through the "
                             "four-phase pipeline")
    sp.add_argument("netlist")
    sp.add_argument("vectors", help="one input word per line")
    sp.add_argument("--mode", choices=("2D", "M3D"),
                    help="use modeled gate delays (unit delays otherwise)")
    model_opts(sp)
    out_opt(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("synth",
                        help="expand a Boolean netlist to dual-rail threshold gates")
    sp.add_argument("netlist", help="Boolean netlist file")
    sp.add_argument("--out", metavar="FILE",
                    help="write the dual-rail netlist here instead of stdout")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("multiplier-demo",
                        help="build, verify, and price the array multiplier")
    sp.add_argument("--width", type=int, default=4, help="operand bits [2, 8]")
    sp.add_argument("--exhaustive", action="store_true",
                    help="force exhaustive verification past width 4")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_positive_int, default=10,
                    help="random delay assignments to try (default %(default)s)")
    model_opts(sp)
    out_opt(sp)
    sp.set_defaults(func=cmd_multiplier_demo)

    sp = sub.add_parser("sweep", help="fold-ratio sweep of the improvements")
    sp.add_argument("target", nargs="?", choices=("gates", "multiplier"),
                    default="gates")
    sp.add_argument("--width", type=int, default=4,
                    help="multiplier operand bits (default %(default)s)")
    sp.add_argument("--seed", type=int, default=0)
    model_opts(sp, alpha="0.6:0.8:0.1")
    out_opt(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


def _usage_errors() -> tuple:
    """The exceptions main reports with exit code 2 (FormatError and
    SynthError are NetlistErrors).  It runs only once something was raised,
    so a command that never touched ppa or sim does not load them."""
    from .ppa import PpaError
    from .sim import SimulationError
    return (CliError, GateError, NetlistError, PpaError, SimulationError,
            OSError, UnicodeDecodeError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _usage_errors() as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
