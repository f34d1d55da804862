"""``ncl3d multiplier-demo``: build, verify and price the array multiplier."""
from .cli import _model, _mult_vectors, _single_alpha


def run(args) -> tuple:
    from .forkmap import fork_map
    from .pipeline import build_pipeline
    from .ppa import PpaReport, improvement_pct, ppa_jobs
    from .sim import di_trials
    from .synth import build_array_multiplier, count_transistors
    tech, cal, lines, digests = _model(args)
    alpha = _single_alpha(args.alpha)
    cl = build_array_multiplier(args.width)
    transistors = count_transistors(cl).total
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
    doc = {**digests, "width": args.width,
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
    return lines, doc, passed
