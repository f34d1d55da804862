"""``ncl3d sweep``: the 2D-versus-M3D improvements over a range of fold
ratios, for the study gates or the array multiplier."""
from .cli import _model, _mult_vectors, _parse_alphas
from .gates import STUDY_GATES


def run(args) -> tuple:
    from .ppa import METRICS, sweep_alpha
    tech, cal, lines, digests = _model(args)
    alphas = _parse_alphas(args.alpha)
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
    doc = {**digests, "target": args.target,
           "rows": [{"alpha": r.alpha, "improvement_pct": dict(r.improvements),
                     "per_gate": {k: dict(v) for k, v in r.per_gate.items()}}
                    for r in rows],
           "monotone": monotone}
    return lines, doc, all(monotone[m] for m in ("t_d", "t_s", "power"))
