"""``ncl3d gate-report``: per-gate 2D and folded figures with improvements."""
from .cli import _model, _parse_alphas
from .gates import STUDY_GATES


def run(args) -> tuple:
    from .ppa import METRICS, gate_ppa, improvement_pct
    tech, cal, lines, digests = _model(args)
    alphas = _parse_alphas(args.alpha)
    # absent or "all" -> the studied six
    names = list(args.gates)
    if names == ["all"]:
        names = list(STUDY_GATES)
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
    return lines, {**digests, "alphas": alphas, "rows": rows, "averages": averages}, True
