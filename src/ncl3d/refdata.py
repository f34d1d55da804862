"""Bundled reference measurements for the six studied gates, and the fit
of the RC model to them.

The package ships one reference table: per-gate 2D and M3D delay, skew,
power, and area, the claimed percentage improvements, their averages,
and circuit-level figures for the width-4 multiplier.  :func:`calibrate`
fits the analytical model against the 2D rows and the improvement
columns, so the table loads those and leaves the file's M3D rows unread.
The fit ran once and ships frozen as ``data/default_calibration.json``,
which every command reads; it needs scipy, which the ``fit`` extra
installs.
"""
import json
from typing import List, Mapping, NamedTuple, Optional, Sequence

from .gates import STUDY_GATES, GateSpec, spec_from_name, transistor_counts
from .ppa import (LN2, Calibration, CalibrationError, Scenario, TechParams, _bundled,
                  _instance_rows, _rc, _switched_cap, default_tech, gate_improvements,
                  miv_count, wire_parasitics)


class GateRow(NamedTuple):
    t_d: float        # ps
    t_s: float        # ps
    power: float      # uW
    area: float       # um^2


class ReferenceTable(NamedTuple):
    alpha: float
    gates_2d: Mapping[str, GateRow]
    improvements_pct: Mapping[str, Mapping[str, float]]
    average_improvement_pct: Mapping[str, float]
    circuit: Mapping[str, object]

    def gate_names(self):
        return tuple(n for n in STUDY_GATES if n in self.gates_2d)


def load_reference() -> ReferenceTable:
    raw = json.loads(_bundled("reference_gates.json"))
    if raw.get("version") != 1:
        raise ValueError("unsupported reference table version")
    gates = raw["gates"]
    return ReferenceTable(
        alpha=float(raw["alpha"]),
        gates_2d={n: GateRow(**e["d2"]) for n, e in gates.items()},
        improvements_pct={n: dict(e["improvement_pct"]) for n, e in gates.items()},
        average_improvement_pct=dict(raw["average_improvement_pct"]),
        circuit=dict(raw["circuit"]),
    )


# ------------------------------------------------------------------ fitting

# Anchors beyond the reference table: the deepest studied fold ratio and
# the best-case delay gain it is known to reach, plus the per-instance
# average delay gain the fanout-loaded circuit model is sized for (kept a
# few points under the 1 - alpha asymptote so the fit stays well inside
# its feasible range).
SWEEP_LOW_ALPHA = 0.6
SWEEP_LOW_TARGET = 0.16
INSTANCE_DELAY_TARGET = 0.26

_RF_BOUNDS = (0.2, 3.0)
_CDEV_BOUNDS = (0.05, 10.0)


def _fit_r_drive(spec: GateSpec, t_d2: float, tech: TechParams,
                 route_fraction: float, c_dev: float) -> float:
    """Drive resistance that reproduces the 2D delay exactly."""
    r, c2 = _rc(spec, tech, "2D", 1.0, route_fraction, c_dev)
    return t_d2 * 1e3 / (LN2 * c2) - r


def _delay_improvement(spec: GateSpec, r_drive: float, tech: TechParams,
                       alpha: float, route_fraction: float, c_dev: float,
                       load2: Optional[float] = None,
                       load3: Optional[float] = None) -> float:
    r2, c2 = _rc(spec, tech, "2D", 1.0, route_fraction, c_dev, load2)
    r3, c3 = _rc(spec, tech, "M3D", alpha, route_fraction, c_dev, load3)
    return 1.0 - ((r_drive + r3) * c3) / ((r_drive + r2) * c2)


def _study_improvements(tech: TechParams, table: ReferenceTable, alpha: float,
                        route_fraction: float, c_dev: float) -> List[float]:
    out = []
    for name in table.gate_names():
        spec = spec_from_name(name)
        r = _fit_r_drive(spec, table.gates_2d[name].t_d, tech,
                         route_fraction, c_dev)
        out.append(_delay_improvement(spec, r, tech, alpha,
                                      route_fraction, c_dev))
    return out


def _avg_instance_improvement(rows: Sequence[tuple],
                              r_drive: Mapping[str, float], tech: TechParams,
                              alpha: float, route_fraction: float,
                              c_dev: float, lam: float) -> float:
    seg2 = wire_parasitics(Scenario.NODE_TO_NODE, tech, "2D", 1.0, lam).c
    seg3 = wire_parasitics(Scenario.NODE_TO_NODE, tech, "M3D", alpha, lam).c
    total = 0.0
    for _, spec, fanout in rows:
        total += _delay_improvement(spec, r_drive[spec.name], tech, alpha,
                                    route_fraction, c_dev,
                                    load2=fanout * seg2, load3=fanout * seg3)
    return total / len(rows)


def calibrate(tech: Optional[TechParams] = None,
              table: Optional[ReferenceTable] = None) -> Calibration:
    """Fit every model coefficient against the bundled reference rows.

    The fit is deterministic: area units and drive resistances are closed
    form, the (route_fraction, c_dev) pair comes from a bounded least
    squares on two delay-improvement anchors, the skew fraction is the
    minimax ratio, the via area adder is a least squares through the
    origin, the circuit routing span is bisected to its anchor, and the
    power pair (test rate, leak) solves the two circuit power anchors
    after one unit-delay simulation of the width-4 multiplier.
    """
    try:
        from scipy.optimize import least_squares
    except ImportError:
        raise ImportError("calibrate() needs scipy: pip install 'ncl3d[fit]'") from None

    from .pipeline import build_pipeline
    from .sim import simulate
    from .synth import build_array_multiplier, operand_bits

    tech = tech or default_tech()
    table = table or load_reference()
    names = table.gate_names()
    if not names:
        raise CalibrationError("reference table lists no gates")
    specs = {n: spec_from_name(n) for n in names}
    alpha_ref = table.alpha
    residuals = {}

    # area per transistor, which the 2D rows fix up to rounding noise
    units = {n: table.gates_2d[n].area / sum(transistor_counts(specs[n]))
             for n in names}
    a_unit = sum(units.values()) / len(units)
    unit_dev = max(abs(u / a_unit - 1.0) for u in units.values())
    if unit_dev > 0.01:
        raise CalibrationError(
            f"2D areas are not a common multiple of transistor count "
            f"(worst deviation {unit_dev:.2%})")
    residuals["a_unit_rel_spread"] = unit_dev

    # net span and device capacitance from two delay-improvement anchors
    avg_target = table.average_improvement_pct["t_d"] / 100.0

    def anchor_residuals(x):
        # plain floats: a NumPy scalar would also reach ppa's _wires cache,
        # whose equal-valued keys hand it on to every later figure
        rf, cd = map(float, x)
        ref = _study_improvements(tech, table, alpha_ref, rf, cd)
        low = _study_improvements(tech, table, SWEEP_LOW_ALPHA, rf, cd)
        return [sum(ref) / len(ref) - avg_target, max(low) - SWEEP_LOW_TARGET]

    fit = least_squares(anchor_residuals, x0=(1.0, 1.0),
                        bounds=((_RF_BOUNDS[0], _CDEV_BOUNDS[0]),
                                (_RF_BOUNDS[1], _CDEV_BOUNDS[1])))
    route_fraction, c_dev = float(fit.x[0]), float(fit.x[1])
    res_ref, res_low = anchor_residuals((route_fraction, c_dev))
    residuals["delay_avg_at_ref_alpha"] = res_ref + avg_target
    residuals["delay_max_at_low_alpha"] = res_low + SWEEP_LOW_TARGET
    if abs(res_ref) > 0.04:
        raise CalibrationError(
            f"average delay improvement at alpha={alpha_ref} lands at "
            f"{(res_ref + avg_target):.1%}, too far from its anchor")
    if not 0.12 <= res_low + SWEEP_LOW_TARGET <= 0.18:
        raise CalibrationError(
            f"best delay improvement at alpha={SWEEP_LOW_ALPHA} lands at "
            f"{(res_low + SWEEP_LOW_TARGET):.1%}, outside its anchor band")

    r_drive = {n: _fit_r_drive(specs[n], table.gates_2d[n].t_d, tech,
                               route_fraction, c_dev) for n in names}
    bad = [n for n, r in r_drive.items() if r <= 0]
    if bad:
        raise CalibrationError(f"non-physical drive resistance for {bad}")

    # skew fraction: minimax over the per-gate skew/delay ratios
    ratios = {n: table.gates_2d[n].t_s / table.gates_2d[n].t_d for n in names}
    lo, hi = min(ratios.values()), max(ratios.values())
    k_skew = 2.0 * lo * hi / (lo + hi)
    skew_err = (hi - lo) / (hi + lo)
    if skew_err > 0.10:
        raise CalibrationError(
            f"skew/delay ratios spread too wide for one fraction "
            f"(worst error {skew_err:.1%})")
    residuals["skew_worst_rel_err"] = skew_err

    # via area adder: least squares through the origin against the
    # fold-area overheads the improvement column implies
    num = den = 0.0
    for n in names:
        spec = specs[n]
        implied = table.gates_2d[n].area * (
            1.0 - table.improvements_pct[n]["area"] / 100.0)
        overhead = implied - max(*transistor_counts(spec)) * a_unit
        num += overhead * miv_count(spec)
        den += miv_count(spec) ** 2
    a_miv_eff = num / den
    if a_miv_eff <= 0:
        raise CalibrationError("fold area overheads imply a negative via adder")

    probe = Calibration(
        a_unit=a_unit, a_miv_eff=a_miv_eff, c_dev=c_dev, k_skew=k_skew,
        route_fraction=route_fraction, net_route_factor=1.0,
        test_rate_mhz=1.0, p_leak_per_t=1.0,
        r_drive=dict(r_drive), activity_mhz={n: 1.0 for n in names})
    area_impr = [gate_improvements(specs[n], tech, probe, alpha_ref)["area"]
                 for n in names]
    for n, got in zip(names, area_impr):
        err = got - table.improvements_pct[n]["area"]
        if abs(err) > 5.0:
            raise CalibrationError(f"{n} fold area improvement off by {err:.1f} points")
    avg_area = table.average_improvement_pct["area"]
    got_avg = sum(area_impr) / len(names)
    if abs(got_avg - avg_area) > 3.0:
        raise CalibrationError(
            f"average fold area improvement {got_avg:.1f}% misses {avg_area}%")
    residuals["area_avg_impr_pct"] = got_avg

    # circuit routing span: bisect the fanout segment length until the
    # average per-instance delay improvement meets its anchor
    cl = build_array_multiplier(4)
    rows = _instance_rows(cl)

    def lam_gap(lam: float) -> float:
        return _avg_instance_improvement(rows, r_drive, tech, alpha_ref,
                                         route_fraction, c_dev,
                                         lam) - INSTANCE_DELAY_TARGET

    lam_lo, lam_hi = 1e-3, 200.0
    if lam_gap(lam_lo) > 0 or lam_gap(lam_hi) < 0:
        raise CalibrationError("circuit delay anchor is outside the routing "
                               "span the fanout model can express")
    for _ in range(80):
        mid = 0.5 * (lam_lo + lam_hi)
        if lam_gap(mid) < 0:
            lam_lo = mid
        else:
            lam_hi = mid
    net_route_factor = 0.5 * (lam_lo + lam_hi)
    residuals["instance_delay_impr"] = (lam_gap(net_route_factor)
                                        + INSTANCE_DELAY_TARGET)

    # power pair (cycle rate, leak per transistor) from the two circuit
    # anchors; transition counts are delay independent, so one unit-delay
    # run of the multiplier fixes the per-net activity
    vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
    trace = simulate(build_pipeline(cl), vectors)
    v2 = tech.V_DD ** 2
    d2, d3 = (_switched_cap(rows, trace, tech, mode, alpha, route_fraction, c_dev,
                            net_route_factor) * v2 * 1e-3       # uW per MHz
              for mode, alpha in (("2D", 1.0), ("M3D", alpha_ref)))
    p2 = float(table.circuit["power_2d_uw"])
    p3 = float(table.circuit["power_m3d_uw"])
    if d2 <= d3:
        raise CalibrationError("folding does not reduce switched capacitance")
    test_rate_mhz = (p2 - p3) / (d2 - d3)
    n_t_total = sum(sum(transistor_counts(spec)) for _, spec, _ in rows)
    p_leak_per_t = (p2 - test_rate_mhz * d2) / n_t_total
    if test_rate_mhz <= 0 or p_leak_per_t <= 0:
        raise CalibrationError(
            f"circuit power anchors split into test rate {test_rate_mhz:.1f} "
            f"MHz and leak {p_leak_per_t:.2e} uW/transistor")
    residuals["circuit_dyn_2d_uw_per_mhz"] = d2

    # per-type activity from the standalone 2D power rows
    activity = {}
    for n in names:
        _, c2 = _rc(specs[n], tech, "2D", 1.0, route_fraction, c_dev)
        leak = sum(transistor_counts(specs[n])) * p_leak_per_t
        act = (table.gates_2d[n].power - leak) * 1e3 / (c2 * v2)
        if act <= 0:
            raise CalibrationError(f"{n} leak exceeds its total power")
        activity[n] = act

    return Calibration(
        a_unit=a_unit,
        a_miv_eff=a_miv_eff,
        c_dev=c_dev,
        k_skew=k_skew,
        route_fraction=route_fraction,
        net_route_factor=net_route_factor,
        test_rate_mhz=test_rate_mhz,
        p_leak_per_t=p_leak_per_t,
        r_drive=dict(r_drive),
        activity_mhz=activity,
        residuals=residuals,
    )
