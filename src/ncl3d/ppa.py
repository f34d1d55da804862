"""RC estimation of gate and circuit figures in 2D and folded-3D form.

The model prices each threshold gate from four wire classes (supply drop,
ground return, an average output net, and an average input net), a device
capacitance proportional to the longest series stack, and a per-type drive
resistance.  Folding a gate across two tiers shortens the routable wire
classes by ``alpha`` and inserts one inter-tier via per folded net; supply
and ground runs keep their 2D geometry.  Delay is the ln(2)*R*C step
response, skew is a fixed fraction of delay, power splits into an
activity-driven dynamic term and a per-transistor leak, and area is a
transistor-count model with a via adder for the folded form.

:func:`gate_ppa` is the one pricing path per gate: it returns all four
figures from one RC step, the worst wire resistance and the switched
capacitance.  Every entry that takes a form checks it one way: the mode
is ``2D`` or ``M3D``, the fold ratio ``alpha`` lies in (0, 1] in either
mode, and a 2D form reports alpha 1.0.

Free coefficients come from the bundled calibration, which
``refdata.calibrate`` fits to the reference measurements; the technology
and calibration records and their files live in :mod:`ncl3d.model`.  Units
throughout: nm for drawn lengths, Ohm, fF (C_int is fF/mm), ps, uW, um^2,
MHz, volts.
"""
from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache, partial
from importlib import import_module
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .gates import GateSpec, spec_from_name, transistor_counts
from .model import Calibration, PpaError, TechParams, default_calibration, default_tech

if TYPE_CHECKING:  # annotations only; the circuit rollup imports what it runs itself
    from .netlist import GateInst, Netlist
    from .pipeline import PipelineSystem
    from .sim import DelayAssignment, Report, Trace

LN2 = math.log(2.0)

MODES = ("2D", "M3D")

# The figures every report compares between the 2D and folded forms.
METRICS = ("t_d", "t_s", "power", "area")


class CalibrationError(PpaError):
    """The model cannot reproduce the reference data it was fit against."""


def _form(mode: str, alpha: float) -> Tuple[str, float]:
    """The checked (mode, alpha) of one implementation; 2D reports alpha 1.0."""
    m = str(mode).upper()
    if m not in MODES:
        raise PpaError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not 0.0 < alpha <= 1.0:
        raise PpaError(f"fold ratio alpha={alpha} outside (0, 1]")
    return m, 1.0 if m == "2D" else float(alpha)


# -------------------------------------------------------------- wire classes

class Scenario(Enum):
    """The four wire classes a gate drives or is driven through."""

    VDD_TO_NODE = "vdd_to_node"
    NODE_TO_GND = "node_to_gnd"
    NODE_TO_NODE = "node_to_node"      # output net toward the next gate
    INPUT_TO_NODE = "input_to_node"    # input pin branch


class WireRC(NamedTuple):
    r: float             # Ohm
    c: float             # fF


def wire_parasitics(scenario: Scenario, tech: TechParams, mode: str, alpha: float,
                    route_fraction: float) -> WireRC:
    """RC of one wire class.

    Supply and ground drops span half the cell and keep their geometry in
    both modes.  Node-to-node and input-to-node runs cover ``route_fraction``
    of a full cell span; in M3D those shrink by ``alpha`` and gain one
    inter-tier via.  Via counts: one for supply, ground, and input branches,
    two for the landed output net.
    """
    mode, alpha = _form(mode, alpha)
    if route_fraction <= 0.0:
        raise PpaError(f"route_fraction must be positive, got {route_fraction}")
    if scenario in (Scenario.VDD_TO_NODE, Scenario.NODE_TO_GND):
        length, vias, folds = tech.cell_height / 2.0, 1, False
    elif scenario is Scenario.NODE_TO_NODE:
        length, vias, folds = tech.cell_height * route_fraction, 2, True
    elif scenario is Scenario.INPUT_TO_NODE:
        length, vias, folds = tech.cell_height * route_fraction, 1, True
    else:
        raise PpaError(f"unknown wire scenario {scenario!r}")
    r_wire = tech.R_int_sq * length / tech.w_M1
    c_wire = tech.C_int * length * 1e-6
    if mode == "M3D" and folds:
        return WireRC(r=r_wire * alpha + vias * tech.R_via + tech.R_MIV,
                      c=c_wire * alpha + tech.C_MIV)
    return WireRC(r=r_wire + vias * tech.R_via, c=c_wire)


def miv_count(spec: GateSpec) -> int:
    """Inter-tier vias a folded gate needs: one per pin plus both rails."""
    return spec.arity + 2


# ---------------------------------------------------------- gate estimators

@lru_cache(maxsize=256)
def _wires(tech: TechParams, mode: str, alpha: float,
           route_fraction: float) -> Mapping[Scenario, WireRC]:
    """The four wire classes, built once per (tech, mode, alpha, route_fraction);
    a circuit rollup asks for the same ones for every gate."""
    return {s: wire_parasitics(s, tech, mode, alpha, route_fraction)
            for s in Scenario}


def _rc(spec: GateSpec, tech: TechParams, mode: str, alpha: float,
        route_fraction: float, c_dev: float,
        load: Optional[float] = None) -> Tuple[float, float]:
    """(worst wire resistance in Ohm, switched capacitance in fF) of one gate.

    The capacitance counts the devices, all four wire classes and the output
    load: ``load``, or the pin default.
    """
    w = _wires(tech, mode, alpha, route_fraction)
    c = c_dev * spec.max_stack
    c += w[Scenario.VDD_TO_NODE].c + w[Scenario.NODE_TO_GND].c
    c += w[Scenario.NODE_TO_NODE].c + spec.arity * w[Scenario.INPUT_TO_NODE].c
    c += tech.C_load if load is None else load
    return max(x.r for x in w.values()), c


def _delay(spec: GateSpec, tech: TechParams, cal: Calibration, mode: str,
           alpha: float, load: Optional[float] = None) -> Tuple[float, float]:
    """(propagation delay in ps, switched capacitance in fF): the ln(2)*R*C
    step response through the gate's drive and its worst wire."""
    r, c = _rc(spec, tech, mode, alpha, cal.route_fraction, cal.c_dev, load)
    return LN2 * (cal.r_drive_for(spec.name) + r) * c * 1e-3, c


def _area(spec: GateSpec, cal: Calibration, mode: str) -> float:
    """Footprint in um^2. Folding stacks the smaller device plane on top."""
    p, n = transistor_counts(spec)
    if mode == "2D":
        return (p + n) * cal.a_unit
    return max(p, n) * cal.a_unit + miv_count(spec) * cal.a_miv_eff


class PpaReport(NamedTuple):
    t_d: float      # ps
    t_s: float      # ps
    power: float    # uW
    area: float     # um^2
    mode: str
    alpha: float    # exactly 1.0 in 2D


def gate_ppa(kind: Union[str, GateSpec], tech: TechParams, cal: Calibration,
             mode: str = "2D", alpha: float = 1.0) -> PpaReport:
    """Delay and skew in ps, average power in uW (activity-weighted dynamic
    term plus leak) and footprint in um^2 of one gate type in one form."""
    mode, alpha = _form(mode, alpha)
    spec = kind if isinstance(kind, GateSpec) else spec_from_name(kind)
    t_d, c = _delay(spec, tech, cal, mode, alpha)
    n_t = sum(transistor_counts(spec))
    return PpaReport(
        t_d=t_d,
        t_s=cal.k_skew * t_d,
        power=cal.activity_for(spec.name) * c * tech.V_DD ** 2 * 1e-3 + n_t * cal.p_leak_per_t,
        area=_area(spec, cal, mode),
        mode=mode,
        alpha=alpha,
    )


def improvement_pct(base: PpaReport, fold: PpaReport) -> Dict[str, float]:
    """Percent reduction of each figure from ``base`` to ``fold``."""
    return {m: 100.0 * (1.0 - getattr(fold, m) / getattr(base, m)) for m in METRICS}


def gate_improvements(kind: Union[str, GateSpec], tech: TechParams,
                      cal: Calibration, alpha: float) -> Dict[str, float]:
    """Percent reduction of each figure when the gate folds at ``alpha``."""
    return improvement_pct(gate_ppa(kind, tech, cal, "2D"),
                           gate_ppa(kind, tech, cal, "M3D", alpha))


def _instance_rows(cl: Netlist) -> List[Tuple[GateInst, GateSpec, int]]:
    """(instance, spec, fanout of at least 1) for each gate of ``cl``."""
    return [(g, spec_from_name(g.kind), max(1, cl.fanout(g.out))) for g in cl.gates]


def _switched_cap(rows: Sequence[Tuple[GateInst, GateSpec, int]], trace: Trace,
                  tech: TechParams, mode: str, alpha: float, route_fraction: float,
                  c_dev: float, net_route_factor: float) -> float:
    """Capacitance the gates of ``rows`` switch per wave, in fF: each gate's
    load times its output transitions per DATA/NULL round trip."""
    counts = trace.transition_counts()
    seg = wire_parasitics(Scenario.NODE_TO_NODE, tech, mode, alpha, net_route_factor).c
    total = 0.0
    for g, spec, fanout in rows:
        _, c = _rc(spec, tech, mode, alpha, route_fraction, c_dev, fanout * seg)
        total += counts.get(g.out, 0) / (2.0 * len(trace.waves)) * c
    return total


# ------------------------------------------------------------ circuit rollup

def circuit_delay_assignment(system: PipelineSystem, cl: Netlist,
                             tech: TechParams, cal: Calibration,
                             mode: str = "2D",
                             alpha: float = 1.0) -> DelayAssignment:
    """Per-instance delays in whole ps for simulating one implementation.

    Logic instances carry their fanout wire load; register and completion
    plumbing keeps the standalone pin load.
    """
    from .sim import DelayAssignment
    mode, alpha = _form(mode, alpha)
    seg = wire_parasitics(Scenario.NODE_TO_NODE, tech, mode, alpha, cal.net_route_factor).c
    fanout = {g.name: n for g, _, n in _instance_rows(cl)}
    by_key: Dict[Tuple[str, Optional[int]], int] = {}   # delay per (kind, fanout)
    per: Dict[str, int] = {}
    for g in system.netlist.gates:
        key = (g.kind, fanout.get(g.name))
        if key not in by_key:
            load = key[1] * seg if key[1] is not None else None
            t_d, _ = _delay(spec_from_name(g.kind), tech, cal, mode, alpha, load)
            by_key[key] = max(1, round(t_d))
        per[g.name] = by_key[key]
    return DelayAssignment(per_gate=per)


def circuit_ppa(cl: Netlist, trace: Trace, tech: TechParams, cal: Calibration,
                mode: str = "2D", alpha: float = 1.0, *, report: Report) -> PpaReport:
    """Roll a simulated trace and the gate model up to circuit figures.

    Area and power cover the gates of ``cl`` (the measured block); the
    handshake plumbing around it is excluded, matching how the reference
    circuit is accounted.  Power reads the trace's transition counts;
    delay and skew come from ``report``, the caller's ``sim.measure`` of it.
    """
    mode, alpha = _form(mode, alpha)
    if report.worst_forward_latency is None:
        raise PpaError("trace carries no completed waves to time")
    rows = _instance_rows(cl)
    p_dyn = _switched_cap(rows, trace, tech, mode, alpha, cal.route_fraction, cal.c_dev,
                          cal.net_route_factor)
    p_dyn *= cal.test_rate_mhz * tech.V_DD ** 2 * 1e-3
    return PpaReport(
        t_d=float(report.worst_forward_latency),
        t_s=float(report.worst_output_skew),
        power=p_dyn + sum(sum(transistor_counts(s)) for _, s, _ in rows) * cal.p_leak_per_t,
        area=sum(_area(s, cal, mode) for _, s, _ in rows),
        mode=mode,
        alpha=alpha,
    )


class CircuitResult(NamedTuple):
    ppa: PpaReport
    metrics: Report
    trace: Trace


def evaluate_circuit(cl: Netlist, vectors: Sequence,
                     tech: Optional[TechParams] = None,
                     cal: Optional[Calibration] = None,
                     mode: str = "2D", alpha: float = 1.0) -> CircuitResult:
    """Pipeline, simulate, and price one implementation of ``cl``."""
    from .pipeline import build_pipeline
    from .sim import measure, simulate
    tech = tech or default_tech()
    cal = cal or default_calibration()
    system = build_pipeline(cl)
    delays = circuit_delay_assignment(system, cl, tech, cal, mode, alpha)
    trace = simulate(system, vectors, delays)
    rep = measure(trace)
    return CircuitResult(
        ppa=circuit_ppa(cl, trace, tech, cal, mode, alpha, report=rep),
        metrics=rep,
        trace=trace,
    )


def ppa_jobs(cl: Netlist, vectors: Sequence, tech: TechParams, cal: Calibration,
             forms: Sequence[Tuple[str, float]]) -> list:
    """One job for ``forkmap.fork_map`` per (mode, alpha) in ``forms``,
    returning ``(figures, words)`` of ``evaluate_circuit(...)``: the fields
    of its ``ppa``, which ``PpaReport(*figures)`` takes, and ``metrics.words``.
    Each form is checked, and the simulator and pipeline modules run,
    here: before any job runs and not again in each forked worker."""
    forms = [_form(*f) for f in forms]
    import_module(".sim", __package__)

    def job(mode: str, alpha: float):
        r = evaluate_circuit(cl, vectors, tech, cal, mode, alpha)
        return tuple(r.ppa), r.metrics.words
    return [partial(job, m, a) for m, a in forms]


# ------------------------------------------------------------------- sweeps

class SweepRow(NamedTuple):
    alpha: float
    improvements: Mapping[str, float]              # percent, 2D baseline
    per_gate: Mapping[str, Mapping[str, float]]    # empty for circuit sweeps


def sweep_alpha(target: Union[Sequence[str], Netlist],
                alphas: Sequence[float],
                tech: Optional[TechParams] = None,
                cal: Optional[Calibration] = None,
                vectors: Optional[Sequence] = None) -> List[SweepRow]:
    """Fold-ratio sweep, deepest fold last.

    ``target`` is either gate type names (headline row is their average)
    or a combinational netlist, which also needs input ``vectors``.
    A netlist is told by its gate instances, so pricing gate names
    imports no netlist module.
    """
    tech = tech or default_tech()
    cal = cal or default_calibration()
    order = sorted({_form("M3D", a)[1] for a in alphas}, reverse=True)
    if not order:
        raise PpaError("no fold ratios to sweep")
    rows: List[SweepRow] = []
    if hasattr(target, "gates"):
        if vectors is None:
            raise PpaError("a circuit sweep needs input vectors")
        from .forkmap import fork_map
        base, *folds = [PpaReport(*figures) for figures, _ in fork_map(ppa_jobs(
            target, vectors, tech, cal, [("2D", 1.0)] + [("M3D", a) for a in order]))]
        return [SweepRow(alpha=a, improvements=improvement_pct(base, fold), per_gate={})
                for a, fold in zip(order, folds)]
    kinds = list(target)
    if not kinds:
        raise PpaError("no gate types to sweep")
    base = {k: gate_ppa(k, tech, cal, "2D") for k in kinds}
    for a in order:
        per = {k: improvement_pct(base[k], gate_ppa(k, tech, cal, "M3D", a)) for k in kinds}
        avg = {m: sum(p[m] for p in per.values()) / len(per) for m in METRICS}
        rows.append(SweepRow(alpha=a, improvements=avg, per_gate=per))
    return rows
