"""RC model, calibration, and circuit rollup.

Wire figures are checked against hand-computed constants from the default
technology numbers.  Gate and circuit figures are checked against the
bundled reference rows and their improvement columns, with the bands the
model is required to hold.
"""
import hashlib
import json
import math
import sys

import pytest

from ncl3d.gates import GateSpec, canonical_sop, spec_from_name, transistor_counts
from ncl3d.model import (
    Calibration,
    PpaError,
    TechParams,
    default_calibration,
    default_tech,
    load_calibration,
    load_tech,
    save_calibration,
    save_tech,
)
from ncl3d.ppa import (
    Scenario,
    circuit_delay_assignment,
    circuit_ppa,
    evaluate_circuit,
    gate_improvements,
    gate_ppa,
    miv_count,
    ppa_jobs,
    sweep_alpha,
    wire_parasitics,
)
from ncl3d.pipeline import build_pipeline
from ncl3d.refdata import calibrate, load_reference
from ncl3d.sim import DelayAssignment, measure, simulate
from ncl3d.synth import build_array_multiplier, operand_bits

# Hand-computed from the default technology: half a 14-track cell at
# 130 nm pitch is 910 nm of wire, so 0.38 Ohm/sq * 910 / 65 = 5.32 Ohm
# of metal and 179.93 fF/mm * 910 nm = 0.1637363 fF.
HALF_CELL_R = 5.32
HALF_CELL_C = 0.1637363

METRICS = ("t_d", "t_s", "power", "area")

BUNDLED_CAL = json.loads(default_calibration().dump())["calibration"]


@pytest.fixture(scope="module")
def tech():
    return default_tech()


@pytest.fixture(scope="module")
def cal():
    return default_calibration()


@pytest.fixture(scope="module")
def table():
    return load_reference()


# ----------------------------------------------------------------- tech I/O

def test_default_tech_values(tech):
    assert tech.V_DD == 1.1
    assert tech.C_int == 179.93
    assert tech.cell_tracks == 14
    assert tech.cell_height == 1820.0


def test_tech_validation():
    with pytest.raises(PpaError):
        TechParams(w_M1=0.0)
    with pytest.raises(PpaError):
        TechParams(V_DD=-1.0)
    # ideal vias are allowed, they model the degenerate fold
    ideal = TechParams(R_MIV=0.0, C_MIV=0.0)
    assert ideal.R_MIV == 0.0


def test_tech_replaced_validates_and_keeps_the_rest(tech):
    thin = tech.replaced(w_M1=60.0)
    assert type(thin) is TechParams and thin.w_M1 == 60.0
    assert {**thin._asdict(), "w_M1": tech.w_M1} == tech.to_dict()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(PpaError):
            tech.replaced(w_M1=bad)
    with pytest.raises(TypeError):
        tech.replaced(no_such_knob=1.0)
    with pytest.raises(AttributeError):
        tech.w_M1 = 60.0
    with pytest.raises(AttributeError):
        tech.extra = 1.0


# The reprs of the model records, as they printed when the records were
# dataclasses; the calibration and pipeline ones by SHA-256 (the pipeline's
# with its netlist's counts of gates, inputs and outputs; it changed when the
# record stopped copying the netlist's ports and the two handshake nets).
TECH_REPR = ("TechParams(L_G=50.0, l_src=50.0, w_src=90.0, t_ILD=120.0, t_miv=50.0, "
             "w_M1=65.0, pitch_M1=130.0, w_gate=50.0, R_int_sq=0.38, R_via=6.0, "
             "C_int=179.93, R_MIV=5.5, C_MIV=0.04, koz=50.0, cell_tracks=14, V_DD=1.1, "
             "C_load=1.0)")
CAL_REPR_SHA256 = "df23ac425fa28b03e61f63c19b99403ec25335566b7d925d22969057e68b0cfe"
PIPELINE_REPR_SHA256 = "ba51ad210cde2424b393bd1e4320e7dc137e01ce02cf64c40833633911b22bed"


def test_record_reprs_are_unchanged(tech, cal):
    def sha(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    assert repr(tech) == TECH_REPR
    assert sha(repr(cal)) == CAL_REPR_SHA256
    assert repr(DelayAssignment(per_gate={"g": (2, 9)})) == \
        "DelayAssignment(default=1, per_gate={'g': (2, 9)})"
    system = build_pipeline(build_array_multiplier(2), n_stages=2)
    assert repr(system.netlist) == "Netlist(42 gates, 4 inputs, 4 outputs)"
    assert system._fields == ("netlist", "inverters", "net_class")
    assert sha(repr(system)) == PIPELINE_REPR_SHA256


def test_tech_round_trip(tech, tmp_path):
    path = tmp_path / "tech.json"
    path.write_text(tech.replaced(V_DD=0.9).dump())
    back = load_tech(path)
    assert back.V_DD == 0.9
    assert back.C_int == tech.C_int


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"version": 2, "tech": {}}),
    json.dumps({"version": 1, "tech": {"no_such_knob": 1.0}}),
    pytest.param(json.dumps({"version": 1, "tech": 5}), id="not-an-object"),
    pytest.param(json.dumps({"version": 1, "tech": {"L_G": "50"}}), id="string-value"),
    pytest.param(json.dumps({"version": 1, "tech": {"L_G": None}}), id="null-value"),
    *(pytest.param(json.dumps({"version": 1, "tech": {"R_int_sq": value}}), id=f"R_int_sq={value}")
      for value in (math.inf, -math.inf, math.nan)),
    pytest.param('{"version": 1, "tech": {"cell_tracks": 1%s}}' % ("0" * 400), id="int-past-float"),
])
def test_tech_parse_errors(text):
    with pytest.raises(PpaError):
        TechParams.parse(text)


# ------------------------------------------------------------- wire classes

def test_supply_wires(tech):
    for s in (Scenario.VDD_TO_NODE, Scenario.NODE_TO_GND):
        w = wire_parasitics(s, tech, "2D", 1.0, 0.5)
        assert w.r == pytest.approx(HALF_CELL_R + 6.0, rel=1e-12)
        assert w.c == pytest.approx(HALF_CELL_C, rel=1e-12)


def test_signal_wires_2d(tech):
    ntn = wire_parasitics(Scenario.NODE_TO_NODE, tech, "2D", 1.0, 0.5)
    itn = wire_parasitics(Scenario.INPUT_TO_NODE, tech, "2D", 1.0, 0.5)
    # both span half a cell at a fraction of 0.5; the landed output net
    # pays one extra via
    assert ntn.r == pytest.approx(HALF_CELL_R + 12.0, rel=1e-12)
    assert itn.r == pytest.approx(HALF_CELL_R + 6.0, rel=1e-12)
    assert ntn.c == itn.c == pytest.approx(HALF_CELL_C, rel=1e-12)
    triple = wire_parasitics(Scenario.NODE_TO_NODE, tech, "2D", 1.0, 3.0)
    assert triple.r == pytest.approx(6 * HALF_CELL_R + 12.0, rel=1e-12)
    assert triple.c == pytest.approx(6 * HALF_CELL_C, rel=1e-12)


def test_signal_wires_fold(tech):
    w = wire_parasitics(Scenario.NODE_TO_NODE, tech, "M3D", 0.7, 0.5)
    assert w.r == pytest.approx(HALF_CELL_R * 0.7 + 12.0 + 5.5, rel=1e-12)
    assert w.c == pytest.approx(HALF_CELL_C * 0.7 + 0.04, rel=1e-12)
    # supply geometry never folds
    v2 = wire_parasitics(Scenario.VDD_TO_NODE, tech, "2D", 1.0, 0.5)
    v3 = wire_parasitics(Scenario.VDD_TO_NODE, tech, "M3D", 0.7, 0.5)
    assert v2 == v3


def test_degenerate_fold_wire_identity(tech):
    ideal = tech.replaced(R_MIV=0.0, C_MIV=0.0)
    for s in Scenario:
        flat = wire_parasitics(s, ideal, "2D", 1.0, 0.8)
        fold = wire_parasitics(s, ideal, "M3D", 1.0, 0.8)
        assert fold.r == flat.r
        assert fold.c == flat.c


def test_wire_validation(tech):
    with pytest.raises(PpaError):
        wire_parasitics(Scenario.NODE_TO_NODE, tech, "4D", 1.0, 0.5)
    with pytest.raises(PpaError):
        wire_parasitics(Scenario.NODE_TO_NODE, tech, "M3D", 0.0, 0.5)
    with pytest.raises(PpaError):
        wire_parasitics(Scenario.NODE_TO_NODE, tech, "M3D", 1.2, 0.5)
    with pytest.raises(PpaError):
        wire_parasitics(Scenario.NODE_TO_NODE, tech, "2D", 1.0, 0.0)


def test_miv_counts():
    assert miv_count(spec_from_name("TH22")) == 4
    assert miv_count(spec_from_name("TH24comp")) == 6
    ad_hoc = GateSpec(name="T", arity=3, products=canonical_sop([(0, 1, 2)], 3))
    assert miv_count(ad_hoc) == 5


# ---------------------------------------------------------- calibration I/O

def test_calibration_validation(cal):
    with pytest.raises(PpaError):
        Calibration(a_unit=0.0, a_miv_eff=1.0, c_dev=1.0, k_skew=1.0,
                    route_fraction=1.0, net_route_factor=1.0,
                    test_rate_mhz=1.0, p_leak_per_t=1.0)
    with pytest.raises(PpaError):
        Calibration(a_unit=1.0, a_miv_eff=1.0, c_dev=1.0, k_skew=1.0,
                    route_fraction=1.0, net_route_factor=1.0,
                    test_rate_mhz=1.0, p_leak_per_t=1.0,
                    r_drive={"TH22": -5.0})
    with pytest.raises(PpaError):
        Calibration(a_unit=1.0, a_miv_eff=-0.001, c_dev=1.0, k_skew=1.0,
                    route_fraction=1.0, net_route_factor=1.0,
                    test_rate_mhz=1.0, p_leak_per_t=1.0)
    # zero is allowed: it models inter-tier vias as free
    free = Calibration(a_unit=1.0, a_miv_eff=0.0, c_dev=1.0, k_skew=1.0,
                       route_fraction=1.0, net_route_factor=1.0,
                       test_rate_mhz=1.0, p_leak_per_t=1.0)
    assert free.a_miv_eff == 0.0
    # each omitted map is a fresh empty one
    again = Calibration(*free[:8])
    assert again == free and again.r_drive == again.activity_mhz == again.residuals == {}
    assert all(a is not b for a, b in zip(again[8:], free[8:]))
    with pytest.raises(PpaError):
        Calibration(*free[:8], r_drive=None)


def test_calibration_fallbacks(cal):
    known = cal.r_drive_for("TH22")
    assert known == cal.r_drive["TH22"]
    mean = sum(cal.r_drive.values()) / len(cal.r_drive)
    assert cal.r_drive_for("TH12") == pytest.approx(mean)
    bare = Calibration(a_unit=1.0, a_miv_eff=1.0, c_dev=1.0, k_skew=1.0,
                       route_fraction=1.0, net_route_factor=1.0,
                       test_rate_mhz=1.0, p_leak_per_t=1.0)
    with pytest.raises(PpaError):
        bare.r_drive_for("TH22")
    with pytest.raises(PpaError):
        bare.activity_for("TH22")


def test_calibration_round_trip(cal, tmp_path):
    path = tmp_path / "cal.json"
    path.write_text(cal.dump())
    back = load_calibration(path)
    assert back == cal
    assert back.digest() == cal.digest()


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"version": 2, "calibration": {}}),
    pytest.param(json.dumps({"version": 1, "calibration": {"a_unit": 1.0}}), id="missing-fields"),
    pytest.param(json.dumps({"version": 1, "calibration": [[]]}), id="not-an-object"),
    *(pytest.param(json.dumps({"version": 1, "calibration": dict(BUNDLED_CAL, **{field: value})}),
                   id=f"{field}={value!r}")
      for field, value in (("c_dev", "2"), ("r_drive", None), ("activity_mhz", None),
                           ("residuals", None), ("activity_mhz", [1]),
                           ("r_drive", {"TH22": "x"}),
                           ("c_dev", math.inf), ("c_dev", -math.inf), ("a_miv_eff", math.nan),
                           ("r_drive", {"TH22": math.inf}), ("activity_mhz", {"TH22": math.nan}),
                           ("residuals", {"x": math.nan}), ("residuals", {"x": "a"}),
                           ("residuals", [1, 2]))),
])
def test_calibration_parse_errors(text):
    with pytest.raises(PpaError):
        Calibration.parse(text)


def test_save_writes_the_dump_and_load_gives_the_record_back(tmp_path):
    # the zeroable via fields and signed residuals survive a save
    tech = default_tech().replaced(R_MIV=0.0)
    cal = Calibration(**dict(BUNDLED_CAL, a_miv_eff=0.0, residuals={"t_d": -1.5, "area": 0.25}))
    for record, save, load in ((tech, save_tech, load_tech),
                               (cal, save_calibration, load_calibration)):
        path = tmp_path / f"{record.KEY}.json"
        save(record, path)
        assert path.read_bytes() == record.dump().encode("utf-8")
        back = load(path)
        assert type(back) is type(record) and back == record
        assert back.digest() == record.digest()


# ------------------------------------------------------ the model-file rule

# The one value rule of both model files, stated here as its own oracle:
# every number must be finite and positive, except that the via fields may
# be zero and the residuals may take either sign; a map field must be a
# mapping, and its values follow the rule of the field.  A bool counts as
# the number 0 or 1.
ZERO_OK = {"R_MIV", "C_MIV", "koz", "a_miv_eff"}
SIGNED = {"residuals"}
MAPS = {"r_drive", "activity_mhz", "residuals"}

RULE_GRID = (
    0, -0.0, -1, 1e-300, -1e-300, 2.5, math.inf, -math.inf, math.nan, True, False,
    10**400, -10**400, "x", "2", None, [], [1], {},
    {"TH22": 1.0}, {"TH22": 0}, {"TH22": -0.0}, {"TH22": -1.0}, {"TH22": 1e-300},
    {"TH22": math.inf}, {"TH22": math.nan}, {"TH22": "x"}, {"TH22": None},
    {"TH22": True}, {"TH22": False}, {"TH22": 10**400}, {"TH22": 2.5, "TH12": -2.5},
)


def number_fault(name, v):
    """The rule ``v`` breaks as a number of field ``name``, or None."""
    if not isinstance(v, (int, float)):
        return "finite"
    try:
        v = float(v)
    except OverflowError:
        return "finite"
    if not abs(v) < math.inf:
        return "finite"
    if v > 0 or name in SIGNED:
        return None
    if name in ZERO_OK:
        return None if v == 0 else "non-negative"
    return "positive"


def rule_fault(name, value):
    """(label, rule, offending value) for the first fault of ``value`` as
    field ``name``, or None when the rule accepts it."""
    if name in MAPS:
        if not isinstance(value, dict):
            return name, "a mapping", value
        for kind, v in value.items():
            rule = number_fault(name, v)
            if rule:
                return f"{name}[{kind}]", rule, v
        return None
    rule = number_fault(name, value)
    return rule and (name, rule, value)


@pytest.mark.parametrize("record, name", [
    *((TechParams, name) for name in TechParams._fields),
    *((Calibration, name) for name in Calibration._fields),
], ids=lambda x: getattr(x, "KEY", x))
def test_every_model_value_follows_the_one_rule(record, name):
    base = {} if record is TechParams else BUNDLED_CAL
    for value in RULE_GRID:
        fields = dict(base, **{name: value})
        text = json.dumps({"version": 1, record.KEY: fields})
        fault = rule_fault(name, value)
        for build in (lambda: record(**fields), lambda: record.parse(text)):
            if fault is None:
                assert getattr(build(), name) == value
                continue
            with pytest.raises(PpaError) as exc:
                build()
            label, rule, bad = fault
            assert str(exc.value) == f"{record.KEY} field {label} must be {rule}, got {bad!r}"


def test_unknown_model_fields_are_named():
    for record in (TechParams, Calibration):
        text = json.dumps({"version": 1, record.KEY: {"zz": 1, record._fields[0]: 1, "aa": 1}})
        with pytest.raises(PpaError, match=rf"^unknown {record.KEY} fields: \['aa', 'zz'\]$"):
            record.parse(text)


@pytest.fixture(scope="module")
def refit():
    return calibrate()


def test_bundled_calibration_matches_refit(cal, refit):
    """The committed coefficients are exactly what calibrate() produces."""
    for name in ("a_unit", "a_miv_eff", "c_dev", "k_skew", "route_fraction",
                 "net_route_factor", "test_rate_mhz", "p_leak_per_t"):
        assert getattr(refit, name) == pytest.approx(getattr(cal, name),
                                                     rel=1e-9), name
    for kind in cal.r_drive:
        assert refit.r_drive[kind] == pytest.approx(cal.r_drive[kind], rel=1e-9)
        assert refit.activity_mhz[kind] == pytest.approx(
            cal.activity_mhz[kind], rel=1e-9)


def test_refit_holds_plain_floats(refit):
    """No NumPy scalar leaks out of the fit: marshal, which carries results
    between forked workers, would send one as bytes."""
    maps = ("r_drive", "activity_mhz", "residuals")
    values = [v for name, v in zip(refit._fields, refit) if name not in maps]
    values += [v for m in maps for v in getattr(refit, m).values()]
    assert {type(v) for v in values} == {float}


def test_calibrate_without_scipy_names_the_fit_extra(monkeypatch):
    """Only the fit needs scipy, and ncl3d installs without it."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    with pytest.raises(ImportError, match=r"pip install 'ncl3d\[fit\]'"):
        calibrate()


# ------------------------------------------------------------- gate figures

def test_area_unit(cal, table):
    # every 2D area row is transistor count times one unit cell
    assert cal.a_unit == pytest.approx(0.0171, rel=1e-9)
    for name, row in table.gates_2d.items():
        n_t = sum(transistor_counts(spec_from_name(name)))
        assert row.area == pytest.approx(n_t * cal.a_unit, rel=1e-9)


def test_skew_fraction(cal, table):
    # minimax fit between the extreme skew/delay ratios
    lo = table.gates_2d["TH34"].t_s / table.gates_2d["TH34"].t_d
    hi = table.gates_2d["TH22"].t_s / table.gates_2d["TH22"].t_d
    assert cal.k_skew == pytest.approx(2 * lo * hi / (lo + hi), rel=1e-12)
    for name, row in table.gates_2d.items():
        assert cal.k_skew * row.t_d == pytest.approx(row.t_s, rel=0.10)


def test_flat_gate_rows_reproduced(tech, cal, table):
    """2D delay, power, and area match the reference rows exactly; skew
    stays within the documented single-fraction error."""
    for name in table.gate_names():
        ref = table.gates_2d[name]
        got = gate_ppa(name, tech, cal, "2D")
        assert got.t_d == pytest.approx(ref.t_d, rel=1e-9)
        assert got.power == pytest.approx(ref.power, rel=1e-9)
        assert got.area == pytest.approx(ref.area, rel=1e-9)
        assert got.t_s == pytest.approx(ref.t_s, rel=0.10)
        assert got.mode == "2D" and got.alpha == 1.0


def flat_wires_and_cap(spec, tech, cal):
    """The four 2D wire classes and the switched capacitance of ``spec``,
    rebuilt from public pieces: devices, every wire class and the pin load."""
    wires = {s: wire_parasitics(s, tech, "2D", 1.0, cal.route_fraction) for s in Scenario}
    c = (cal.c_dev * spec.max_stack
         + wires[Scenario.VDD_TO_NODE].c + wires[Scenario.NODE_TO_GND].c
         + wires[Scenario.NODE_TO_NODE].c
         + spec.arity * wires[Scenario.INPUT_TO_NODE].c
         + tech.C_load)
    return wires, c


def test_gate_delay_formula(tech, cal):
    # ln2 * (Rdrive + worst wire R) * C in fF gives ps after the 1e-3 scale
    wires, c = flat_wires_and_cap(spec_from_name("TH22"), tech, cal)
    r = cal.r_drive["TH22"] + max(w.r for w in wires.values())
    got = gate_ppa("TH22", tech, cal)
    assert got.t_d == pytest.approx(math.log(2) * r * c * 1e-3, rel=1e-12)
    assert got.t_s == pytest.approx(cal.k_skew * got.t_d, rel=1e-12)


def test_gate_power_split(tech, cal):
    spec = spec_from_name("TH24")
    quiet = gate_ppa(spec, tech, Calibration(**{**cal._asdict(),
                                                "activity_mhz": {"TH24": 1e-12}})).power
    assert quiet == pytest.approx(26 * cal.p_leak_per_t, rel=1e-6)
    busy = gate_ppa(spec, tech, Calibration(**{**cal._asdict(),
                                               "activity_mhz": {"TH24": 100.0}})).power
    _, c = flat_wires_and_cap(spec, tech, cal)
    assert busy - quiet == pytest.approx(100.0 * c * 1.21 * 1e-3, rel=1e-6)


def test_fold_area_improvements(tech, cal, table):
    errs = []
    for name in table.gate_names():
        got = gate_improvements(name, tech, cal, table.alpha)["area"]
        ref = table.improvements_pct[name]["area"]
        errs.append(got - ref)
        assert abs(got - ref) <= 5.0, name
    avg = sum(table.improvements_pct[n]["area"] for n in table.gate_names())
    got_avg = avg / 6 + sum(errs) / 6
    assert abs(got_avg - table.average_improvement_pct["area"]) <= 3.0


def test_fold_average_improvements(tech, cal, table):
    names = table.gate_names()
    per = {n: gate_improvements(n, tech, cal, table.alpha) for n in names}
    for metric in ("t_d", "t_s", "power"):
        avg = sum(per[n][metric] for n in names) / len(names)
        ref = table.average_improvement_pct[metric]
        assert abs(avg - ref) <= 4.0, metric


def test_fold_improvements_monotone_in_alpha(tech, cal, table):
    names = table.gate_names()

    def averages(alpha):
        per = [gate_improvements(n, tech, cal, alpha) for n in names]
        return {m: sum(p[m] for p in per) / len(per) for m in METRICS}

    shallow, ref, deep = averages(0.8), averages(0.7), averages(0.6)
    for metric in ("t_d", "t_s", "power"):
        assert shallow[metric] < ref[metric] < deep[metric], metric
    # area does not depend on the fold ratio
    assert shallow["area"] == ref["area"] == deep["area"]


def test_deep_fold_best_case_band(tech, cal, table):
    best_d = max(gate_improvements(n, tech, cal, 0.6)["t_d"]
                 for n in table.gate_names())
    best_s = max(gate_improvements(n, tech, cal, 0.6)["t_s"]
                 for n in table.gate_names())
    assert 12.0 <= best_d <= 18.0
    assert 12.0 <= best_s <= 18.0


def test_degenerate_fold_gate_identity(tech, cal, table):
    """alpha = 1 with free vias is bit-identical to 2D, not merely close."""
    ideal = tech.replaced(R_MIV=0.0, C_MIV=0.0)
    for name in table.gate_names():
        flat = gate_ppa(name, ideal, cal, "2D")
        fold = gate_ppa(name, ideal, cal, "M3D", 1.0)
        assert fold.t_d == flat.t_d
        assert fold.t_s == flat.t_s
        assert fold.power == flat.power


def test_fold_area_always_smaller(tech, cal):
    for name in ("TH12", "TH22", "TH24", "TH34", "TH54w322", "THand0",
                 "TH24comp", "TH44"):
        assert gate_ppa(name, tech, cal, "M3D", 0.7).area < gate_ppa(name, tech, cal).area


# Every public entry that takes a form, called on the context of
# form_context; gate_improvements and sweep_alpha price folded forms only,
# so they take an alpha alone.
FORM_ENTRIES = {
    "wire_parasitics": lambda c, m, a: wire_parasitics(Scenario.NODE_TO_NODE, c["tech"], m, a,
                                                       c["cal"].route_fraction),
    "gate_ppa": lambda c, m, a: gate_ppa("TH22", c["tech"], c["cal"], m, a),
    "gate_improvements": lambda c, m, a: gate_improvements("TH22", c["tech"], c["cal"], a),
    "circuit_delay_assignment": lambda c, m, a: circuit_delay_assignment(
        c["system"], c["cl"], c["tech"], c["cal"], m, a),
    "circuit_ppa": lambda c, m, a: circuit_ppa(c["cl"], c["trace"], c["tech"], c["cal"], m, a,
                                               report=c["report"]),
    "evaluate_circuit": lambda c, m, a: evaluate_circuit(
        c["cl"], c["vectors"], c["tech"], c["cal"], m, a),
    "ppa_jobs": lambda c, m, a: ppa_jobs(c["cl"], c["vectors"], c["tech"], c["cal"], [(m, a)]),
    "sweep_alpha": lambda c, m, a: sweep_alpha(["TH22"], [a], c["tech"], c["cal"]),
}
FOLD_ONLY = {"gate_improvements", "sweep_alpha"}
BAD_FORMS = [(entry, mode, alpha) for entry in FORM_ENTRIES
             for mode, alpha in [("flat", 0.7), ("2D", 0.0), ("2D", -0.1), ("2D", 1.5),
                                 ("M3D", 0.0), ("M3D", -0.1), ("M3D", 1.5)]
             if entry not in FOLD_ONLY or mode == "M3D"]


@pytest.fixture(scope="module")
def form_context(tech, cal):
    cl = build_array_multiplier(2)
    vectors = [operand_bits(2, x, y) for x in range(4) for y in range(4)]
    system = build_pipeline(cl)
    trace = simulate(system, vectors)
    return {"tech": tech, "cal": cal, "cl": cl, "vectors": vectors, "system": system,
            "trace": trace, "report": measure(trace)}


@pytest.mark.parametrize("entry,mode,alpha", BAD_FORMS,
                         ids=[f"{e}-{m}-{a}" for e, m, a in BAD_FORMS])
def test_every_entry_checks_its_form(form_context, entry, mode, alpha):
    """Alpha lies in (0, 1] in either mode, and the mode is 2D or M3D."""
    with pytest.raises(PpaError):
        FORM_ENTRIES[entry](form_context, mode, alpha)


# ----------------------------------------------------------- circuit rollup

@pytest.fixture(scope="module")
def mult_eval(tech, cal):
    cl = build_array_multiplier(4)
    vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
    flat = evaluate_circuit(cl, vectors, tech, cal, "2D")
    fold = evaluate_circuit(cl, vectors, tech, cal, "M3D", 0.7)
    return cl, flat, fold


def test_circuit_power_anchors(mult_eval, table):
    _, flat, fold = mult_eval
    assert flat.ppa.power == pytest.approx(table.circuit["power_2d_uw"], rel=1e-6)
    assert fold.ppa.power == pytest.approx(table.circuit["power_m3d_uw"], rel=1e-6)


def test_circuit_improvement_bands(mult_eval, table):
    _, flat, fold = mult_eval
    ref = table.circuit["improvement_pct"]
    area = 100 * (1 - fold.ppa.area / flat.ppa.area)
    delay = 100 * (1 - fold.ppa.t_d / flat.ppa.t_d)
    power = 100 * (1 - fold.ppa.power / flat.ppa.power)
    assert abs(area - ref["area"]) <= 5.0
    assert abs(delay - ref["t_d"]) <= 8.0
    assert abs(power - ref["power"]) <= 6.0


def test_circuit_outputs_survive_modeled_delays(mult_eval):
    _, flat, fold = mult_eval
    expect = tuple((k // 16) * (k % 16) for k in range(256))
    assert flat.metrics.words == expect
    assert fold.metrics.words == expect


def test_circuit_skew_positive(mult_eval):
    _, flat, fold = mult_eval
    assert flat.ppa.t_s > 0
    assert fold.ppa.t_s < flat.ppa.t_s


def test_delay_assignment_shape(tech, cal):
    cl = build_array_multiplier(2)
    system = build_pipeline(cl)
    delays = circuit_delay_assignment(system, cl, tech, cal, "2D")
    names = {g.name for g in system.netlist.gates}
    assert set(delays.per_gate) == names
    assert all(isinstance(d, int) and d >= 1 for d in delays.per_gate.values())
    # loaded logic is slower than the register bank plumbing
    logic = min(d for n, d in delays.per_gate.items() if not n.startswith(("rg", "cdet")))
    plumbing = max(d for n, d in delays.per_gate.items() if n.startswith("rg"))
    assert logic > plumbing


@pytest.mark.parametrize("mode,alpha", [("2D", 1.0), ("M3D", 0.7)])
def test_delay_assignment_matches_pricing_each_gate(tech, cal, mode, alpha):
    """Delays computed once per (kind, fanout) are the per-gate RC steps,
    gate for gate and in gate order."""
    from ncl3d.ppa import _delay, _instance_rows
    seg = wire_parasitics(Scenario.NODE_TO_NODE, tech, mode, alpha, cal.net_route_factor).c
    for width in range(2, 9):
        cl = build_array_multiplier(width)
        system = build_pipeline(cl)
        fanout = {g.name: n for g, _, n in _instance_rows(cl)}
        want = [(g.name, max(1, round(_delay(spec_from_name(g.kind), tech, cal, mode, alpha,
                                             fanout[g.name] * seg if g.name in fanout
                                             else None)[0])))
                for g in system.netlist.gates]
        got = circuit_delay_assignment(system, cl, tech, cal, mode, alpha).per_gate
        assert list(got.items()) == want, width


def test_transition_counts_are_delay_independent():
    """The activity behind the power model does not depend on timing."""
    cl = build_array_multiplier(2)
    system = build_pipeline(cl)
    vectors = [operand_bits(2, x, y) for x in range(4) for y in range(4)]
    base = simulate(system, vectors).transition_counts()
    import random
    rng = random.Random(7)
    names = [g.name for g in system.netlist.gates]
    jittered = simulate(system, vectors,
                        DelayAssignment.uniform_random(names, rng))
    assert jittered.transition_counts() == base


def test_evaluate_circuit_counts_each_trace_once(monkeypatch, tech, cal):
    """measure and circuit_ppa both read the trace's per-net counts; the
    trace counts its transitions once and hands each caller a copy."""
    from ncl3d import sim
    passes = []
    real = sim.Counter

    def counting(*args):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(sim, "Counter", counting)
    cl = build_array_multiplier(2)
    vectors = [operand_bits(2, x, y) for x in range(4) for y in range(4)]
    result = evaluate_circuit(cl, vectors, tech, cal, "M3D", 0.7)
    assert len(passes) == 1
    counts = result.trace.transition_counts()
    counts.clear()
    assert sum(result.trace.transition_counts().values()) == len(result.trace.records)
    assert len(passes) == 1


def test_evaluate_circuit_measures_its_trace_once(monkeypatch, tech, cal):
    from ncl3d import sim
    reports = []
    real = sim.measure

    def measure(trace):
        reports.append(real(trace))
        return reports[-1]

    monkeypatch.setattr(sim, "measure", measure)
    cl = build_array_multiplier(2)
    vectors = [operand_bits(2, x, y) for x in range(4) for y in range(4)]
    result = evaluate_circuit(cl, vectors, tech, cal, "M3D", 0.7)
    assert len(reports) == 1 and result.metrics is reports[0]
    assert result.ppa == circuit_ppa(cl, result.trace, tech, cal, "M3D", 0.7,
                                     report=real(result.trace))


def test_ppa_jobs_match_one_at_a_time(tech, cal):
    cl = build_array_multiplier(2)
    vectors = [operand_bits(2, x, y) for x in range(4) for y in range(4)]
    forms = [("2D", 1.0), ("M3D", 0.7), ("M3D", 0.5)]
    want = []
    for m, a in forms:
        r = evaluate_circuit(cl, vectors, tech, cal, m, a)
        want.append((tuple(r.ppa), r.metrics.words))
    assert [job() for job in ppa_jobs(cl, vectors, tech, cal, forms)] == want


def test_evaluate_circuit_needs_waves(tech, cal):
    cl = build_array_multiplier(2)
    with pytest.raises(PpaError):
        evaluate_circuit(cl, [], tech, cal)


# ------------------------------------------------------------------- sweeps

def test_sweep_gates(tech, cal, table):
    rows = sweep_alpha(table.gate_names(), [0.6, 0.8, 0.7, 0.7], tech, cal)
    assert [r.alpha for r in rows] == [0.8, 0.7, 0.6]
    mid = rows[1]
    per = {n: gate_improvements(n, tech, cal, 0.7) for n in table.gate_names()}
    for metric in METRICS:
        avg = sum(p[metric] for p in per.values()) / len(per)
        assert mid.improvements[metric] == pytest.approx(avg, rel=1e-12)
    assert set(mid.per_gate) == set(table.gate_names())


def test_sweep_circuit(tech, cal):
    cl = build_array_multiplier(2)
    vectors = [operand_bits(2, x, y) for x in range(4) for y in range(4)]
    rows = sweep_alpha(cl, [0.7], tech, cal, vectors=vectors)
    assert len(rows) == 1 and rows[0].per_gate == {}
    assert rows[0].improvements["area"] > 30.0


def test_sweep_validation(tech, cal):
    with pytest.raises(PpaError):
        sweep_alpha(["TH22"], [], tech, cal)
    with pytest.raises(PpaError):
        sweep_alpha(["TH22"], [1.5], tech, cal)
    with pytest.raises(PpaError):
        sweep_alpha([], [0.7], tech, cal)
    with pytest.raises(PpaError):
        sweep_alpha(build_array_multiplier(2), [0.7], tech, cal)
