"""Acceptance checklist: ten end-to-end gates over the whole toolkit.

Each test covers one criterion, records a single PASS/FAIL line with the
measured values through tests/conftest.py, and then asserts.  Tolerances
are pinned here, next to the checks that use them.  Oracles are written
out by hand in this file so they cannot share a bug with the library:
gate behaviour is checked against an independent weight/threshold table,
the multiplier against integer products, and the model bands against the
bundled reference measurements.
"""
import itertools
import os
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import ncl3d
from conftest import record
from ncl3d import (
    DEFAULT_CATALOG,
    STUDY_GATES,
    Calibration,
    build_array_multiplier,
    build_pipeline,
    calibrate,
    check_delay_insensitivity,
    check_input_completeness,
    check_observability,
    count_transistors,
    default_tech,
    eval_set,
    evaluate_circuit,
    gate_improvements,
    gate_ppa,
    load_netlist,
    load_reference,
    next_output,
    operand_bits,
    simulate,
)

WIDTH = 4


def fixture_path(name: str) -> str:
    return str(resources.files("ncl3d").joinpath(f"data/fixtures/{name}"))


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def mult_cl():
    return build_array_multiplier(WIDTH)


@pytest.fixture(scope="module")
def mult_system(mult_cl):
    return build_pipeline(mult_cl)


@pytest.fixture(scope="module")
def all_vectors():
    return [operand_bits(WIDTH, x, y) for x in range(16) for y in range(16)]


@pytest.fixture(scope="module")
def tech():
    return default_tech()


@pytest.fixture(scope="module")
def cal(tech):
    # Refit from scratch rather than loading the bundled file, so the
    # criteria exercise the calibration path itself.
    return calibrate(tech)


@pytest.fixture(scope="module")
def table():
    return load_reference()


# ------------------------------------------------- 1. gate semantics

# Independent oracle: weights and thresholds restated by hand, plus the
# two gates whose set condition is not a plain threshold.
THRESHOLD_ORACLE = {
    "TH12": ((1, 1), 1),
    "TH13": ((1, 1, 1), 1),
    "TH22": ((1, 1), 2),
    "TH23": ((1, 1, 1), 2),
    "TH33": ((1, 1, 1), 3),
    "TH44": ((1, 1, 1, 1), 4),
    "TH24": ((1, 1, 1, 1), 2),
    "TH34": ((1, 1, 1, 1), 3),
    "TH34w2": ((2, 1, 1, 1), 3),
    "TH54w322": ((3, 2, 2, 1), 5),
}
SPECIAL_ORACLE = {
    "THand0": lambda a, b, c, d: (a and b) or (b and c) or (a and d),
    "TH24comp": lambda a, b, c, d: (a or b) and (c or d),
}

# Closed-form set functions for the six studied gates, one product term
# per minimal implicant, written out rather than generated.
CLOSED_FORMS = {
    "TH22": lambda a, b: a & b,
    "TH24": lambda a, b, c, d: (a & b) | (a & c) | (a & d) | (b & c) | (b & d) | (c & d),
    "TH34": lambda a, b, c, d: (a & b & c) | (a & b & d) | (a & c & d) | (b & c & d),
    "TH54w322": lambda a, b, c, d: (a & b) | (a & c) | (b & c & d),
    "THand0": lambda a, b, c, d: (a & b) | (b & c) | (a & d),
    "TH24comp": lambda a, b, c, d: (a & c) | (a & d) | (b & c) | (b & d),
}


def oracle_set(name, inputs):
    if name in SPECIAL_ORACLE:
        return 1 if SPECIAL_ORACLE[name](*inputs) else 0
    weights, threshold = THRESHOLD_ORACLE[name]
    return 1 if sum(w * v for w, v in zip(weights, inputs)) >= threshold else 0


def oracle_next(name, inputs, prev):
    # Assert on the set condition, clear when every input is low,
    # otherwise hold the previous output.
    if oracle_set(name, inputs):
        return 1
    if not any(inputs):
        return 0
    return prev


def test_01_gate_semantics():
    t0 = time.perf_counter()
    bad = []
    for name in DEFAULT_CATALOG:
        spec = DEFAULT_CATALOG[name]
        for prev in (0, 1):
            for inputs in itertools.product((0, 1), repeat=spec.arity):
                got = next_output(spec, inputs, prev)
                want = oracle_next(name, inputs, prev)
                if got != want:
                    bad.append(f"{name}{inputs} prev={prev}: {got} != {want}")
    for name, fn in CLOSED_FORMS.items():
        spec = DEFAULT_CATALOG[name]
        for inputs in itertools.product((0, 1), repeat=spec.arity):
            if eval_set(spec, inputs) != fn(*inputs):
                bad.append(f"{name} set{inputs} disagrees with closed form")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    record(1, "gate semantics", ok,
           f"12 gates exhaustive + 6 closed forms, {elapsed:.3f}s")
    assert not bad, bad[:5]
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"


# ------------------------------------------- 2. multiplier correctness

def test_02_multiplier_correctness(mult_system, all_vectors):
    expected = [x * y for x in range(16) for y in range(16)]
    t0 = time.perf_counter()
    trace = simulate(mult_system, all_vectors)
    values = trace.words()
    null_ok = all(w.t_null_complete is not None
                  and w.t_null_complete > w.t_data_complete
                  for w in trace.waves)
    elapsed = time.perf_counter() - t0
    n_good = sum(1 for got, want in zip(values, expected) if got == want)
    ok = (len(trace.waves) == 256 and values == expected
          and null_ok and elapsed < 60.0)
    record(2, "multiplier correctness", ok,
           f"{n_good}/256 products, all waves returned to NULL, {elapsed:.2f}s")
    assert len(trace.waves) == 256
    assert values == expected
    assert null_ok, "an output failed to return to NULL"
    assert elapsed < 60.0, f"took {elapsed:.2f}s, limit 60s"


# --------------------------------------------- 3. delay insensitivity

def test_03_delay_insensitivity(mult_system):
    corners = [(x, y) for x in (0, 1, 7, 8, 15) for y in (0, 1, 7, 8, 15)]
    rng = random.Random(2026)
    extras = [(rng.randrange(16), rng.randrange(16)) for _ in range(23)]
    pairs = corners + extras
    vectors = [operand_bits(WIDTH, x, y) for x, y in pairs]
    rep = check_delay_insensitivity(mult_system, vectors, n_trials=100, seed=7)
    ok = (rep.passed and rep.n_trials == 100
          and list(rep.words) == [x * y for x, y in pairs])
    record(3, "delay insensitivity", ok,
           f"100 random assignments, {len(pairs)} words each, "
           f"0 deadlocks, outputs identical")
    assert rep.passed, rep.detail
    assert rep.counterexample is None
    assert list(rep.words) == [x * y for x, y in pairs]


# --------------------------------------------- 4. completion checkers

def test_04_completion_checkers():
    t0 = time.perf_counter()
    clean_ic, clean_obs, flagged = True, True, False
    for name in ("and2.ncl", "or2.ncl", "xor2.ncl"):
        nl = load_netlist(fixture_path(name))
        clean_ic = clean_ic and not check_input_completeness(nl)
        clean_obs = clean_obs and not check_observability(nl)
    relaxed = load_netlist(fixture_path("and2_relaxed.ncl"))
    violations = check_input_completeness(relaxed)
    flagged = bool(violations)
    elapsed = time.perf_counter() - t0
    ok = clean_ic and clean_obs and flagged and elapsed < 5.0
    record(4, "completion checkers", ok,
           f"3 templates clean, relaxed AND flagged with "
           f"{len(violations)} violations, {elapsed:.3f}s")
    assert clean_ic and clean_obs, "a template fixture was flagged"
    assert flagged, "relaxed AND passed input-completeness"
    assert elapsed < 5.0


# ----------------------------------------------------- 5. area model

def test_05_area_model(tech, cal, table):
    area_errs, impr_errs = {}, {}
    for name in STUDY_GATES:
        flat = gate_ppa(name, tech, cal, mode="2D")
        ref = table.gates_2d[name].area
        area_errs[name] = abs(flat.area - ref) / ref
        impr = gate_improvements(name, tech, cal, alpha=table.alpha)["area"]
        impr_errs[name] = abs(impr - table.improvements_pct[name]["area"])
    avg = sum(gate_improvements(n, tech, cal, alpha=table.alpha)["area"]
              for n in STUDY_GATES) / len(STUDY_GATES)
    worst_rel = max(area_errs.values())
    worst_pp = max(impr_errs.values())
    ok = worst_rel <= 0.01 and worst_pp <= 5.0 and abs(avg - 43.9) <= 3.0
    record(5, "area model", ok,
           f"flat areas within {100 * worst_rel:.2f}%, fold improvement "
           f"within {worst_pp:.2f}pp, average {avg:.1f}%")
    assert worst_rel <= 0.01, area_errs
    assert worst_pp <= 5.0, impr_errs
    assert abs(avg - 43.9) <= 3.0, avg


# ---------------------------------------------- 6. gate figure trends

def test_06_gate_trends(tech, cal, table):
    def averages(alpha):
        per = [gate_improvements(n, tech, cal, alpha) for n in STUDY_GATES]
        return {m: sum(p[m] for p in per) / len(per)
                for m in ("t_d", "t_s", "power")}

    a8, a7, a6 = averages(0.8), averages(0.7), averages(0.6)
    ref = table.average_improvement_pct
    close = {m: abs(a7[m] - ref[m]) for m in a7}
    monotone = all(a8[m] < a7[m] < a6[m] for m in a7)
    deep_band = 12.0 <= a6["t_d"] <= 18.0 and 12.0 <= a6["t_s"] <= 18.0
    ok = max(close.values()) <= 4.0 and monotone and deep_band
    record(6, "gate figure trends", ok,
           f"0.7 averages d/s/p = {a7['t_d']:.1f}/{a7['t_s']:.1f}/"
           f"{a7['power']:.1f}%, monotone, 0.6 delay/skew "
           f"{a6['t_d']:.1f}/{a6['t_s']:.1f}%")
    assert max(close.values()) <= 4.0, (a7, ref)
    assert monotone, (a8, a7, a6)
    assert deep_band, a6


# ------------------------------------------------ 7. multiplier figures

def test_07_multiplier_figures(mult_cl, all_vectors, tech, cal):
    flat = evaluate_circuit(mult_cl, all_vectors, tech, cal, mode="2D")
    fold = evaluate_circuit(mult_cl, all_vectors, tech, cal,
                            mode="M3D", alpha=0.7)
    impr = {m: 100.0 * (1.0 - getattr(fold.ppa, m) / getattr(flat.ppa, m))
            for m in ("t_d", "power", "area")}
    ok = (abs(impr["area"] - 44.5) <= 5.0
          and abs(impr["t_d"] - 30.8) <= 8.0
          and abs(impr["power"] - 17.0) <= 6.0)
    record(7, "multiplier figures", ok,
           f"fold improvements area {impr['area']:.1f}%, delay "
           f"{impr['t_d']:.1f}%, power {impr['power']:.1f}%")
    assert abs(impr["area"] - 44.5) <= 5.0, impr
    assert abs(impr["t_d"] - 30.8) <= 8.0, impr
    assert abs(impr["power"] - 17.0) <= 6.0, impr


# ------------------------------------------------- 8. transistor count

def test_08_transistor_count(mult_cl):
    total = count_transistors(mult_cl).total
    ref = 2124
    rel = total / ref - 1.0
    ok = abs(rel) <= 0.20
    record(8, "transistor count", ok,
           f"{total} vs {ref} reference ({100 * rel:+.2f}%)")
    assert abs(rel) <= 0.20, total


# -------------------------------------------- 9. degenerate fold identity

def test_09_degenerate_fold_identity(tech, cal):
    tech0 = tech.replaced(R_MIV=0.0, C_MIV=0.0)
    cal0 = Calibration(**{**cal._asdict(), "a_miv_eff": 0.0})
    bad = []
    for name in DEFAULT_CATALOG:
        flat = gate_ppa(name, tech0, cal0, mode="2D")
        fold = gate_ppa(name, tech0, cal0, mode="M3D", alpha=1.0)
        for m in ("t_d", "t_s", "power"):
            if getattr(flat, m) != getattr(fold, m):
                bad.append(f"{name}.{m}: {getattr(flat, m)!r} != "
                           f"{getattr(fold, m)!r}")
    ok = not bad
    record(9, "degenerate fold identity", ok,
           "alpha=1, zeroed via parameters: delay/skew/power bit-equal "
           "for all 12 gates")
    assert not bad, bad


# --------------------------------------------- 10. command determinism

def test_10_command_determinism(tmp_path):
    vecs = tmp_path / "vectors.txt"
    vecs.write_text("0\n1\n2\n3\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    commands = [
        ("gate-report", "all", "--alpha", "0.6:0.8:0.1"),
        ("check", fixture_path("and2.ncl"), "--seed", "5"),
        ("simulate", fixture_path("xor2.ncl"), str(vecs),
         "--mode", "M3D", "--alpha", "0.7"),
        ("synth", fixture_path("full_adder.bnl")),
        ("multiplier-demo", "--width", "2", "--trials", "3", "--seed", "11"),
        ("sweep", "gates", "--seed", "1"),
    ]
    # The children run from out_dir, so a relative PYTHONPATH would not
    # find the package; put the directory this process imported it from first.
    env = dict(os.environ)
    pkg_root = str(Path(ncl3d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    mismatched = []
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "ncl3d", *argv],
                               capture_output=True, cwd=str(out_dir), env=env)
                for _ in range(2)]
        first, second = runs
        if first.returncode != 0:
            mismatched.append(f"{argv[0]}: exit {first.returncode}, "
                              f"{first.stderr.decode()[:120]}")
        elif (first.stdout, first.stderr, first.returncode) != \
                (second.stdout, second.stderr, second.returncode):
            mismatched.append(f"{argv[0]}: runs differ")
    ok = not mismatched
    record(10, "command determinism", ok,
           f"{len(commands)} commands, two fresh processes each, "
           "byte-identical output")
    assert not mismatched, mismatched
