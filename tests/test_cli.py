"""Command-line driver: outputs, exit codes, and reproducibility.

Every command is run through main() with captured stdout; the
reproducibility tests assert byte equality between repeated runs.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncl3d.cli import _parse_alphas, _trial_count, CliError, main
from ncl3d.netlist import load_netlist, serialize_netlist
from oracles import serialize_boolean_netlist
from test_bitparallel import relaxed_multiplier
from test_netlist import boolean_circuit


def fixture(name: str) -> str:
    return str(resources.files("ncl3d").joinpath(f"data/fixtures/{name}"))


def bundled(name: str) -> bytes:
    return resources.files("ncl3d").joinpath(f"data/{name}").read_bytes()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- alpha parsing

def test_alpha_specs():
    assert _parse_alphas("0.7") == [0.7]
    assert _parse_alphas("0.6,0.8") == [0.6, 0.8]
    assert _parse_alphas("0.6:0.8:0.1") == [0.6, 0.7, 0.8]
    assert _parse_alphas("1.0") == [1.0]


# Syntax only: the range (0, 1] is ppa's rule, pinned at the command level
# in OUTPUT_PINS.  A range may name at most cli.MAX_ALPHAS values.
@pytest.mark.parametrize("spec", [
    "", "x", "0.9:0.5:0.1", "0.5:0.9:-0.1", "0.5:0.9", "0.5:1:1e-320", "0.5:1:1e-6",
])
def test_alpha_spec_errors(spec):
    with pytest.raises(CliError):
        _parse_alphas(spec)


# -------------------------------------------------------------- gate-report

def test_gate_report_single(capsys):
    code, out, _ = run(capsys, "gate-report", "TH22", "--alpha", "0.7")
    assert code == 0
    assert "# tech " in out and "# calibration " in out
    lines = [l for l in out.splitlines() if l.startswith("TH22")]
    assert len(lines) == 2   # one 2D row, one folded row
    assert "96.4" in lines[0]


def test_gate_report_average_row(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "gate-report", "all", "--alpha", "0.7",
                       "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["rows"]) == 12   # six gates, two modes each
    avg = doc["averages"][0]["improvement_pct"]
    assert abs(avg["t_d"] - 10.5) <= 4.0
    assert abs(avg["area"] - 43.9) <= 3.0


def test_gate_report_unknown_gate(capsys):
    code, _, err = run(capsys, "gate-report", "TH99x")
    assert code == 2
    assert "error:" in err


# -------------------------------------------------------------------- check

def test_check_clean_fixture(capsys):
    code, out, _ = run(capsys, "check", fixture("and2.ncl"))
    assert code == 0
    assert "input-completeness: clean" in out
    assert "observability: clean" in out
    assert "result: PASS" in out


def test_check_flags_relaxed_fixture(capsys, tmp_path):
    out_file = tmp_path / "check.json"
    code, out, _ = run(capsys, "check", fixture("and2_relaxed.ncl"),
                       "--out", str(out_file))
    assert code == 1
    assert "result: FAIL" in out
    doc = json.loads(out_file.read_text())
    assert not doc["passed"]
    assert any("vector 00" in v for v in doc["input_completeness"])
    assert doc["observability"] == []


def test_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.ncl"
    bad.write_text("TH22 g a b -> z\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line 1" in err


def test_simulate_vector_wider_than_the_inputs(capsys, tmp_path):
    vecs = tmp_path / "v.txt"
    vecs.write_text("99\n")
    code, out, err = run(capsys, "simulate", fixture("xor2.ncl"), str(vecs))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "out of range" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/path.ncl")
    assert code == 2
    assert "error:" in err


def test_an_error_of_no_ncl3d_class_is_no_usage_error(monkeypatch):
    """Exit 2 goes by the module and name of the error's classes: a plain
    ValueError, base of most ncl3d errors, is a fault and propagates."""
    import ncl3d.cli

    def command(args):
        raise ValueError("a fault, not bad usage")
    monkeypatch.setattr(ncl3d.cli, "_command", lambda name: command)
    with pytest.raises(ValueError, match="a fault"):
        main(["check", "x.ncl"])


def test_each_usage_error_pair_names_a_class_of_its_module():
    """A pair that names no class, say after the class moved, would turn
    its errors into tracebacks; every public ncl3d error must be covered."""
    import importlib

    import ncl3d
    from ncl3d.cli import _USAGE_ERRORS
    for module, name in _USAGE_ERRORS:
        cls = getattr(importlib.import_module(module), name)
        assert (cls.__module__, cls.__name__) == (module, name)
    public = [getattr(ncl3d, n) for n in ncl3d.__all__]
    errors = [c for c in public if isinstance(c, type) and issubclass(c, Exception)]
    assert len(errors) > len(_USAGE_ERRORS)
    assert [c.__name__ for c in errors
            if not any((b.__module__, b.__name__) in _USAGE_ERRORS for b in c.__mro__)] == []


# ----------------------------------------------------------------- simulate

def test_simulate_unit_delays(capsys, tmp_path):
    vecs = tmp_path / "v.txt"
    vecs.write_text("0\n1\n2\n3\n")
    out_file = tmp_path / "sim.json"
    code, out, _ = run(capsys, "simulate", fixture("and2.ncl"), str(vecs),
                       "--out", str(out_file))
    assert code == 0
    assert "words: 0 0 0 1" in out
    assert "delay model: unit" in out
    doc = json.loads(out_file.read_text())
    assert doc["words"] == [0, 0, 0, 1]
    assert doc["mode"] == "unit"


def test_simulate_modeled_delays(capsys, tmp_path):
    vecs = tmp_path / "v.txt"
    vecs.write_text("0\n1\n2\n3\n")
    code, out, _ = run(capsys, "simulate", fixture("xor2.ncl"), str(vecs),
                       "--mode", "M3D", "--alpha", "0.7")
    assert code == 0
    assert "words: 0 1 1 0" in out
    assert "delay model: M3D alpha=0.70" in out
    assert "# tech " in out


def test_simulate_bad_vectors(capsys, tmp_path):
    vecs = tmp_path / "v.txt"
    vecs.write_text("banana\n")
    code, _, err = run(capsys, "simulate", fixture("and2.ncl"), str(vecs))
    assert code == 2
    assert "line 1" in err


# -------------------------------------------------------------------- synth

def test_synth_stdout_is_a_netlist(capsys):
    code, out, _ = run(capsys, "synth", fixture("full_adder.bnl"))
    assert code == 0
    from ncl3d.netlist import parse_netlist
    nl = parse_netlist(out)   # header comments parse away
    assert [p.name for p in nl.outputs] == ["S", "Cout"]
    assert len(nl.gates) == 10


def test_synth_to_file(capsys, tmp_path):
    out_file = tmp_path / "fa.ncl"
    code, out, _ = run(capsys, "synth", fixture("full_adder.bnl"),
                       "--out", str(out_file))
    assert code == 0
    assert "# wrote" in out
    nl = load_netlist(out_file)
    assert len(nl.gates) == 10


# Port lines a drawn .bnl may lose, and documents with no port at all.
BLANKED = [(), ("input",), ("output",), ("input", "output")]
PORTLESS = ["", "input\noutput\n", "input a b\noutput\nAND2 g1 a b -> z\n",
            "input\noutput z\n", "output\nINV g a -> z\n"]


def blank_ports(case, blank):
    """The .bnl text of a drawn circuit, its port lines in ``blank`` emptied."""
    lines = serialize_boolean_netlist(case[0]).splitlines(True)
    return "".join(line.split()[0] + "\n" if line.split()[0] in blank else line
                   for line in lines)


def test_every_netlist_synth_writes_loads_and_validates():
    """Whatever .bnl synth accepts, the .ncl it writes loads and validates;
    whatever it refuses exits 2 with empty stdout and no file written."""
    codes = set()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.builds(blank_ports, boolean_circuit(), st.sampled_from(BLANKED)),
                     st.sampled_from(PORTLESS)))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            src, out = os.path.join(tmp, "c.bnl"), os.path.join(tmp, "c.ncl")
            with open(src, "w") as fh:
                fh.write(text)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["synth", src, "--out", out])
            codes.add(code)
            if code == 0:
                assert load_netlist(out).validate() == []
            else:
                assert (code, stdout.getvalue(), os.path.exists(out)) == (2, "", False)

    check()
    assert codes == {0, 2}


# ---------------------------------------------------------- multiplier-demo

def test_multiplier_demo_small(capsys, tmp_path):
    out_file = tmp_path / "demo.json"
    code, out, _ = run(capsys, "multiplier-demo", "--width", "2",
                       "--out", str(out_file))
    assert code == 0
    assert "16/16 products correct" in out
    assert "result: PASS" in out
    doc = json.loads(out_file.read_text())
    assert doc["passed"] is True
    assert doc["verification"] == {"mode": "exhaustive 16", "correct": 16,
                                   "total": 16}
    assert doc["delay_insensitivity"]["passed"] is True
    impr = doc["ppa"]["improvement_pct"]
    assert impr["area"] > 30.0 and impr["power"] > 0.0


def test_multiplier_demo_sampled(capsys):
    code, out, _ = run(capsys, "multiplier-demo", "--width", "5",
                       "--seed", "3", "--trials", "2")
    assert code == 0
    assert "sampled 64 (seed 3)" in out
    assert "result: PASS" in out


def test_multiplier_demo_reports_a_wrong_product(capsys, tmp_path, monkeypatch):
    """A multiplier whose p0 rails are swapped gets every product wrong, yet
    stays delay-insensitive: the trials' reference is its own 2D words."""
    import ncl3d.synth
    from ncl3d.netlist import Port
    build = ncl3d.synth.build_array_multiplier

    def swapped_p0(width):
        cl = build(width)
        cl.bind_outputs([Port(p.name, p.rail0, p.rail1) if p.name == "p0" else p
                         for p in cl.outputs])
        return cl

    monkeypatch.setattr(ncl3d.synth, "build_array_multiplier", swapped_p0)
    out_file = tmp_path / "demo.json"
    code, out, _ = run(capsys, "multiplier-demo", "--width", "3", "--trials", "4",
                       "--out", str(out_file))
    assert code == 1
    lines = out.splitlines()
    for line in ("verification: exhaustive 64: 0/64 products correct, "
                 "every wave returned to NULL",
                 "  first mismatch at vector 0: got 1, want 0",
                 "delay insensitivity: 4 random assignments over 16 vectors: pass",
                 "result: FAIL"):
        assert line in lines
    doc = json.loads(out_file.read_text())
    assert doc["verification"]["correct"] == 0 and doc["passed"] is False


def test_multiplier_demo_width_guard(capsys):
    code, _, err = run(capsys, "multiplier-demo", "--width", "9")
    assert code == 2
    assert "width" in err


@pytest.mark.parametrize("trials", ["0", "-3", "x", "10001"])
def test_multiplier_demo_trials_must_be_positive(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["multiplier-demo", "--width", "2", "--trials", trials])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument --trials" in err and "Traceback" not in err


def test_trial_count_is_bounded():
    """Every trial's delays are drawn before the first runs, so the count is
    capped; the type is checked here without running a demo."""
    assert _trial_count("10000") == 10_000
    with pytest.raises(argparse.ArgumentTypeError, match="must be at most 10,000, got 10001"):
        _trial_count("10001")
    with pytest.raises(argparse.ArgumentTypeError, match="must be at least 1, got 0"):
        _trial_count("0")


# -------------------------------------------------------------------- sweep

def test_sweep_gates_monotone(capsys, tmp_path):
    out_file = tmp_path / "sweep.json"
    code, out, _ = run(capsys, "sweep", "gates", "--alpha", "0.6:0.8:0.1",
                       "--out", str(out_file))
    assert code == 0
    assert "deeper fold helps: t_d=yes t_s=yes power=yes" in out
    doc = json.loads(out_file.read_text())
    assert [r["alpha"] for r in doc["rows"]] == [0.8, 0.7, 0.6]
    series = [r["improvement_pct"]["t_d"] for r in doc["rows"]]
    assert series == sorted(series)


def test_sweep_matches_gate_report(capsys, tmp_path):
    """One-ratio sweep and gate-report aggregate to identical numbers."""
    sweep_file = tmp_path / "sweep.json"
    report_file = tmp_path / "report.json"
    assert main(["sweep", "gates", "--alpha", "0.7",
                 "--out", str(sweep_file)]) == 0
    assert main(["gate-report", "all", "--alpha", "0.7",
                 "--out", str(report_file)]) == 0
    capsys.readouterr()
    sweep_avg = json.loads(sweep_file.read_text())["rows"][0]["improvement_pct"]
    report_avg = json.loads(report_file.read_text())["averages"][0]["improvement_pct"]
    assert sweep_avg == report_avg


@pytest.mark.parametrize("argv", [("gate-report", "all"), ("sweep", "gates")],
                         ids=lambda argv: argv[0])
def test_each_gate_form_is_priced_once(capsys, monkeypatch, argv):
    """Each 2D form once per gate and each M3D form once per (gate, alpha):
    six gates at three fold ratios take 6 + 18 gate_ppa calls."""
    import ncl3d.ppa
    real = ncl3d.ppa.gate_ppa
    calls = []

    def counted(kind, tech, cal, mode="2D", alpha=1.0):
        calls.append((kind, mode, alpha))
        return real(kind, tech, cal, mode, alpha)

    monkeypatch.setattr(ncl3d.ppa, "gate_ppa", counted)
    code, _, _ = run(capsys, *argv, "--alpha", "0.6,0.7,0.8")
    assert code == 0
    assert len(calls) == len(set(calls)) == 24


def test_sweep_multiplier(capsys):
    code, out, _ = run(capsys, "sweep", "multiplier", "--width", "2",
                       "--alpha", "0.7,0.8")
    assert code == 0
    assert "width-2 multiplier" in out


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--alpha", "0.8:0.6:0.1")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------- reproducibility

@pytest.mark.parametrize("argv", [
    ["gate-report", "all", "--alpha", "0.6,0.7"],
    ["multiplier-demo", "--width", "2", "--seed", "1"],
    ["sweep", "gates"],
    ["check", fixture("xor2.ncl")],
], ids=["gate-report", "multiplier-demo", "sweep", "check"])
def test_repeated_runs_are_byte_identical(capsys, tmp_path, argv):
    out_file = tmp_path / "report.json"
    full = argv + ["--out", str(out_file)] if argv[0] != "check" else argv
    code1, out1, _ = run(capsys, *full)
    blob1 = out_file.read_bytes() if argv[0] != "check" else b""
    code2, out2, _ = run(capsys, *full)
    blob2 = out_file.read_bytes() if argv[0] != "check" else b""
    assert code1 == code2
    assert out1 == out2
    assert blob1 == blob2


# ------------------------------------------------------------- hostile input

NOT_UTF8 = b"\xff\xfe input A\n"


@pytest.mark.parametrize("argv", [
    ["check", "{bad}"],
    ["simulate", "{bad}", "{vec}"],
    ["simulate", fixture("and2.ncl"), "{bad}"],
    ["synth", "{bad}"],
    ["gate-report", "TH22", "--tech", "{bad}"],
    ["gate-report", "TH22", "--cal", "{bad}"],
], ids=["check-netlist", "simulate-netlist", "simulate-vectors", "synth", "tech", "cal"])
def test_non_utf8_files_are_usage_errors(capsys, tmp_path, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    vec = tmp_path / "v.txt"
    vec.write_text("0\n")
    code, out, err = run(capsys, *(a.format(bad=bad, vec=vec) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "utf-8" in err


@st.composite
def mutated(draw, seed: bytes):
    """``seed`` with a few byte ranges replaced by arbitrary bytes."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        data[pos:pos + draw(st.integers(0, 4))] = draw(st.binary(max_size=4))
    return bytes(data)


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | NON_FINITE
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)


@st.composite
def edited_model(draw, seed: bytes):
    """A bundled model document with fields dropped or given arbitrary JSON."""
    doc = json.loads(seed)
    key = next(k for k in doc if k != "version")
    for _ in range(draw(st.integers(1, 3))):
        body = doc[key] if isinstance(doc[key], dict) else {}
        edit = draw(st.integers(0, 3))
        if edit == 0 and body:
            del body[draw(st.sampled_from(sorted(body)))]
        elif edit == 1:
            body[draw(st.sampled_from(sorted(body) or ["x"]))] = draw(JSON_VALUES)
            doc[key] = body
        elif edit == 2:
            doc[key] = draw(JSON_VALUES)
        else:
            doc["version"] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


def hostile(seed: bytes, model: bool = False):
    files = st.binary(max_size=64) | mutated(seed)
    return files | edited_model(seed) if model else files


def holds_non_finite(blob: bytes) -> bool:
    """True when ``blob`` is JSON with an Infinity or NaN among its values."""
    def walk(value):
        if isinstance(value, float):
            return not math.isfinite(value)
        if isinstance(value, dict):
            value = list(value.values())
        return isinstance(value, list) and any(walk(v) for v in value)
    try:
        return walk(json.loads(blob))
    except ValueError:  # not UTF-8 or not JSON
        return False


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(netlist=hostile(bundled("fixtures/xor2.ncl")),
       boolean=hostile(bundled("fixtures/full_adder.bnl")),
       vectors=hostile(b"0\n1\n2\n3\n"),
       tech=hostile(bundled("default_tech.json"), model=True),
       cal=hostile(bundled("default_calibration.json"), model=True))
def test_cli_keeps_its_exit_codes_on_arbitrary_files(netlist, boolean, vectors, tech, cal):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, blob in (("n.ncl", netlist), ("b.bnl", boolean), ("v.txt", vectors),
                           ("t.json", tech), ("c.json", cal), ("good.txt", SIM_VECTORS.encode())):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(blob)
        # one hostile model file per run, the other bundled, on good vectors,
        # so the delay model runs whenever the edited file still loads
        m3d = ["simulate", fixture("xor2.ncl"), paths["good.txt"], "--mode", "M3D"]
        for argv, model in ((["check", paths["n.ncl"]], None),
                            (["simulate", paths["n.ncl"], paths["v.txt"]], None),
                            (["synth", paths["b.bnl"]], None),
                            (["gate-report", "TH22", "--tech", paths["t.json"]], tech),
                            (["gate-report", "TH22", "--cal", paths["c.json"]], cal),
                            (m3d + ["--tech", paths["t.json"]], tech),
                            (m3d + ["--cal", paths["c.json"]], cal)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if model is not None and holds_non_finite(model):
                assert code == 2, f"a non-finite model value was accepted: {argv}"


# ------------------------------------------------------------- output pins

SIM_VECTORS = "0\n1\n2\n3\n"


def cal_text(**fields) -> str:
    """The bundled calibration file with ``fields`` replaced."""
    doc = json.loads(bundled("default_calibration.json"))
    doc["calibration"].update(fields)
    return json.dumps(doc)


# Structurally broken inputs, whose defect listings follow the order of the
# net and gate graph.  The .ncl carries second drivers on x and Z.1,
# undriven nets m and n, an arity mismatch (g4) and a cycle (g5, g6); an
# unknown kind is a parse error, so it gets a file of its own.  The .bnl
# carries a second driver on x and a cycle (g4, g5).  Two .bnl files have
# no .ncl form (no ports at all, no outputs), and ctl.ncl uses a control
# net, which neither the checkers nor the pipeline take.  In
# input_driven.ncl gate g drives the input rail A.1, so the rail has two
# drivers: the environment and g.
BROKEN_FILES = {
    "broken.ncl": ("input A B\noutput Z\n"
                   "TH22 g1 A.1 B.1 -> x\n"
                   "TH12 g2 A.0 B.0 -> x\n"
                   "TH22 g3 x m -> Z.1\n"
                   "TH23 g4 A.0 B.0 -> Z.0\n"
                   "TH22 g5 c2 A.1 -> c1\n"
                   "TH22 g6 c1 B.1 -> c2\n"
                   "TH12 g7 n A.1 -> y\n"
                   "TH12 g8 A.1 B.0 -> Z.1\n"),
    "unknown.ncl": "input A B\noutput Z\nTH22 g1 A.1 B.1 -> Z.1\nTHX2 g2 A.0 B.0 -> Z.0\n",
    "broken.bnl": ("input a b\noutput z\n"
                   "AND2 g1 a b -> x\n"
                   "OR2 g2 a b -> x\n"
                   "XOR2 g3 x b -> z\n"
                   "AND2 g4 q a -> p\n"
                   "OR2 g5 p b -> q\n"),
    "dup_input.ncl": "input A A\noutput Z\nTH11 g1 A.1 -> Z.1\nTH11 g0 A.0 -> Z.0\n",
    "dup_input.bnl": "input a a\noutput z\nAND2 a a -> z\n",
    "dup_output.bnl": "input a b\noutput z z\nAND2 a b -> z\n",
    "empty.bnl": "",
    "no_output.bnl": "input a b\noutput\nAND2 g1 a b -> z\n",
    "ctl.ncl": "input A\noutput Z\nctlin ki\nTH22 g1 A.1 ki -> Z.1\nTH22 g0 A.0 ki -> Z.0\n",
    "input_driven.ncl": ("input A B\noutput Z\n"
                         "TH11 g B.1 -> A.1\nTH11 z1 A.1 -> Z.1\nTH11 z0 A.0 -> Z.0\n"),
    # model files that break the one value rule, one per rule
    "tech_zero.json": '{"version": 1, "tech": {"V_DD": 0}}',
    "tech_negative_miv.json": '{"version": 1, "tech": {"R_MIV": -1}}',
    "tech_unknown.json": '{"version": 1, "tech": {"V_dd": 1.1, "R_MIV": 0}}',
    "cal_zero_drive.json": cal_text(r_drive={"TH22": 0}),
    "cal_string.json": cal_text(c_dev="x"),
    "cal_nan.json": cal_text(c_dev=math.nan),
    "cal_list.json": cal_text(r_drive=[1]),
}

# Relaxed multipliers as (width, seed) of relaxed_multiplier: width 4 has
# 8 ports, so check sweeps it exhaustively and flags both IC and
# observability violations; width 5 has 10, so check samples 256 cases.
RELAXED_FILES = {"mult4_relaxed.ncl": (4, 9), "mult5_relaxed.ncl": (5, 17)}

EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# SHA-256 of stdout and of the file --out writes, for every command on the
# bundled fixtures and on the broken files.  Each run happens in a scratch
# directory with relative file names, because stdout echoes the paths it
# was given.  None marks a run without --out.
OUTPUT_PINS = {
    "gate-report-all": (["gate-report", "all", "--out", "r.json"], 0,
        "2f8535102cb53eb8a1e6138e4fbbba9fa987c23c76293bebdb485184bccc3758",
        "ac390f435548ee214b48bed140e301e0a8ad9739866d8054794c12ead68cb26d"),
    # gates without a reference row: drive and activity take the map average
    "gate-report-fallback": (["gate-report", "TH12", "TH13", "TH23", "TH33", "TH44",
                              "TH34w2", "--alpha", "0.6,0.8", "--out", "r.json"], 0,
        "cb716a76d0aac30baf719d68bfe63dec79d5d8efa7b0c676871bff5a8bb120dc",
        "3893fbc03ef0160c9e382975bd15613874ca8e311420a3fd4befc3877b955ce5"),
    "check-and2": (["check", "and2.ncl", "--out", "r.json"], 0,
        "ecf1144d24015298a675c9b253ef72caa7625b38d0941557a685ab6dcbcd5937",
        "ca5a22a56aac957c77947f338998c8e8c33b1ac087e24864f23086f52c207f77"),
    "check-and2-relaxed": (["check", "and2_relaxed.ncl", "--out", "r.json"], 1,
        "f64ab6904430c08eb583bf7ca9f4562c00db28587e8487bcf469c99d8f18cf24",
        "52f3e226f6c528c93d1f05c6234a818e81364bb5f0f7ba3befc26f5d8a8574cf"),
    "check-or2": (["check", "or2.ncl", "--out", "r.json"], 0,
        "a463f8463ae31bcf3b22cfb7cbecb25ed3744aaa1c5e012ba72454d198aa6e2e",
        "d214655261921bffe02a523c523f4fbce91ef626628aafd99db58dbe351b6450"),
    "check-xor2": (["check", "xor2.ncl", "--out", "r.json"], 0,
        "30e7500801a6ad39da633fd7d1d8f7daa540191cb022920639c0f1479b60f88e",
        "ebf59516ee06efdd26b947b046c677d046d988f11e365fc84fd2652441f0cde6"),
    "simulate-unit": (["simulate", "and2.ncl", "v.txt", "--out", "r.json"], 0,
        "c95565cbaabc86ed8ec034d3557f86ba22d1787b3dbef5a8d4d4449ac265f430",
        "9951cfc1811179865482d83f4956ebbd75b83c1772719df000e1a3148bc67cdf"),
    "simulate-m3d": (["simulate", "and2.ncl", "v.txt", "--mode", "M3D", "--out", "r.json"], 0,
        "ccf30dd4f9d0868447c67ab3ecf9ce7fd75c52d03799e0e0c42c7891be1d2095",
        "49c54accca63ca20399188fe7b7433f9174e2fd8a6805be8e1cdce0345f51a8a"),
    "synth-stdout": (["synth", "full_adder.bnl"], 0,
        "bda1f64b9f14ca22945179ca9e7d2b9ad3f304ab61dca7eaec494bcf6d20cddd",
        None),
    "synth-out": (["synth", "full_adder.bnl", "--out", "fa.ncl"], 0,
        "0793c627e9b23c1a40b285b15b36c0dc48bee2e7e4f3b7c8d1486a52b8dd8205",
        "b624aef96d18e581f6cf36b67d51b19b48d55cc55ec5ecd145c7b8d75d08281f"),
    "multiplier-demo-w3": (["multiplier-demo", "--width", "3", "--out", "r.json"], 0,
        "6196727f41e90418f52f08b541083dcbdf72384505d60b11109b404ed9c21973",
        "f87361f5085c39d869507eedd54cdb56f46e85f902f943d546dbd756a933a52b"),
    "sweep-gates": (["sweep", "gates", "--out", "r.json"], 0,
        "103395b71d49375099baefff2c46855788ef655806c9744de890903dfdab0c6e",
        "17dab886ad1cceb5310d066c098f3c61d16ca81b1b5b1b4b24d6a925b7f8579c"),
    "sweep-multiplier-w3": (["sweep", "multiplier", "--width", "3", "--out", "r.json"], 0,
        "f6349d6f3d2162f0cb79d49aac3874e44ae8ce8b5a061b0915258f0b60e7b7c7",
        "d9140a70155295a0417f108d9452d9142accbe71d7b9a3d91eac1457b18c4ca7"),
    "check-broken": (["check", "broken.ncl", "--out", "r.json"], 1,
        "958f4e43bfe408f0586db30752436851b4475d96aebd2e82fb62de91824034dd",
        "3e270bad00b0687a600fc3eb95afb1bca6fc7e551c59ab877daf53e7c5507c57"),
    "check-unknown-kind": (["check", "unknown.ncl"], 2, EMPTY_SHA, None),
    "check-mult4-relaxed": (["check", "mult4_relaxed.ncl", "--out", "r.json"], 1,
        "581f6f8f9a0104c3fb99a38a1768f87fcd1b22499099ae4ecbeef744da38e72e",
        "b0dc61757321a297f05bdb0ee7fec40ff6c3c1b3e78420bfe828ea1647d6f888"),
    "check-mult5-relaxed": (["check", "mult5_relaxed.ncl", "--out", "r.json"], 1,
        "5c0c5f6e0fbe7ff27cde64c02cf72299eeeb8029bebe62878dd5ccceb5ec27a7",
        "a845af009229e11878f926b2f0586381537915697d7c8984878c9cd984fed5fd"),
    "synth-broken": (["synth", "broken.bnl"], 2, EMPTY_SHA, None),
    "check-dup-input": (["check", "dup_input.ncl"], 2, EMPTY_SHA, None),
    "simulate-dup-input": (["simulate", "dup_input.ncl", "v.txt"], 2, EMPTY_SHA, None),
    "synth-dup-input": (["synth", "dup_input.bnl"], 2, EMPTY_SHA, None),
    "synth-dup-output": (["synth", "dup_output.bnl"], 2, EMPTY_SHA, None),
    "synth-empty": (["synth", "empty.bnl", "--out", "e.ncl"], 2, EMPTY_SHA, None),
    "synth-no-output": (["synth", "no_output.bnl"], 2, EMPTY_SHA, None),
    "check-ctl": (["check", "ctl.ncl"], 2, EMPTY_SHA, None),
    "simulate-ctl": (["simulate", "ctl.ncl", "v.txt"], 2, EMPTY_SHA, None),
    "simulate-broken": (["simulate", "broken.ncl", "v.txt"], 2, EMPTY_SHA, None),
    "check-input-driven": (["check", "input_driven.ncl", "--out", "r.json"], 1,
        "f2ed15af927df9976c73f865d154f0068de98e33c28389f324200eb06c294c41",
        "313c0acc89aaf4a44e9e909cb79f9839dfbe8e8401b25c06b145d10e9b476df8"),
    "simulate-input-driven": (["simulate", "input_driven.ncl", "v.txt"], 2, EMPTY_SHA, None),
    # rules the command leaves to their owners: ppa's fold ratio range, synth's
    # multiplier widths; and fold ratio ranges too fine or too long to count
    "gate-report-alpha-1.5": (["gate-report", "--alpha", "1.5"], 2, EMPTY_SHA, None),
    "gate-report-alpha-0.7,2.0": (["gate-report", "--alpha", "0.7,2.0"], 2, EMPTY_SHA, None),
    "sweep-gates-alpha-1.2": (["sweep", "gates", "--alpha", "0.6:1.2:0.2"], 2, EMPTY_SHA, None),
    "simulate-alpha-0": (["simulate", "and2.ncl", "v.txt", "--mode", "M3D", "--alpha", "0"],
                         2, EMPTY_SHA, None),
    "multiplier-demo-alpha-1.5": (["multiplier-demo", "--width", "2", "--alpha", "1.5"],
                                  2, EMPTY_SHA, None),
    "multiplier-demo-width-9": (["multiplier-demo", "--width", "9"], 2, EMPTY_SHA, None),
    # a command that prices one fold ratio refuses two
    "simulate-alpha-pair": (["simulate", "and2.ncl", "v.txt", "--mode", "M3D",
                             "--alpha", "0.6,0.7"], 2, EMPTY_SHA, None),
    "multiplier-demo-alpha-pair": (["multiplier-demo", "--width", "2", "--alpha", "0.6,0.7"],
                                   2, EMPTY_SHA, None),
    "sweep-multiplier-width-1": (["sweep", "multiplier", "--width", "1"], 2, EMPTY_SHA, None),
    "gate-report-tiny-step": (["gate-report", "TH22", "--alpha", "0.5:1:1e-320"], 2,
                              EMPTY_SHA, None),
    "sweep-gates-tiny-step": (["sweep", "gates", "--alpha", "0.5:1:1e-320"], 2, EMPTY_SHA, None),
    "gate-report-long-range": (["gate-report", "TH22", "--alpha", "0.5:1:1e-6"], 2,
                               EMPTY_SHA, None),
    # simulate checks --alpha's syntax in every mode, not only with M3D
    "simulate-unit-alpha-xyz": (["simulate", "and2.ncl", "v.txt", "--alpha", "xyz"], 2,
                                EMPTY_SHA, None),
    "simulate-2d-alpha-xyz": (["simulate", "and2.ncl", "v.txt", "--mode", "2D",
                               "--alpha", "xyz"], 2, EMPTY_SHA, None),
    # a 2D run prices and reports alpha 1 ("delay model: 2D alpha=1.00", "alpha": 1.0)
    "simulate-2d-alpha-0.7": (["simulate", "and2.ncl", "v.txt", "--mode", "2D",
                               "--alpha", "0.7", "--out", "r.json"], 0,
        "2e024fdd51b6e21dcaf208633017180b3c3ca80bff7a3717ba193bb760847a1b",
        "dd670758f6425a8bee54fb15f4f67efad75ffb341a79c205643d0d29e92a94f3"),
    # a 2D run prices alpha 1, but the range is checked in every mode that prices
    "simulate-2d-alpha-0": (["simulate", "and2.ncl", "v.txt", "--mode", "2D", "--alpha", "0"],
                            2, EMPTY_SHA, None),
    "simulate-2d-alpha-1.5": (["simulate", "and2.ncl", "v.txt", "--mode", "2D",
                               "--alpha", "1.5"], 2, EMPTY_SHA, None),
    # a model file that breaks the value rule is a usage error
    **{f"gate-report-{name[:-5]}": (["gate-report", "TH22", f"--{name.split('_')[0]}", name],
                                    2, EMPTY_SHA, None)
       for name in BROKEN_FILES if name.endswith(".json")},
    # --out is written before anything is printed: a failed write prints nothing
    "check-out-nodir": (["check", "and2.ncl", "--out", "nodir/r.json"], 2, EMPTY_SHA, None),
    "synth-out-nodir": (["synth", "full_adder.bnl", "--out", "nodir/fa.ncl"], 2,
                        EMPTY_SHA, None),
}


def error_sha(text: str) -> str:
    """SHA-256 of stderr that holds one error line and nothing else."""
    return hashlib.sha256(f"error: {text}\n".encode()).hexdigest()


BAD_SPEC = ("bad fold ratio spec {!r}; use values like '0.7', '0.6,0.8', "
            "or a range '0.6:0.8:0.1'")

# SHA-256 of stderr; every other run leaves it empty.
STDERR_PINS = {
    "check-unknown-kind": "570a7d6825b21923b4b1d3bcb3df2f6a348311eccc7852ee5760e15003ebeabc",
    "synth-broken": "6cc0aabf24c5d002bff43d15dc7809b59e4a5d55b87f2ce216bac8171109172d",
    # a port declared twice: one error line, which names the file line (.ncl and .bnl)
    "check-dup-input": error_sha("line 1: duplicate input port A"),
    "simulate-dup-input": error_sha("line 1: duplicate input port A"),
    "synth-dup-input": "3cae217e44295e252d01bd83e0bd6bfdf82b3fd46c50b7e2f3235521eac721f2",
    "synth-dup-output": "32880b2fd0246f72001998545a62d0aa41159f77dd3bd59ef841b7aa9ae97461",
    "synth-empty": error_sha("empty.bnl: the dual-rail result is not a valid .ncl file "
                             "(line 1: no input declaration)"),
    "synth-no-output": error_sha("no_output.bnl: the dual-rail result is not a valid .ncl "
                                 "file (line 1: no output declaration)"),
    "check-ctl": error_sha("checkers expect pure dual-rail netlists (no control inputs)"),
    "simulate-ctl": error_sha("combinational netlist must not use control nets"),
    "simulate-broken": error_sha("combinational netlist invalid: multiple-drivers: Z.1 "
                                 "(more than one gate drives this net)"),
    "simulate-input-driven": error_sha("combinational netlist invalid: multiple-drivers: A.1 "
                                       "(an input and a gate drive this net)"),
    "simulate-alpha-pair": error_sha("this command takes one fold ratio, got [0.6, 0.7]"),
    "multiplier-demo-alpha-pair": error_sha("this command takes one fold ratio, "
                                            "got [0.6, 0.7]"),
    "gate-report-alpha-1.5": error_sha("fold ratio alpha=1.5 outside (0, 1]"),
    "gate-report-alpha-0.7,2.0": error_sha("fold ratio alpha=2.0 outside (0, 1]"),
    "sweep-gates-alpha-1.2": error_sha("fold ratio alpha=1.2 outside (0, 1]"),
    "simulate-alpha-0": error_sha("fold ratio alpha=0.0 outside (0, 1]"),
    "multiplier-demo-alpha-1.5": error_sha("fold ratio alpha=1.5 outside (0, 1]"),
    "multiplier-demo-width-9": error_sha("width 9 outside the supported range [2, 8]"),
    "sweep-multiplier-width-1": error_sha("width 1 outside the supported range [2, 8]"),
    "gate-report-tiny-step": error_sha(BAD_SPEC.format("0.5:1:1e-320")),
    "sweep-gates-tiny-step": error_sha(BAD_SPEC.format("0.5:1:1e-320")),
    "gate-report-long-range": error_sha(BAD_SPEC.format("0.5:1:1e-6")),
    "simulate-unit-alpha-xyz": error_sha(BAD_SPEC.format("xyz")),
    "simulate-2d-alpha-xyz": error_sha(BAD_SPEC.format("xyz")),
    "simulate-2d-alpha-0": error_sha("fold ratio alpha=0.0 outside (0, 1]"),
    "simulate-2d-alpha-1.5": error_sha("fold ratio alpha=1.5 outside (0, 1]"),
    "gate-report-tech_zero": error_sha("tech field V_DD must be positive, got 0"),
    "gate-report-tech_negative_miv": error_sha("tech field R_MIV must be non-negative, got -1"),
    "gate-report-tech_unknown": error_sha("unknown tech fields: ['V_dd']"),
    "gate-report-cal_zero_drive": error_sha("calibration field r_drive[TH22] must be positive, "
                                            "got 0"),
    "gate-report-cal_string": error_sha("calibration field c_dev must be finite, got 'x'"),
    "gate-report-cal_nan": error_sha("calibration field c_dev must be finite, got nan"),
    "gate-report-cal_list": error_sha("calibration field r_drive must be a mapping, got [1]"),
    "check-out-nodir": error_sha("[Errno 2] No such file or directory: 'nodir/r.json'"),
    "synth-out-nodir": error_sha("[Errno 2] No such file or directory: 'nodir/fa.ncl'"),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_PINS))
def test_command_output_is_pinned(capsys, tmp_path, monkeypatch, case):
    argv, want_code, want_out, want_file = OUTPUT_PINS[case]
    for name in ("and2.ncl", "and2_relaxed.ncl", "or2.ncl", "xor2.ncl", "full_adder.bnl"):
        (tmp_path / name).write_bytes(bundled(f"fixtures/{name}"))
    for name, text in BROKEN_FILES.items():
        (tmp_path / name).write_text(text)
    for name, (width, seed) in RELAXED_FILES.items():
        if name in argv:
            (tmp_path / name).write_text(serialize_netlist(relaxed_multiplier(width, seed)))
    (tmp_path / "v.txt").write_text(SIM_VECTORS)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    out_file = tmp_path / argv[argv.index("--out") + 1] if "--out" in argv else None
    blob = out_file.read_bytes() if out_file and out_file.exists() else None
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_out
    assert (None if blob is None else hashlib.sha256(blob).hexdigest()) == want_file
    assert hashlib.sha256(err.encode()).hexdigest() == STDERR_PINS.get(case, EMPTY_SHA)
