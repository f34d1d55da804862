"""Command-line driver: outputs, exit codes, and reproducibility.

Every command is run through main() with captured stdout; the
reproducibility tests assert byte equality between repeated runs.
"""
import contextlib
import io
import json
import os
import tempfile
from argparse import Namespace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncl3d.cli import _parse_alphas, CliError, cmd_gate_report, main
from ncl3d.netlist import load_netlist


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


@pytest.mark.parametrize("spec", [
    "", "x", "0.9:0.5:0.1", "0.5:0.9:-0.1", "0.5:0.9", "0", "1.5", "0.7,2.0",
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


def test_gate_report_empty_list(capsys):
    ns = Namespace(gates=[], alpha="0.7", tech=None, cal=None, out=None)
    assert cmd_gate_report(ns) == 0
    out = capsys.readouterr().out
    assert "(no gates requested)" in out


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


def test_multiplier_demo_width_guard(capsys):
    code, _, err = run(capsys, "multiplier-demo", "--width", "9")
    assert code == 2
    assert "width" in err


@pytest.mark.parametrize("trials", ["0", "-3", "x"])
def test_multiplier_demo_trials_must_be_positive(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["multiplier-demo", "--width", "2", "--trials", trials])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --trials" in err and "Traceback" not in err


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | st.text(max_size=5),
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
                           ("t.json", tech), ("c.json", cal)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "wb") as fh:
                fh.write(blob)
        for argv in (["check", paths["n.ncl"]],
                     ["simulate", paths["n.ncl"], paths["v.txt"]],
                     ["synth", paths["b.bnl"]],
                     ["gate-report", "TH22", "--tech", paths["t.json"]],
                     ["gate-report", "TH22", "--cal", paths["c.json"]],
                     ["simulate", fixture("xor2.ncl"), paths["v.txt"], "--mode", "M3D",
                      "--tech", paths["t.json"], "--cal", paths["c.json"]]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
