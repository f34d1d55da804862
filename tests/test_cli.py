"""Command-line driver: outputs, exit codes, and reproducibility.

Every command is run through main() with captured stdout; the
reproducibility tests assert byte equality between repeated runs.
"""
import contextlib
import hashlib
import io
import json
import math
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

# Structurally broken inputs, whose defect listings follow the order of the
# net and gate graph.  The .ncl carries second drivers on x and Z.1,
# undriven nets m and n, an arity mismatch (g4) and a cycle (g5, g6); an
# unknown kind is a parse error, so it gets a file of its own.  The .bnl
# carries a second driver on x and a cycle (g4, g5).
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
}

EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# SHA-256 of stdout and of the file --out writes, for every command on the
# bundled fixtures and on the broken files.  Each run happens in a scratch
# directory with relative file names, because stdout echoes the paths it
# was given.  None marks a run without --out.
OUTPUT_PINS = {
    "gate-report-all": (["gate-report", "all", "--out", "r.json"], 0,
        "2f8535102cb53eb8a1e6138e4fbbba9fa987c23c76293bebdb485184bccc3758",
        "ac390f435548ee214b48bed140e301e0a8ad9739866d8054794c12ead68cb26d"),
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
    "synth-broken": (["synth", "broken.bnl"], 2, EMPTY_SHA, None),
}

# SHA-256 of stderr; every other run leaves it empty.
STDERR_PINS = {
    "check-unknown-kind": "570a7d6825b21923b4b1d3bcb3df2f6a348311eccc7852ee5760e15003ebeabc",
    "synth-broken": "6cc0aabf24c5d002bff43d15dc7809b59e4a5d55b87f2ce216bac8171109172d",
}


@pytest.mark.parametrize("case", sorted(OUTPUT_PINS))
def test_command_output_is_pinned(capsys, tmp_path, monkeypatch, case):
    argv, want_code, want_out, want_file = OUTPUT_PINS[case]
    for name in ("and2.ncl", "and2_relaxed.ncl", "or2.ncl", "xor2.ncl", "full_adder.bnl"):
        (tmp_path / name).write_bytes(bundled(f"fixtures/{name}"))
    for name, text in BROKEN_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "v.txt").write_text(SIM_VECTORS)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    blob = (tmp_path / argv[argv.index("--out") + 1]).read_bytes() if "--out" in argv else None
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_out
    assert (None if blob is None else hashlib.sha256(blob).hexdigest()) == want_file
    assert hashlib.sha256(err.encode()).hexdigest() == STDERR_PINS.get(case, EMPTY_SHA)
