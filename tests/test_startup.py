"""Start-up: the package's public names, which modules each command runs,
the entry points, and those the benchmark harness (perfbench/child.py)
relies on.

Importing ncl3d runs none of its submodules; each public name resolves on
first use.  These tests pin what that must not change: every name the
package exported when it imported all its modules still resolves to the
same object, each command runs its own command module and no other,
``check`` never runs the model, simulator or synthesis modules and never
imports ``json``, only ``check`` runs the checkers, no command imports
``dataclasses`` or ``inspect``, ``gate-report`` and ``sweep gates`` never
run the simulator, the pipeline or even ``netlist``, reading a netlist, a
vector file or a model file runs neither the checkers, the pricing nor
the simulator, only calibration reads the reference table, an error exit
runs no module
the command's successful run does not, the commands that fork
workers load no process pool and run each ncl3d module once, the exit
through ``cli.entry`` keeps every output of ``main``, the ``ncl3d``
script and ``python -m ncl3d`` share that entry, and the harness's
set-up and traced children still work, with every function its traced
mode names by module still found there.
"""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ncl3d
from ncl3d import build_array_multiplier, build_pipeline, serialize_netlist, sim
from ncl3d.cli import main
from ncl3d.forkmap import usable_cpus

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(ncl3d.__file__).resolve().parent
CHILD = ROOT / "perfbench" / "child.py"

# The package's exports as they stood when __init__ imported every module
# eagerly, save that calibrate has since moved from ppa to refdata, the
# technology and calibration records, their loaders and PpaError from ppa
# to model, load_vectors and parse_vectors from sim to pipeline, and settle
# and the checkers from netlist to checks: submodule -> the names it
# exported.
EAGER_EXPORTS = {
    "gates": "DEFAULT_CATALOG STUDY_GATES GateError GateSpec eval_set next_output "
             "spec_from_name transistor_counts",
    "netlist": "FormatError Netlist NetlistError Port load_netlist parse_netlist "
               "serialize_netlist",
    "checks": "check_input_completeness check_observability settle",
    "boolnet": "BoolNetlist parse_boolean_netlist",
    "synth": "SynthError TransistorCount build_array_multiplier build_boolean_multiplier "
             "count_transistors expand_dual_rail operand_bits",
    "pipeline": "PipelineSystem build_pipeline load_vectors parse_vectors",
    "sim": "DeadlockError DelayAssignment DIReport EventLimitError Report SimulationError "
           "Trace VectorError Wave check_delay_insensitivity measure simulate",
    "refdata": "ReferenceTable calibrate load_reference",
    "model": "Calibration PpaError TechParams default_calibration default_tech "
             "load_calibration load_tech save_calibration save_tech",
    "ppa": "CalibrationError CircuitResult PpaReport Scenario SweepRow WireRC "
           "circuit_delay_assignment circuit_ppa evaluate_circuit gate_improvements gate_ppa "
           "miv_count sweep_alpha wire_parasitics",
}
EXPORTS = [(m, name) for m, names in EAGER_EXPORTS.items() for name in names.split()]

# HOOK writes to stderr the name of every ncl3d module whose body executes,
# however it was loaded, and a line per os.fork in any of its processes.
# PROBE runs `python -m ncl3d ARG...` under it as -m does, and also names
# every other module the command added to sys.modules (so not those that
# site hooks load).  ncl3d's own submodules sit there as lazy stubs, hence
# the hook.
HOOK = """
import os, runpy, sys
def hook(event, args):
    if event == "os.fork":
        sys.stderr.write("fork\\n")
        sys.stderr.flush()
    code = args[0] if event == "exec" else None
    if getattr(code, "co_name", None) == "<module>":
        folder, name = os.path.split(code.co_filename)
        if os.path.basename(folder) == "ncl3d":
            sys.stderr.write("executed ncl3d." + name[:-3] + "\\n")
sys.addaudithook(hook)
"""
PROBE = HOOK + """
before = set(sys.modules)
try:
    runpy.run_module("ncl3d", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.writelines(f"imported {m}\\n" for m in set(sys.modules) - before
                          if m.split(".")[0] != "ncl3d")
"""
HEAVY = {"ncl3d.model", "ncl3d.ppa", "ncl3d.sim", "ncl3d.synth", "ncl3d.pipeline",
         "ncl3d.boolnet", "ncl3d.refdata"}
# Every record is a NamedTuple: dataclasses alone costs about 13 ms a
# process, as it loads inspect.
SLOW_STDLIB = {"dataclasses", "inspect"}


def test_every_eager_export_resolves_to_its_module():
    wrong = [f"{m}.{name}" for m, name in EXPORTS
             if getattr(ncl3d, name) is not getattr(getattr(ncl3d, m), name)]
    assert wrong == []
    assert sorted(ncl3d.__all__) == sorted(name for _, name in EXPORTS)
    assert {name for _, name in EXPORTS} <= set(dir(ncl3d))
    with pytest.raises(AttributeError):
        ncl3d.no_such_name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from ncl3d import *", namespace)
    assert [name for m, name in EXPORTS
            if namespace.get(name) is not getattr(getattr(ncl3d, m), name)] == []


def child_env():
    env = dict(os.environ)
    pkg_root = str(Path(ncl3d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def probe(tmp_path, *argv):
    return subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE, *argv],
                          capture_output=True, text=True, cwd=str(tmp_path), env=child_env())


def forks(run) -> int:
    return run.stderr.splitlines().count("fork")


def run_probed(tmp_path, *argv):
    """Exit code, stdout and the modules a fresh `ncl3d ARG...` ran: the
    ncl3d ones seen by -X importtime or the probe's audit hook, and every
    other module it imported; then how many times it forked."""
    run = probe(tmp_path, *argv)
    imported = re.findall(r"^import time:.*\| +(ncl3d\S*)$", run.stderr, re.M)
    executed = re.findall(r"^(?:executed|imported) (\S+)$", run.stderr, re.M)
    return run.returncode, run.stdout, set(imported) | set(executed), forks(run)


def command_modules(loaded):
    """The command modules (cmd_*.py) among the modules a run loaded."""
    return {m for m in loaded if m.startswith("ncl3d.cmd_")}


def test_the_file_loaders_run_neither_the_pricing_nor_the_simulator(tmp_path):
    """Reading a netlist, a vector file or a model file, and building the
    pipeline, compiles neither ppa nor sim, nor the checkers."""
    (tmp_path / "mult2.ncl").write_text(serialize_netlist(build_array_multiplier(2)))
    (tmp_path / "v.txt").write_text("0\n5\n")
    script = HOOK + """
import ncl3d
ncl3d.build_pipeline(ncl3d.load_netlist("mult2.ncl"))
assert ncl3d.load_vectors("v.txt") == [0, 5]
ncl3d.save_tech(ncl3d.default_tech(), "tech.json")
assert ncl3d.load_tech("tech.json") == ncl3d.default_tech()
ncl3d.default_calibration()
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         cwd=str(tmp_path), env=child_env())
    assert run.returncode == 0, run.stderr[-400:]
    executed = set(re.findall(r"^executed (\S+)$", run.stderr, re.M))
    assert {"ncl3d.netlist", "ncl3d.pipeline", "ncl3d.model"} <= executed
    assert executed & {"ncl3d.ppa", "ncl3d.sim", "ncl3d.checks"} == set()


def test_check_runs_no_model_simulator_or_synthesis_module(tmp_path):
    (tmp_path / "mult3.ncl").write_text(serialize_netlist(build_array_multiplier(3)))
    code, out, loaded, n_forks = run_probed(tmp_path, "check", "mult3.ncl")
    assert code == 0 and out.splitlines()[-1] == "result: PASS"
    assert {"ncl3d.cli", "ncl3d.gates", "ncl3d.netlist", "ncl3d.checks"} <= loaded
    assert command_modules(loaded) == {"ncl3d.cmd_check"}
    assert loaded & (HEAVY | {"ncl3d.forkmap", "ncl3d.timesplit"}) == set()
    assert n_forks == 0
    # only --out loads json
    assert "argparse" in loaded
    assert loaded & (SLOW_STDLIB | {"json"}) == set()


def test_simulate_runs_no_synthesis_module(tmp_path):
    (tmp_path / "mult2.ncl").write_text(serialize_netlist(build_array_multiplier(2)))
    (tmp_path / "v.txt").write_text("0\n5\n15\n")
    code, out, loaded, n_forks = run_probed(tmp_path, "simulate", "mult2.ncl", "v.txt",
                                            "--mode", "M3D")
    assert code == 0 and "words: 0 1 9" in out
    assert {"ncl3d.sim", "ncl3d.ppa", "ncl3d.model"} <= loaded
    assert command_modules(loaded) == {"ncl3d.cmd_simulate"}
    assert loaded & ({"ncl3d.synth", "ncl3d.boolnet", "ncl3d.refdata", "ncl3d.checks"}
                     | SLOW_STDLIB) == set()
    # far below sim.SPLIT_MIN: one process, and nothing of the split is loaded
    assert loaded & {"ncl3d.forkmap", "ncl3d.timesplit"} == set() and n_forks == 0


def test_a_long_simulate_forks_one_round(tmp_path):
    """Above sim.SPLIT_MIN the run splits into one segment per usable CPU:
    one fork per CPU but one, and none on a one-CPU host."""
    nl = build_array_multiplier(8)
    n = -(-sim.SPLIT_MIN // len(build_pipeline(nl).netlist.gates))
    pairs = [(k * 37 % 256, k * 101 % 256) for k in range(n)]
    (tmp_path / "mult8.ncl").write_text(serialize_netlist(nl))
    (tmp_path / "v.txt").write_text("".join(f"{a | b << 8}\n" for a, b in pairs))
    code, out, loaded, n_forks = run_probed(tmp_path, "simulate", "mult8.ncl", "v.txt")
    assert code == 0 and f"words: {' '.join(str(a * b) for a, b in pairs)}" in out
    assert {"ncl3d.forkmap", "ncl3d.timesplit"} <= loaded
    assert n_forks == min(n, usable_cpus()) - 1


def test_synth_runs_no_model_or_simulator_module(tmp_path):
    (tmp_path / "fa.bnl").write_bytes((PACKAGE / "data" / "fixtures" / "full_adder.bnl")
                                      .read_bytes())
    code, out, loaded, n_forks = run_probed(tmp_path, "synth", "fa.bnl")
    assert code == 0 and out.startswith("# ncl3d synth\n") and n_forks == 0
    assert command_modules(loaded) == {"ncl3d.cmd_synth"}
    assert loaded & HEAVY == {"ncl3d.synth", "ncl3d.boolnet"}
    assert loaded & (SLOW_STDLIB | {"ncl3d.checks"}) == set()


def gate_figures_loaded(tmp_path, *argv):
    """What a gate-figure command loads; it must run its own command
    module and no simulator, pipeline or synthesis module."""
    code, out, loaded, n_forks = run_probed(tmp_path, *argv)
    assert code == 0 and {"ncl3d.ppa", "ncl3d.model"} <= loaded and n_forks == 0
    assert command_modules(loaded) == {f"ncl3d.cmd_{argv[0].replace('-', '_')}"}
    assert loaded & ({"ncl3d.sim", "ncl3d.pipeline", "ncl3d.synth", "ncl3d.boolnet",
                      "ncl3d.refdata"} | SLOW_STDLIB) == set()
    return out, loaded


def test_gate_report_runs_no_simulator_or_pipeline(tmp_path):
    """gate-report prices gate types, not netlists: not even netlist runs."""
    out, loaded = gate_figures_loaded(tmp_path, "gate-report", "TH22", "--alpha", "0.7")
    assert "TH22" in out and "ncl3d.netlist" not in loaded


def test_sweep_gates_runs_no_simulator_or_pipeline(tmp_path):
    """sweep_alpha tells gate names from a netlist without importing netlist."""
    out, loaded = gate_figures_loaded(tmp_path, "sweep", "gates", "--alpha", "0.7")
    assert "target: study gates" in out and "ncl3d.netlist" not in loaded


@pytest.mark.parametrize("argv,jobs", [
    pytest.param(("multiplier-demo", "--width", "2", "--trials", "4"), 6, id="multiplier-demo"),
    pytest.param(("sweep", "multiplier", "--width", "2", "--alpha", "0.5:0.9:0.2"), 4,
                 id="sweep"),
])
def test_forked_evaluations_load_no_process_pool(tmp_path, argv, jobs):
    """The DI trials and the paired evaluations fork the warm process;
    a process pool would cost more start-up than they save.  They run as
    one round of jobs, and no job forks again.  Every ncl3d module runs
    once, in the parent before the fork, not again in a worker.  Neither
    command calibrates, so neither reads the reference table, and neither
    runs the checkers."""
    run = probe(tmp_path, *argv)
    assert run.returncode == 0, run.stderr[-400:]
    assert forks(run) == min(jobs, usable_cpus()) - 1
    imported = set(re.findall(r"^import time:.*\| +(\S+)$", run.stderr, re.M))
    assert "ncl3d.forkmap" in imported
    executed = Counter(re.findall(r"^executed (\S+)$", run.stderr, re.M))
    assert {"ncl3d.pipeline", "ncl3d.sim", "ncl3d.model", "ncl3d.ppa"} <= set(executed)
    assert command_modules(executed) == {f"ncl3d.cmd_{argv[0].replace('-', '_')}"}
    assert executed.keys() & {"ncl3d.refdata", "ncl3d.checks"} == set()
    assert [m for m, n in executed.items() if n != 1] == []
    assert {m for m in imported
            if m.split(".")[0] in ("multiprocessing", "concurrent")} == set()
    assert imported & SLOW_STDLIB == set()


# Per command, a successful run and an error exit (exit code 2) beside it,
# on the bundled fixtures.
ERROR_EXITS = {
    "check": (["check", "and2.ncl"], ["check", "missing.ncl"]),
    "gate-report": (["gate-report", "TH22"], ["gate-report", "NOPE"]),
    "simulate": (["simulate", "and2.ncl", "v.txt"], ["simulate", "and2.ncl", "v.txt",
                                                     "--alpha", "xyz"]),
}


@pytest.mark.parametrize("command", sorted(ERROR_EXITS))
def test_an_error_exit_runs_only_what_the_command_runs(tmp_path, command):
    """main tells a usage error by its class's module and name, so deciding
    on exit code 2 loads nothing the command itself did not."""
    (tmp_path / "and2.ncl").write_bytes((PACKAGE / "data" / "fixtures" / "and2.ncl")
                                        .read_bytes())
    (tmp_path / "v.txt").write_text("0\n1\n2\n3\n")
    good, bad = ERROR_EXITS[command]
    code, _, ran, _ = run_probed(tmp_path, *good)
    assert code == 0
    code, out, failed_ran, _ = run_probed(tmp_path, *bad)
    assert code == 2 and out == ""
    assert command_modules(failed_ran) == command_modules(ran)
    assert failed_ran - ran == set()


# A failing check, a report written by simulate and a usage error: argv and
# exit code, on the bundled fixtures.
EXIT_CASES = {
    "check-fails": (["check", "and2_relaxed.ncl", "--out", "r.json"], 1),
    "simulate-out": (["simulate", "and2.ncl", "v.txt", "--mode", "M3D", "--out", "r.json"], 0),
    "usage-error": (["simulate", "and2.ncl", "v.txt", "--alpha", "xyz"], 2),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_the_frozen_exit_keeps_every_output(tmp_path, monkeypatch, capsys, case):
    """A fresh `python -m ncl3d` exits through cli.entry, which freezes the
    heap once main has returned: it prints, writes and exits as main does
    in this process."""
    argv, want = EXIT_CASES[case]
    for name in ("and2.ncl", "and2_relaxed.ncl"):
        (tmp_path / name).write_bytes((PACKAGE / "data" / "fixtures" / name).read_bytes())
    (tmp_path / "v.txt").write_text("0\n1\n2\n3\n")
    report = tmp_path / "r.json"
    run = subprocess.run([sys.executable, "-m", "ncl3d", *argv], capture_output=True,
                         text=True, cwd=str(tmp_path), env=child_env())
    fresh = report.read_bytes() if "--out" in argv else None
    report.unlink(missing_ok=True)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == run.returncode == want
    assert capsys.readouterr() == (run.stdout, run.stderr)
    assert (report.read_bytes() if "--out" in argv else None) == fresh


def test_the_script_and_python_m_share_one_entry_point():
    """pyproject.toml's ncl3d script names the function __main__.py calls."""
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name: f"ncl3d.{node.module}:{a.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    called = [imported[n.func.id] for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    assert called == [scripts["project"]["scripts"]["ncl3d"]] == ["ncl3d.cli:entry"]


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The files the harness's workloads read, small where size is free."""
    tmp = tmp_path_factory.mktemp("bench")
    (tmp / "mult3.ncl").write_text(serialize_netlist(build_array_multiplier(3)))
    (tmp / "mult8.ncl").write_text(serialize_netlist(build_array_multiplier(8)))
    (tmp / "v8.txt").write_text("0\n65535\n")
    return tmp


@pytest.mark.parametrize("workload", ["check-mult3", "demo-mult4", "sim-mult8"])
def test_bench_setup_child_runs(bench_inputs, workload):
    run = subprocess.run([sys.executable, str(CHILD), "setup", workload], capture_output=True,
                         text=True, cwd=str(bench_inputs), env=child_env())
    assert run.returncode == 0, run.stderr[-400:]
    assert Path(run.stdout.strip()).resolve() == Path(ncl3d.__file__).resolve()


def test_bench_trace_child_records_spans(bench_inputs):
    run = subprocess.run([sys.executable, str(CHILD), "trace", "spans.json", "check",
                          "mult3.ncl"], capture_output=True, text=True,
                         cwd=str(bench_inputs), env=child_env())
    assert run.returncode == 0, run.stderr[-400:]
    assert run.stdout.splitlines()[-1] == "result: PASS"
    spans = json.loads((bench_inputs / "spans.json").read_text())["spans"]
    assert {"cli.main", "netlist.load_netlist", "netlist.settle"} <= {s["name"] for s in spans}
    # checks is a lazy stub when the tracer installs, so the checkers' own
    # settle calls are wrapped too
    assert [spans[s["parent"]]["name"] for s in spans if s["name"] == "netlist.settle"] == (
        ["netlist.check_input_completeness"] * 3 + ["netlist.check_observability"] * 2)


def traced_functions():
    """child.py's TRACED list of (module, function), read without running it."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])


def test_every_traced_function_resolves_in_the_module_the_harness_names():
    """The traced mode looks each function up by module, so settle and the
    checkers, which live in checks, must still be found on netlist."""
    traced = traced_functions()
    assert ("netlist", "settle") in traced
    assert [f"{m}.{f}" for m, f in traced
            if not callable(getattr(importlib.import_module(f"ncl3d.{m}"), f, None))] == []


def test_netlist_forwards_only_settle_and_the_checkers():
    for name in ("settle", "check_input_completeness", "check_observability"):
        assert getattr(ncl3d.netlist, name) is getattr(ncl3d.checks, name)
    for name in ("LANE_BUDGET", "ICViolation", "_settle_rows", "simulate", "no_such_name"):
        with pytest.raises(AttributeError, match=f"'ncl3d.netlist' has no attribute '{name}'"):
            getattr(ncl3d.netlist, name)
