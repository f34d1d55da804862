"""ncl3d benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the harness measures the code under
``src/`` of the checkout that holds it.  It writes every input from the
seed into a scratch directory under ``.perfbench/``, then drives the
workload's ``python -m ncl3d ...`` command in fresh processes, one at a
time, from a single closed-loop client (the next run starts when the
previous one has exited), for S seconds.

``--trace 0`` reports the end-to-end metrics: median wall time of the
command, median set-up time (a fresh process that imports ``ncl3d.cli``
and runs only the workload's loaders) and median peak RSS.  Both times
are scaled by reference kernel runs just before and after them, to cancel
the drift in host speed (see REF_NOMINAL_S).  ``--trace 1``
alternates untraced runs with traced runs (child.py), in which the public
entry point of every layer is wrapped from outside, and reports per-layer
metrics derived from the recorded spans.

Every run's output is checked by an oracle independent of the program,
and every run of one seed must print byte-identical stdout; a run that
fails either check counts in ``failed``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller result file, stamped with the machine, the interpreter, the code
and input digests, is written to ``.perfbench/results/``.

Workloads (see README.md for what was left out and why):

check-mult3  ``ncl3d check`` on the width-3 multiplier, gate lines in
             seeded order.  Isolates ``netlist.settle``; no simulation.
demo-mult4   ``ncl3d multiplier-demo --width 4 --trials 40 --seed N``.
             Many short ``sim.simulate`` calls (DI trials) plus the PPA
             rollup.
sim-mult8    ``ncl3d simulate`` of the width-8 multiplier on 256 seeded
             operand pairs with M3D delays.  One long ``sim.simulate``.
"""
import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench"

MIN_SAMPLES = 3          # untraced command runs per --trace 0 run, at least
CHILD_TIMEOUT_S = 40     # a command that runs longer is killed and counts as failed
SIM_PAIRS = 256          # operand pairs fed to the width-8 simulation
# An NCL dual-rail wavefront switches each rail pair exactly once on the
# way to DATA and once on the way back to NULL, so the transition count
# per wave of the pipelined width-8 multiplier does not depend on data.
MULT8_TRANSITIONS_PER_WAVE = 750
# Largest gap, in percentage points, between the 2D->M3D improvements the
# width-4 demo prints and the reference circuit (t_d 27.0 vs 30.8).  The
# delay figure is not a calibration anchor, so this is held-out accuracy;
# a change that only speeds the program up must leave it as it is.
DEMO_REF_ERR_PTS = 3.8
# Host speed on a shared machine drifts by tens of percent within minutes,
# more than any bound worth having.  So the timed runs are bracketed by a
# fixed pure-Python kernel (child.py reference), and the reported times are
# scaled to a nominal host on which that kernel takes REF_NOMINAL_S:
# t * REF_NOMINAL_S / mean of the kernel times just before and just after.
# Raw times stay in the result file.
REF_NOMINAL_S = 0.7


# ----------------------------------------------------------------- inputs

def _write(tmp: Path, name: str, text: str) -> None:
    (tmp / name).write_text(text, encoding="utf-8")


def _shuffled_gates(text: str, rng: random.Random) -> str:
    """The same netlist with its gate lines in a seeded order."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.split()[0] in ("input", "output", "ctlin", "ctlout")]
    body = [ln for ln in lines if ln not in head]
    rng.shuffle(body)
    return "\n".join(head + body) + "\n"


def prepare(workload: str, seed: int, tmp: Path):
    """Write the workload's inputs into ``tmp``; return (argv, oracle)."""
    from ncl3d import build_array_multiplier, serialize_netlist
    if workload == "check-mult3":
        rng = random.Random(f"{seed}:mult3")
        _write(tmp, "mult3.ncl",
               _shuffled_gates(serialize_netlist(build_array_multiplier(3)), rng))
        return ["check", "mult3.ncl"], oracle_check
    if workload == "demo-mult4":
        argv = ["multiplier-demo", "--width", "4", "--trials", "40", "--seed", str(seed)]
        return argv, oracle_demo
    if workload == "sim-mult8":
        rng = random.Random(f"{seed}:v8")
        pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(SIM_PAIRS)]
        _write(tmp, "mult8.ncl", serialize_netlist(build_array_multiplier(8)))
        # input ports are a0..a7 then b0..b7, LSB first
        _write(tmp, "v8.txt", "".join(f"{x | (y << 8)}\n" for x, y in pairs))
        products = [x * y for x, y in pairs]
        argv = ["simulate", "mult8.ncl", "v8.txt", "--mode", "M3D", "--alpha", "0.7"]
        return argv, lambda rc, out: oracle_sim(rc, out, products)
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- oracles
#
# Each takes the exit code and stdout of one run and returns None when the
# output is right, or a one-line reason when it is not.

def oracle_check(rc: int, out: str):
    if rc != 0:
        return f"exit code {rc}, want 0"
    lines = out.splitlines()
    for want in ("structural: clean", "input-completeness: clean",
                 "observability: clean", "result: PASS"):
        if want not in lines:
            return f"missing line {want!r}"
    return None


def ref_err_pts(out: str) -> float:
    """Largest gap between printed and reference circuit improvements."""
    ref = json.loads((SRC / "ncl3d" / "data" / "reference_gates.json")
                     .read_text(encoding="utf-8"))["circuit"]["improvement_pct"]
    printed = {}
    for line in out.splitlines():
        cells = line.split()
        if len(cells) == 4 and cells[0] in ref:
            printed[cells[0]] = float(cells[3])
    if set(printed) != set(ref):
        raise ValueError(f"improvement table lists {sorted(printed)}, want {sorted(ref)}")
    return max(abs(printed[m] - ref[m]) for m in ref)


def oracle_demo(rc: int, out: str):
    if rc != 0:
        return f"exit code {rc}, want 0"
    if "256/256 products correct" not in out:
        return "products not all correct"
    if "result: PASS" not in out.splitlines():
        return "missing line 'result: PASS'"
    try:
        gap = ref_err_pts(out)
    except ValueError as err:
        return str(err)
    if round(gap, 1) != DEMO_REF_ERR_PTS:
        return f"reference gap {gap:.2f} pts, want {DEMO_REF_ERR_PTS}"
    return None


def oracle_sim(rc: int, out: str, products):
    if rc != 0:
        return f"exit code {rc}, want 0"
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(": ")
        fields[key] = rest
    words = fields.get("words", "").split()
    if words != [str(p) for p in products]:
        bad = next((k for k, (w, p) in enumerate(zip(words, products)) if w != str(p)),
                   min(len(words), len(products)))
        return f"{len(words)} words, first wrong at vector {bad}"
    want = f"total={MULT8_TRANSITIONS_PER_WAVE * len(products)}"
    if not fields.get("transitions", "").startswith(want + " "):
        return f"transitions {fields.get('transitions')!r}, want {want}"
    return None


# ---------------------------------------------------------------- children

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd: Path, stdout_path: Path):
    """Run one child to completion; return (exit code, wall s, max RSS MB).

    The caller waits for it here, so no two children ever run at once.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


class Runs:
    """Closed-loop client: runs the workload command and checks each result."""

    def __init__(self, workload: str, argv, oracle, tmp: Path):
        self.workload = workload
        self.argv = argv
        self.oracle = oracle
        self.tmp = tmp
        self.out_path = tmp / "stdout.txt"
        self.digests = []        # stdout digest per run
        self.failures = []       # (run index, reason)
        self.samples = defaultdict(list)

    def _check(self, rc: int) -> None:
        out = self.out_path.read_text(encoding="utf-8", errors="replace")
        reason = self.oracle(rc, out)
        if reason:
            self.failures.append((len(self.digests), reason))
        self.digests.append(hashlib.sha256(out.encode()).hexdigest())

    def untraced(self) -> float:
        cmd = [sys.executable, "-m", "ncl3d"] + self.argv
        rc, wall, rss = run_child(cmd, self.tmp, self.out_path)
        self._check(rc)
        self.samples["wall_s"].append(wall)
        self.samples["peak_rss_mb"].append(rss)
        return wall

    def reference(self) -> float:
        rc, wall, _ = run_child([sys.executable, str(CHILD), "reference"], self.tmp,
                                self.out_path)
        if rc != 0:
            raise SystemExit(f"reference kernel failed (exit {rc})")
        self.samples["ref_s"].append(wall)
        return wall

    def setup(self) -> float:
        cmd = [sys.executable, str(CHILD), "setup", self.workload]
        rc, wall, _ = run_child(cmd, self.tmp, self.out_path)
        where = self.out_path.read_text(encoding="utf-8").strip()
        if rc != 0 or not under_src(where):
            raise SystemExit(f"set-up probe failed (exit {rc}); ncl3d at {where!r}, "
                             f"want it under {SRC}")
        self.samples["setup_s"].append(wall)
        return wall

    def traced(self, spans_path: Path) -> tuple:
        cmd = [sys.executable, str(CHILD), "trace", str(spans_path)] + self.argv
        spans_path.unlink(missing_ok=True)
        rc, wall, _ = run_child(cmd, self.tmp, self.out_path)
        self._check(rc)
        self.samples["traced_wall_s"].append(wall)
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        if not under_src(doc["ncl3d_file"]):
            raise SystemExit(f"traced run imported ncl3d from {doc['ncl3d_file']}")
        return doc, wall

    def scaled(self, key: str):
        """Samples of ``key`` scaled to the nominal host (see REF_NOMINAL_S).

        Kernel run k precedes sample k and run k + 1 follows it.
        """
        ref = self.samples["ref_s"]
        if len(ref) != len(self.samples[key]) + 1:
            raise ValueError(f"{len(ref)} kernel runs do not bracket "
                             f"{len(self.samples[key])} samples of {key}")
        return [t * REF_NOMINAL_S / ((ref[k] + ref[k + 1]) / 2)
                for k, t in enumerate(self.samples[key])]

    def failed(self) -> int:
        """Runs whose oracle failed or whose stdout differs from the majority."""
        common = Counter(self.digests).most_common(1)[0][0] if self.digests else None
        bad = {k for k, _ in self.failures}
        for k, d in enumerate(self.digests):
            if d != common and k not in bad:
                bad.add(k)
                self.failures.append((k, "stdout differs from the other runs of this seed"))
        return len(bad)


# -------------------------------------------------------------- per layer

def layer_metrics(doc: dict, overhead: float) -> dict:
    """Per-layer figures from one traced run's spans (self = span - children).

    ``overhead`` is the traced process's wall time over that of the untraced
    run just before it.
    """
    spans = doc["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    inner = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            inner[s["parent"]] += d
    by_name = defaultdict(list)
    for k, s in enumerate(spans):
        by_name[s["name"]].append(k)

    def total(name):
        return sum(dur[k] for k in by_name[name])

    def own(name):
        return sum(dur[k] - inner[k] for k in by_name[name])

    def work(name, key):
        return sum(spans[k].get("work", {}).get(key, 0) for k in by_name[name])

    def per(a, b):
        return a / b if b else 0.0

    command = total("cli.main")
    settles = len(by_name["netlist.settle"])
    sims = len(by_name["sim.simulate"])
    transitions = work("sim.simulate", "transitions")
    return {
        "netlist.settle_calls": (settles, "count"),
        "netlist.settle_us": (per(own("netlist.settle"), settles) * 1e6, "us"),
        "netlist.settle_share_pct": (per(own("netlist.settle"), command) * 100, "%"),
        "netlist.ic_cases_per_s": (per(work("netlist.check_input_completeness", "cases"),
                                       total("netlist.check_input_completeness")), "1/s"),
        "netlist.obs_settles_per_gate": (per(work("netlist.settle", "frozen"),
                                             work("netlist.check_observability", "gates")),
                                         "ratio"),
        "netlist.parse_s": (total("netlist.load_netlist"), "s"),
        "sim.calls": (sims, "count"),
        "sim.transitions": (transitions, "count"),
        "sim.transitions_per_s": (per(transitions, total("sim.simulate")), "1/s"),
        "sim.us_per_call": (per(total("sim.simulate"), sims) * 1e6, "us"),
        "sim.simulate_share_pct": (per(total("sim.simulate"), command) * 100, "%"),
        "sim.di_trials_per_s": (per(work("sim.check_delay_insensitivity", "trials"),
                                    total("sim.check_delay_insensitivity")), "1/s"),
        "sim.measure_s": (total("sim.measure"), "s"),
        "ppa.delay_assign_s": (total("ppa.circuit_delay_assignment"), "s"),
        "ppa.rollup_s": (total("ppa.circuit_ppa"), "s"),
        "ppa.evaluate_self_s": (own("ppa.evaluate_circuit"), "s"),
        "pipeline.build_s": (total("pipeline.build_pipeline"), "s"),
        "synth.build_s": (total("synth.build_array_multiplier"), "s"),
        "cli.import_s": (doc["import_s"], "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "trace.overhead_pct": ((overhead - 1.0) * 100, "%"),
    }


# ------------------------------------------------------------------ stamp

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def stamp(tmp: Path) -> dict:
    code = hashlib.sha256()
    for path in sorted((SRC / "ncl3d").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            code.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "git_sha": git_sha(),
        "code_sha256": code.hexdigest(),
        "inputs_sha256": {p.name: _sha256(p) for p in sorted(tmp.iterdir())
                          if p.suffix in (".ncl", ".txt") and p.name != "stdout.txt"},
    }


# ------------------------------------------------------------------- main

def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)   # unwinds run_child, which kills its child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("check-mult3", "demo-mult4", "sim-mult8"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ncl3d" / "__init__.py").is_file():
        print(f"error: no ncl3d package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ncl3d
    if not under_src(ncl3d.__file__):
        print(f"error: imported ncl3d from {ncl3d.__file__}, want {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        argv, oracle = prepare(args.workload, args.seed, tmp)
        runs = Runs(args.workload, argv, oracle, tmp)
        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "argv": argv, "stamp": stamp(tmp)}
        # warm-up, not timed: compiles the bytecode and checks the import path
        runs.setup()
        runs.samples["setup_s"].clear()
        deadline = time.perf_counter() + args.seconds
        if args.trace == 0:
            while True:
                step = runs.reference() + runs.setup() + runs.untraced()
                n = len(runs.samples["wall_s"])
                if n >= MIN_SAMPLES and time.perf_counter() + step > deadline:
                    break
            runs.reference()
            metrics = {
                "wall_s": median_metric(runs.scaled("wall_s"), "s"),
                "setup_s": median_metric(runs.scaled("setup_s"), "s"),
                "peak_rss_mb": median_metric(runs.samples["peak_rss_mb"], "MB"),
            }
        else:
            tables = []
            spans_path = results / f"{args.workload}-seed{args.seed}-spans.json"
            while True:
                untraced = runs.untraced()
                spans, traced = runs.traced(spans_path)
                tables.append(layer_metrics(spans, traced / untraced))
                if time.perf_counter() + untraced + traced > deadline:
                    break
            metrics = {name: median_metric([t[name][0] for t in tables], unit)
                       for name, (_, unit) in tables[0].items()}
        failed = runs.failed()
        attempted = len(runs.digests)
        doc.update(samples=runs.samples, failures=sorted(runs.failures), metrics=metrics,
                   attempted=attempted, failed=failed)
        out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for k, reason in sorted(runs.failures):
        print(f"run {k}: FAILED: {reason}")
    print(f"{args.workload} seed {args.seed}: {attempted} runs, {failed} failed; "
          + ", ".join(f"{k} n={len(v)}" for k, v in runs.samples.items() if v)
          + f"; result file {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
