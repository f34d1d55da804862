"""Child processes of the benchmark harness (see run.py).

    python perfbench/child.py setup WORKLOAD
        Import ncl3d.cli, run only the workload's public loaders on the
        inputs in the current directory, print ncl3d.__file__ and exit.
        Its wall time, seen from the parent, is the workload's set-up time.

    python perfbench/child.py reference
        Run a fixed pure-Python kernel that does not touch ncl3d.  Its wall
        time measures how fast the host runs Python right now.

    python perfbench/child.py trace SPANS_JSON ARG...
        Import ncl3d.cli, wrap the public entry points of each layer in
        every ncl3d.* namespace that holds them, run ncl3d.cli.main(ARG...)
        in this process and write the recorded spans to SPANS_JSON when
        the command ends.  Stdout and the exit code are the command's own.

The setup and trace modes need PYTHONPATH to name the src directory of
the checkout under test.
"""
import functools
import json
import sys
import time

# Layer entry points wrapped in the traced run, as (module, function).
# Every ncl3d.* module that binds the same function object gets the
# wrapper, so calls through `from .x import f` aliases are seen as well.
TRACED = (
    ("cli", "main"),
    ("netlist", "load_netlist"),
    ("netlist", "settle"),
    ("netlist", "check_input_completeness"),
    ("netlist", "check_observability"),
    ("sim", "simulate"),
    ("sim", "measure"),
    ("sim", "check_delay_insensitivity"),
    ("pipeline", "build_pipeline"),
    ("synth", "build_array_multiplier"),
    ("ppa", "circuit_delay_assignment"),
    ("ppa", "circuit_ppa"),
    ("ppa", "evaluate_circuit"),
)


def _work(name, args, kwargs, result):
    """Units of work a span did, read from its arguments and result."""
    if name == "netlist.settle":
        frozen = args[3] if len(args) > 3 else kwargs.get("frozen")
        return {"frozen": 1 if frozen else 0}
    if name == "netlist.check_input_completeness":
        n = len(args[0].inputs)
        trials = args[2] if len(args) > 2 else kwargs.get("trials")
        # exhaustive sweep: every DATA vector times every strict nonempty subset
        cases = trials if trials is not None else (1 << n) * ((1 << n) - 2)
        return {"cases": cases if n >= 2 else 0}
    if name == "netlist.check_observability":
        return {"gates": len(args[0].gates)}
    if name == "sim.simulate":
        return {"transitions": len(result.records)}
    if name == "sim.check_delay_insensitivity":
        return {"trials": result.n_trials}
    return None


class Tracer:
    """In-memory span recorder: one flat list, parents by index."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            work = _work(name, args, kwargs, result)
            if work:
                span["work"] = work
            return result
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "ncl3d" or n.startswith("ncl3d."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"ncl3d.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)


def _setup(workload: str) -> int:
    import ncl3d.cli as cli
    if workload == "check-mult3":
        cli.load_netlist("mult3.ncl")
    elif workload == "demo-mult4":
        cli.default_tech()
        cli.default_calibration()
        cli.build_pipeline(cli.build_array_multiplier(4))
    elif workload == "sim-mult8":
        cli.default_tech()
        cli.default_calibration()
        cli.build_pipeline(cli.load_netlist("mult8.ncl"))
        cli.load_vectors("v8.txt")
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    import ncl3d
    print(ncl3d.__file__)
    return 0


def _reference() -> int:
    """A fixed pure-Python kernel, independent of ncl3d, timing the host."""
    import random
    rng = random.Random(1)
    vals = {f"n{i}": rng.randint(0, 1) for i in range(400)}
    rows = [([f"n{rng.randrange(400)}" for _ in range(3)], f"n{rng.randrange(400)}")
            for _ in range(300)]
    prods = ((0, 1), (1, 2), (0, 2))
    for _ in range(600):
        for ins, out in rows:
            iv = [vals[p] for p in ins]
            if any(all(iv[i] for i in p) for p in prods):
                vals[out] = 1
            elif not any(iv):
                vals[out] = 0
    return 0


def _trace(spans_path: str, argv) -> int:
    t0 = time.perf_counter()
    import ncl3d
    import ncl3d.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        rc = ncl3d.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"ncl3d_file": ncl3d.__file__, "import_s": import_s,
                       "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "setup":
        raise SystemExit(_setup(sys.argv[2]))
    if sys.argv[1:] == ["reference"]:
        raise SystemExit(_reference())
    if len(sys.argv) >= 3 and sys.argv[1] == "trace":
        raise SystemExit(_trace(sys.argv[2], sys.argv[3:]))
    raise SystemExit(__doc__)
