"""Command-line driver.

Subcommands cover the whole flow: inspect gate figures, check netlists,
simulate pipelines, expand Boolean designs to dual-rail, run the
multiplier demonstration, and sweep the fold ratio.  Every command is
deterministic: fixed inputs and seed give byte-identical stdout and
report files, and model-based reports open with the digests of the
technology and calibration actually used.

This module holds the parser, the dispatch and the helpers the commands
share, and imports nothing from the package at top level.  Each command's
code sits in a module of its own (``cmd_check.py``, ``cmd_simulate.py``,
...), which ``main`` imports only once it has parsed that command, so a
command compiles and runs none of the others.  Its ``run(args)`` returns
the report: the lines to print, the dict ``--out`` writes as JSON (None
for ``synth``, whose ``--out`` is the netlist) and the verdict.  ``main``
alone heads the lines with ``# ncl3d <command>``, writes ``--out`` before
printing anything, prints and turns the verdict into the exit code.

Exit codes: 0 success, 1 a checker or verification found a violation,
2 bad usage, unreadable input, or malformed file.
"""
import argparse
import gc
import sys
from importlib import import_module
from pathlib import Path
from typing import List, NoReturn, Optional, Sequence

# The checkers sweep every (vector, port subset) pair exhaustively up to
# this many dual-rail inputs; beyond it they sample unless forced.
EXHAUSTIVE_PORT_LIMIT = 8

# A fold ratio range names at most this many values.  Each one is priced (a
# multiplier sweep simulates each), and a step of 1e-9 would build its
# whole list before anything else runs.
MAX_ALPHAS = 10_000

# A DI check draws every trial's delays before the first trial runs (about
# 26 KB a trial at width 8), so a huge count would run out of memory.
MAX_TRIALS = 10_000


class CliError(ValueError):
    pass


# Loaders that perfbench/child.py reads as attributes of this module.  Each
# command imports what it needs itself, so these resolve on first use.
_PACKAGE_LOADERS = ("load_netlist", "load_vectors", "build_pipeline",
                    "build_array_multiplier", "default_tech", "default_calibration")


def __getattr__(name: str):
    if name not in _PACKAGE_LOADERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


# ------------------------------------------------------------------ helpers

def _parse_alphas(spec: str) -> List[float]:
    """Fold ratios as comma values ("0.7,0.8") or a range ("0.6:0.8:0.1")."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = [float(tok) for tok in spec.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError
            span = (stop - start) / step + 1e-9
            if not span < MAX_ALPHAS:   # an inf or nan span fails too
                raise ValueError
            values = [round(start + k * step, 12) for k in range(int(span) + 1)]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad fold ratio spec {spec!r}; use values like "
                       f"'0.7', '0.6,0.8', or a range '0.6:0.8:0.1'") from None
    if not values:
        raise CliError("fold ratio spec names no values")
    return values


def _trial_count(text: str) -> int:
    """argparse type for ``--trials``: an int in [1, MAX_TRIALS]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_TRIALS:,}, got {value}")
    return value


def _single_alpha(spec: str) -> float:
    values = _parse_alphas(spec)
    if len(values) != 1:
        raise CliError(f"this command takes one fold ratio, got {values}")
    return values[0]


def _model(args) -> tuple:
    """The technology and calibration of a model command, the digest lines
    that open its text and the digest fields of its JSON report."""
    from .ppa import default_calibration, default_tech, load_calibration, load_tech
    tech = load_tech(args.tech) if args.tech else default_tech()
    cal = load_calibration(args.cal) if args.cal else default_calibration()
    tech_sha, cal_sha = tech.digest(), cal.digest()
    return (tech, cal, [f"# tech {tech_sha}", f"# calibration {cal_sha}"],
            {"tech_digest": tech_sha, "calibration_digest": cal_sha})


def _mult_vectors(width: int, exhaustive: bool, seed: int) -> tuple:
    """Operand vectors and the products they must produce."""
    import random
    from .synth import operand_bits
    if exhaustive:
        pairs = [(x, y) for x in range(1 << width) for y in range(1 << width)]
        tag = f"exhaustive {len(pairs)}"
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(1 << width), rng.randrange(1 << width))
                 for _ in range(64)]
        tag = f"sampled 64 (seed {seed})"
    vectors = [operand_bits(width, x, y) for x, y in pairs]
    expected = tuple(x * y for x, y in pairs)
    return vectors, expected, tag


# --------------------------------------------------------------- entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncl3d",
        description="NCL gate/circuit toolkit: dual-rail synthesis, "
                    "handshake simulation, and 2D vs folded-3D estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def model_opts(sp, alpha="0.7"):
        sp.add_argument("--tech", metavar="FILE",
                        help="technology JSON (bundled defaults otherwise)")
        sp.add_argument("--cal", metavar="FILE",
                        help="calibration JSON (bundled fit otherwise)")
        sp.add_argument("--alpha", default=alpha, metavar="SPEC",
                        help="fold ratio values '0.7', '0.6,0.8', or range "
                             "'0.6:0.8:0.1' (default %(default)s)")

    def out_opt(sp):
        sp.add_argument("--out", metavar="FILE",
                        help="also write a JSON report here")

    sp = sub.add_parser("gate-report",
                        help="per-gate 2D and folded figures with improvements")
    sp.add_argument("gates", nargs="*", default=["all"],
                    help="gate type names, or 'all' for the studied six "
                         "(default: all)")
    model_opts(sp)
    out_opt(sp)

    sp = sub.add_parser("check",
                        help="structural, input-completeness, and "
                             "observability checks on a dual-rail netlist")
    sp.add_argument("netlist")
    sp.add_argument("--exhaustive", action="store_true",
                    help="force the exhaustive sweep past "
                         f"{EXHAUSTIVE_PORT_LIMIT} input ports")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the sampled sweep (default %(default)s)")
    out_opt(sp)

    sp = sub.add_parser("simulate",
                        help="drive a dual-rail netlist through the "
                             "four-phase pipeline")
    sp.add_argument("netlist")
    sp.add_argument("vectors", help="one input word per line")
    sp.add_argument("--mode", choices=("2D", "M3D"),
                    help="use modeled gate delays (unit delays otherwise)")
    model_opts(sp)
    out_opt(sp)

    sp = sub.add_parser("synth",
                        help="expand a Boolean netlist to dual-rail threshold gates")
    sp.add_argument("netlist", help="Boolean netlist file")
    sp.add_argument("--out", metavar="FILE",
                    help="write the dual-rail netlist here instead of stdout")

    sp = sub.add_parser("multiplier-demo",
                        help="build, verify, and price the array multiplier")
    sp.add_argument("--width", type=int, default=4, help="operand bits [2, 8]")
    sp.add_argument("--exhaustive", action="store_true",
                    help="force exhaustive verification past width 4")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_trial_count, default=10,
                    help="random delay assignments to try (default %(default)s)")
    model_opts(sp)
    out_opt(sp)

    sp = sub.add_parser("sweep", help="fold-ratio sweep of the improvements")
    sp.add_argument("target", nargs="?", choices=("gates", "multiplier"),
                    default="gates")
    sp.add_argument("--width", type=int, default=4,
                    help="multiplier operand bits (default %(default)s)")
    sp.add_argument("--seed", type=int, default=0)
    model_opts(sp, alpha="0.6:0.8:0.1")
    out_opt(sp)

    return parser


def _command(name: str):
    """The ``run`` of command ``name``; only its module is imported."""
    return import_module(f".cmd_{name.replace('-', '_')}", __package__).run


# The exceptions of other ncl3d modules that main reports with exit code 2,
# by module and class name; every ncl3d error subclasses one of these or
# CliError (FormatError and SynthError are NetlistErrors).  A name check
# imports nothing, so an error exit runs only the modules the command ran.
_USAGE_ERRORS = {("ncl3d.gates", "GateError"), ("ncl3d.netlist", "NetlistError"),
                 ("ncl3d.ppa", "PpaError"), ("ncl3d.sim", "SimulationError")}


def _usage_error(err: Exception) -> bool:
    return isinstance(err, (CliError, OSError, UnicodeDecodeError)) or any(
        (c.__module__, c.__name__) in _USAGE_ERRORS for c in type(err).__mro__)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines, doc, passed = _command(args.command)(args)
        lines.insert(0, f"# ncl3d {args.command}")
        if args.out and doc is not None:   # written before anything is printed
            import json
            doc["command"] = args.command
            Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
            lines.append(f"wrote {args.out}")
        print("\n".join(lines))
        return 0 if passed else 1
    except Exception as err:
        if not _usage_error(err):
            raise
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> NoReturn:
    """Run ``main`` on the process's arguments and exit with its code.

    ``python -m ncl3d`` and the ``ncl3d`` script both start here.  Once the
    command is done, ``gc.freeze()`` moves every live object into a
    generation that no collection visits, so the interpreter's collections
    at exit skip the modules, classes and functions the command loaded.
    ``main`` does not freeze: callers may run it many times in one process.
    """
    code = main()
    gc.freeze()
    raise SystemExit(code)
