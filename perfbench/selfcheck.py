"""Self-check of the benchmark's oracles.

    python3 perfbench/selfcheck.py [--seed N]

Runs each workload's command once, confirms its oracle accepts the real
output, then feeds the oracle deliberately corrupted copies (one wrong
product, a failed verdict, a wrong exit code, a moved figure) and
confirms each is rejected.  Also confirms that a run whose stdout differs
from the other runs of its seed counts as failed.  Exits 0 when every
corruption is caught.
"""
import argparse
import shutil
import sys
import tempfile
from pathlib import Path

import run


def corruptions(workload: str, out: str):
    """(label, exit code, stdout) variants that must all be rejected."""
    def swap(old, new):
        assert old in out, f"{workload}: {old!r} not in output"
        return out.replace(old, new, 1)

    yield "exit code 1", 1, out
    if workload == "check-mult3":
        yield "observability violation", 0, swap(
            "observability: clean", "observability: 1 violation(s)")
        yield "failed verdict", 0, swap("result: PASS", "result: FAIL")
    elif workload == "demo-mult4":
        yield "one wrong product", 0, swap("256/256 products", "255/256 products")
        yield "failed verdict", 0, swap("result: PASS", "result: FAIL")
        line = next(ln for ln in out.splitlines() if ln.startswith("t_d "))
        yield "moved delay figure", 0, swap(line, line[:-4] + "27.1")
    elif workload == "sim-mult8":
        words = next(ln for ln in out.splitlines() if ln.startswith("words: "))
        first = words.split()[1]
        yield "one wrong product", 0, swap(words, words.replace(
            f" {first} ", f" {int(first) + 1} ", 1))
        yield "lost transitions", 0, swap("transitions: total=192000",
                                          "transitions: total=191999")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    missed = 0
    for workload in ("check-mult3", "demo-mult4", "sim-mult8"):
        tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
        try:
            argv, oracle = run.prepare(workload, args.seed, tmp)
            runs = run.Runs(workload, argv, oracle, tmp)
            runs.untraced()
            good = runs.out_path.read_text(encoding="utf-8")
            verdict = oracle(0, good)
            print(f"{workload}: real output: {verdict or 'accepted'}")
            missed += verdict is not None
            for label, rc, bad in corruptions(workload, good):
                reason = oracle(rc, bad)
                print(f"{workload}: {label}: {reason or 'NOT CAUGHT'}")
                missed += reason is None
            runs.digests += [runs.digests[0], "0" * 64]
            caught = runs.failed() == 1
            print(f"{workload}: stdout differing from its seed: "
                  f"{'counted as failed' if caught else 'NOT CAUGHT'}")
            missed += not caught
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck:", "PASS" if not missed else f"FAIL ({missed} not caught)")
    return 0 if not missed else 1


if __name__ == "__main__":
    raise SystemExit(main())
