"""Walk through threshold-gate behaviour: set, hold, and reset.

Run with `python3 demos/gate_walkthrough.py`.  No arguments, no state.
"""
import itertools

from ncl3d import DEFAULT_CATALOG, STUDY_GATES, eval_set, next_output
from ncl3d.gates import transistor_counts


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


banner("hysteresis on TH23 (2 of 3)")
spec = DEFAULT_CATALOG["TH23"]
state = 0
print("inputs -> output   note")
for inputs, note in [
    ((0, 0, 0), "all low, output stays low"),
    ((1, 0, 0), "below threshold, holds low"),
    ((1, 1, 0), "threshold met, output asserts"),
    ((1, 0, 0), "input withdrawn, output HOLDS high"),
    ((0, 0, 0), "all low again, output resets"),
]:
    state = next_output(spec, inputs, state)
    print(f"{inputs} -> {state}        {note}")

banner("set functions of the studied gates")
for name in STUDY_GATES:
    spec = DEFAULT_CATALOG[name]
    print(f"{name:<9} = {spec.describe()}")

banner("one truth table, TH54w322 (weights 3,2,2,1, threshold 5)")
spec = DEFAULT_CATALOG["TH54w322"]
print("a b c d | set")
for inputs in itertools.product((0, 1), repeat=4):
    print(" ".join(str(v) for v in inputs), "|", eval_set(spec, inputs))

banner("catalog transistor counts")
print(f"{'gate':<9} {'pmos':>4} {'nmos':>4} {'total':>5}")
for name, spec in DEFAULT_CATALOG.items():
    p, n = transistor_counts(spec)
    print(f"{name:<9} {p:>4} {n:>4} {p + n:>5}")
