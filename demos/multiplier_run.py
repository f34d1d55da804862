"""Drive the width-4 dual-rail multiplier through its handshaking pipeline.

Run with `python3 demos/multiplier_run.py`.  Deterministic.
"""
import random

from ncl3d import (
    DelayAssignment,
    build_array_multiplier,
    build_pipeline,
    check_delay_insensitivity,
    count_transistors,
    measure,
    operand_bits,
    simulate,
)

WIDTH = 4

cl = build_array_multiplier(WIDTH)
tc = count_transistors(cl)
print(f"width-{WIDTH} multiplier: {len(cl.gates)} gates, "
      f"{tc.total} transistors ({tc.pmos} pmos / {tc.nmos} nmos)")

system = build_pipeline(cl)
pairs = [(3, 5), (15, 15), (0, 7), (12, 11), (9, 9), (1, 14)]
vectors = [operand_bits(WIDTH, x, y) for x, y in pairs]

print()
print("unit delays, one DATA/NULL wavefront per operand pair")
trace = simulate(system, vectors)
print(f"{'x':>3} {'y':>3} {'x*y':>4} {'got':>4}  "
      f"{'applied':>7} {'data':>5} {'null':>5} {'skew':>4}")
for (x, y), wave in zip(pairs, trace.waves):
    print(f"{x:>3} {y:>3} {x * y:>4} {wave.value:>4}  "
          f"{wave.t_applied:>7} {wave.t_data_complete:>5} "
          f"{wave.t_null_complete:>5} {wave.output_skew:>4}")

rep = measure(trace)
print()
print(f"worst forward latency : {rep.worst_forward_latency}")
print(f"average cycle time    : {rep.avg_cycle_time:.1f}")
print(f"worst output skew     : {rep.worst_output_skew}")
print(f"total transitions     : {rep.total_transitions}")

print()
print("same words under one scrambled delay assignment")
scrambled = DelayAssignment.uniform_random([g.name for g in system.netlist.gates],
                                           random.Random(42))
redo = simulate(system, vectors, scrambled)
print("words:", " ".join(str(v) for v in redo.words()),
      "(unchanged)" if redo.words() == trace.words() else "(DIFFER!)")

print()
print("delay-insensitivity spot check, 10 random assignments")
rep = check_delay_insensitivity(system, vectors, n_trials=10, seed=1)
print("passed:", rep.passed, "| trials:", rep.n_trials,
      "| words:", " ".join(str(v) for v in rep.words))
