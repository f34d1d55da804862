"""Compare flat and folded implementations of the studied gates and the
width-4 multiplier under the bundled calibration.

Run with `python3 demos/fold_comparison.py`.  Deterministic.
"""
from ncl3d import (
    STUDY_GATES,
    build_array_multiplier,
    default_calibration,
    default_tech,
    evaluate_circuit,
    gate_ppa,
    operand_bits,
    sweep_alpha,
)
from ncl3d.ppa import improvement_pct

ALPHA = 0.7
tech = default_tech()
cal = default_calibration()
print(f"tech digest        : {tech.digest()}")
print(f"calibration digest : {cal.digest()}")
print(f"fold scaling alpha : {ALPHA}")

print()
print(f"{'gate':<9} {'mode':<4} {'t_d ps':>8} {'t_s ps':>8} "
      f"{'power uW':>9} {'area um2':>9}")
for name in STUDY_GATES:
    for mode in ("2D", "M3D"):
        r = gate_ppa(name, tech, cal, mode=mode, alpha=ALPHA)
        print(f"{name:<9} {mode:<4} {r.t_d:>8.1f} {r.t_s:>8.1f} "
              f"{r.power:>9.2f} {r.area:>9.4f}")

print()
print("average improvement from folding, by alpha")
print(f"{'alpha':>5} {'t_d %':>6} {'t_s %':>6} {'power %':>8} {'area %':>7}")
for row in sweep_alpha(STUDY_GATES, (0.8, 0.7, 0.6), tech, cal):
    avg = row.improvements
    print(f"{row.alpha:>5.1f} {avg['t_d']:>6.1f} {avg['t_s']:>6.1f} "
          f"{avg['power']:>8.1f} {avg['area']:>7.1f}")
print("deeper folds shorten wires; area depends only on the fold itself")

print()
print("width-4 multiplier, all 256 operand pairs")
cl = build_array_multiplier(4)
vectors = [operand_bits(4, x, y) for x in range(16) for y in range(16)]
flat = evaluate_circuit(cl, vectors, tech, cal, mode="2D").ppa
fold = evaluate_circuit(cl, vectors, tech, cal, mode="M3D", alpha=ALPHA).ppa
print(f"{'mode':<4} {'t_d ps':>8} {'t_s ps':>8} {'power uW':>9} {'area um2':>9}")
for r in (flat, fold):
    print(f"{r.mode:<4} {r.t_d:>8.0f} {r.t_s:>8.0f} "
          f"{r.power:>9.2f} {r.area:>9.4f}")
pct = improvement_pct(flat, fold)
for m in ("area", "t_d", "t_s", "power"):
    print(f"{m:<5} improvement: {pct[m]:.1f}%")
