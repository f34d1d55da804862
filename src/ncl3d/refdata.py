"""Bundled reference measurements for the six studied gates.

The package ships one reference table: per-gate 2D and M3D delay, skew,
power, and area, the claimed percentage improvements, their averages,
and circuit-level figures for the width-4 multiplier.  Calibration fits
the analytical model against the 2D rows and the improvement columns, so
the table loads those and leaves the file's M3D rows unread.
"""
import json
from importlib import resources
from typing import Dict, Mapping, NamedTuple

from .gates import STUDY_GATES


class GateRow(NamedTuple):
    t_d: float        # ps
    t_s: float        # ps
    power: float      # uW
    area: float       # um^2


class ReferenceTable(NamedTuple):
    alpha: float
    gates_2d: Mapping[str, GateRow]
    improvements_pct: Mapping[str, Mapping[str, float]]
    average_improvement_pct: Mapping[str, float]
    circuit: Mapping[str, object]

    def gate_names(self):
        return tuple(n for n in STUDY_GATES if n in self.gates_2d)


def _rows(block: Dict[str, Dict[str, float]], key: str) -> Dict[str, GateRow]:
    return {name: GateRow(**entry[key]) for name, entry in block.items()}


def load_reference() -> ReferenceTable:
    raw = json.loads(
        resources.files("ncl3d").joinpath("data/reference_gates.json").read_text("utf-8")
    )
    if raw.get("version") != 1:
        raise ValueError("unsupported reference table version")
    gates = raw["gates"]
    return ReferenceTable(
        alpha=float(raw["alpha"]),
        gates_2d=_rows(gates, "d2"),
        improvements_pct={n: dict(e["improvement_pct"]) for n, e in gates.items()},
        average_improvement_pct=dict(raw["average_improvement_pct"]),
        circuit=dict(raw["circuit"]),
    )
