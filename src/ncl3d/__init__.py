"""Gate-level toolkit for NULL Convention Logic circuits.

Covers the path from Boolean netlists to dual-rail threshold-gate circuits,
four-phase handshake simulation, and a parasitic-based power/performance/
area model that compares conventional 2D placement against transistor-level
monolithic 3D stacking.

Importing the package runs none of its modules.  Each submodule sits in
``sys.modules`` as a lazy stub that executes on its first attribute
access, and each public name below resolves from its submodule on first
use, so a command pays start-up time only for the modules it touches.
"""
import importlib.util
import sys

__version__ = "0.1.0"

# Submodule -> the public names it exports as ncl3d.<name>.
# model holds the model files and pipeline reads the vector files, so
# loading either compiles neither the pricing in ppa nor the simulator;
# settle and the checkers sit in checks, so loading a netlist compiles
# neither.
_EXPORTS = {
    "gates": ("DEFAULT_CATALOG", "STUDY_GATES", "GateError", "GateSpec", "eval_set",
              "next_output", "spec_from_name", "transistor_counts"),
    "netlist": ("FormatError", "Netlist", "NetlistError", "Port", "load_netlist",
                "parse_netlist", "serialize_netlist"),
    "checks": ("check_input_completeness", "check_observability", "settle"),
    "boolnet": ("BoolNetlist", "parse_boolean_netlist"),
    "synth": ("SynthError", "TransistorCount", "build_array_multiplier",
              "build_boolean_multiplier", "count_transistors", "expand_dual_rail",
              "operand_bits"),
    "pipeline": ("PipelineSystem", "build_pipeline", "load_vectors", "parse_vectors"),
    "sim": ("DeadlockError", "DelayAssignment", "DIReport", "EventLimitError", "Report",
            "SimulationError", "Trace", "VectorError", "Wave", "check_delay_insensitivity",
            "measure", "simulate"),
    "refdata": ("ReferenceTable", "calibrate", "load_reference"),
    "model": ("Calibration", "PpaError", "TechParams", "default_calibration", "default_tech",
              "load_calibration", "load_tech", "save_calibration", "save_tech"),
    "ppa": ("CalibrationError", "CircuitResult", "PpaReport", "Scenario", "SweepRow",
            "WireRC", "circuit_delay_assignment", "circuit_ppa", "evaluate_circuit",
            "gate_improvements", "gate_ppa", "miv_count", "sweep_alpha", "wire_parasitics"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def _lazy_submodule(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = sys.modules.get(f"{__name__}.{_name}") or _lazy_submodule(_name)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
