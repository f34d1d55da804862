"""Gate-level toolkit for NULL Convention Logic circuits.

Covers the path from Boolean netlists to dual-rail threshold-gate circuits,
four-phase handshake simulation, and a parasitic-based power/performance/
area model that compares conventional 2D placement against transistor-level
monolithic 3D stacking.
"""
__version__ = "0.1.0"

from .gates import (  # noqa: F401
    DEFAULT_CATALOG,
    STUDY_GATES,
    GateError,
    GateSpec,
    eval_set,
    next_output,
    spec_from_name,
    transistor_counts,
)
from .netlist import (  # noqa: F401
    DR,
    FormatError,
    Netlist,
    NetlistError,
    Port,
    check_input_completeness,
    check_observability,
    encode_word,
    load_netlist,
    output_word,
    parse_netlist,
    serialize_netlist,
    settle,
)
from .boolnet import (  # noqa: F401
    BoolNetlist,
    parse_boolean_netlist,
    serialize_boolean_netlist,
)
from .synth import (  # noqa: F401
    SynthError,
    TransistorCount,
    build_array_multiplier,
    build_boolean_multiplier,
    count_transistors,
    expand_dual_rail,
    operand_bits,
    product_value,
)
from .pipeline import (  # noqa: F401
    PipelineSystem,
    build_pipeline,
)
from .sim import (  # noqa: F401
    DeadlockError,
    DelayAssignment,
    DIReport,
    EventLimitError,
    Report,
    SimulationError,
    Trace,
    VectorError,
    Wave,
    check_delay_insensitivity,
    load_vectors,
    measure,
    parse_vectors,
    simulate,
)
from .refdata import (  # noqa: F401
    ReferenceTable,
    load_reference,
)
from .ppa import (  # noqa: F401
    Calibration,
    CalibrationError,
    CircuitResult,
    PpaError,
    PpaReport,
    Scenario,
    SweepRow,
    TechParams,
    WireRC,
    calibrate,
    circuit_delay_assignment,
    circuit_ppa,
    default_calibration,
    default_tech,
    evaluate_circuit,
    gate_area,
    gate_capacitance,
    gate_delay_skew,
    gate_improvements,
    gate_power,
    gate_ppa,
    load_calibration,
    load_tech,
    miv_count,
    save_calibration,
    save_tech,
    sweep_alpha,
    wire_parasitics,
)
