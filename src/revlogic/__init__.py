"""Reversible-logic circuits: gates, netlists, metrics, and BCD adders.

The package splits into five layers:

* `gates`: reversible gates as permutations of n-bit words, plus the cost
  table format.
* `netlist`: fan-out-free circuit construction, validation, simulation.
* `metrics`: gate count, garbage, constants, quantum cost, delay.
* `designs`: the reference BCD adder constructions and their oracle.
* `netlist_text` / `cli`: text format and command-line front end.
"""

from .errors import RevLogicError
from .gates import (
    MAX_ARITY,
    BadArity,
    BitWord,
    CostTableError,
    GateDef,
    NotBijective,
    WidthMismatch,
    catalog_by_name,
    default_cost_table,
    load_cost_table,
    make_gate,
    parse_cost_table,
)
from .netlist import (
    ENUMERATION_LIMIT,
    ArityMismatch,
    Circuit,
    CircuitBuilder,
    DuplicateLabel,
    FanOutViolation,
    Instance,
    TooWide,
    ValidationFailed,
    Wire,
    new_circuit,
)
from .metrics import (
    MetricsReport,
    StagesNotLinear,
    UnknownGateCost,
    analyze,
    delay,
    delay_decomposition,
)
from .designs import (
    BadDigitCount,
    BcdFailure,
    MAX_CODEC_DIGITS,
    MAX_DIGITS,
    ReferenceRow,
    bcd_digit_stage_tags,
    build_bcd_adder_digit,
    build_bcd_adder_n,
    build_correction_stage,
    build_full_adder,
    build_ripple_adder4,
    decode_bcd_result,
    encode_bcd_operands,
    eval_correction_eq1,
    eval_correction_eq2,
    oracle_bcd_add,
    oracle_bcd_add_number,
    reference_table,
    verify_bcd_adder,
)
from .netlist_text import (
    NetlistSyntaxError,
    UnknownGateName,
    UseBeforeDeclaration,
    decode_netlist,
    elaborate,
    emit_netlist,
    parse_netlist,
)

__version__ = "0.1.0"

__all__ = [
    "RevLogicError",
    "MAX_ARITY",
    "BadArity",
    "BitWord",
    "CostTableError",
    "GateDef",
    "NotBijective",
    "WidthMismatch",
    "catalog_by_name",
    "default_cost_table",
    "load_cost_table",
    "make_gate",
    "parse_cost_table",
    "ENUMERATION_LIMIT",
    "ArityMismatch",
    "Circuit",
    "CircuitBuilder",
    "DuplicateLabel",
    "FanOutViolation",
    "Instance",
    "TooWide",
    "ValidationFailed",
    "Wire",
    "new_circuit",
    "MetricsReport",
    "StagesNotLinear",
    "UnknownGateCost",
    "analyze",
    "delay",
    "delay_decomposition",
    "BadDigitCount",
    "BcdFailure",
    "MAX_CODEC_DIGITS",
    "MAX_DIGITS",
    "ReferenceRow",
    "bcd_digit_stage_tags",
    "build_bcd_adder_digit",
    "build_bcd_adder_n",
    "build_correction_stage",
    "build_full_adder",
    "build_ripple_adder4",
    "decode_bcd_result",
    "encode_bcd_operands",
    "eval_correction_eq1",
    "eval_correction_eq2",
    "oracle_bcd_add",
    "oracle_bcd_add_number",
    "reference_table",
    "verify_bcd_adder",
    "NetlistSyntaxError",
    "UnknownGateName",
    "UseBeforeDeclaration",
    "decode_netlist",
    "elaborate",
    "emit_netlist",
    "parse_netlist",
]
