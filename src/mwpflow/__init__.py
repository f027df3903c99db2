"""Static certification of polynomial growth bounds for imperative programs.

The analysis assigns one matrix to every function; entry (i, j) is a
polynomial over branch-choice deltas whose value at a given assignment
classifies how variable i's input size flows into variable j's result
(0, m, w, p, or infinity for a detected non-polynomial dependency).
"""

from .analysis import (
    BOUNDED,
    CONDITIONALLY_BOUNDED,
    UNBOUNDED,
    FunctionAnalysis,
    FunctionSummary,
    ProgramAnalysis,
    analyze_program,
)
from .delta_graph import DeltaGraph
from .exhaustive import derivable_matrices, derive_with_picks
from .frontend import (
    Diagnostic,
    FunctionDecl,
    ParseError,
    Program,
    parse,
    render,
    variable_order,
)
from .inline import build_inlined, check_call_theorem
from .polynomial import (
    Assignment,
    ChoiceMatrix,
    ChoiceRegistry,
    Monomial,
    Polynomial,
    delta,
)
from .semiring import INF, M, P, W, ZERO, FlowMatrix, add, mul, mul_inf, value_char

__version__ = "0.1.0"

__all__ = [
    "BOUNDED",
    "CONDITIONALLY_BOUNDED",
    "UNBOUNDED",
    "FunctionAnalysis",
    "FunctionSummary",
    "ProgramAnalysis",
    "analyze_program",
    "DeltaGraph",
    "derivable_matrices",
    "derive_with_picks",
    "Diagnostic",
    "FunctionDecl",
    "ParseError",
    "Program",
    "parse",
    "render",
    "variable_order",
    "build_inlined",
    "check_call_theorem",
    "Assignment",
    "ChoiceMatrix",
    "ChoiceRegistry",
    "Monomial",
    "Polynomial",
    "delta",
    "INF",
    "M",
    "P",
    "W",
    "ZERO",
    "FlowMatrix",
    "add",
    "mul",
    "mul_inf",
    "value_char",
    "__version__",
]
