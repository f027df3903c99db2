"""Static certification of polynomial growth bounds for imperative programs.

The analysis assigns one matrix to every function; entry (i, j) is a
polynomial over branch-choice deltas whose value at a given assignment
classifies how variable i's input size flows into variable j's result
(0, m, w, p, or infinity for a detected non-polynomial dependency).

The package exports the names a caller starts from: parse (which raises
ParseError), analyze_program, the reference rules derivable_matrices and
derive_with_picks, check_call_theorem and __version__.  Everything else
is imported from its own module, such as mwpflow.polynomial.Polynomial
or mwpflow.cli.run.
"""

from .analysis import analyze_program
from .exhaustive import derivable_matrices, derive_with_picks
from .frontend import ParseError, parse
from .inline import check_call_theorem

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "analyze_program",
    "check_call_theorem",
    "derivable_matrices",
    "derive_with_picks",
    "parse",
    "__version__",
]
