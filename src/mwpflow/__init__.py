"""Static certification of polynomial growth bounds for imperative programs.

The analysis assigns one matrix to every function; entry (i, j) is a
polynomial over branch-choice deltas whose value at a given assignment
classifies how variable i's input size flows into variable j's result
(0, m, w, p, or infinity for a detected non-polynomial dependency).

The package exports the names a caller starts from: parse (which raises
ParseError), analyze_program, the reference rules derivable_matrices and
derive_with_picks, check_call_theorem and __version__.  Everything else
is imported from its own module, such as mwpflow.polynomial.Polynomial
or mwpflow.cli.run.  derivable_matrices, derive_with_picks and
check_call_theorem load their modules on first access, so importing the
package or the command line loads no oracle.
"""

from .analysis import analyze_program
from .frontend import ParseError, parse

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


def __getattr__(name: str):
    if name in ("derivable_matrices", "derive_with_picks"):
        from . import exhaustive
        return getattr(exhaustive, name)
    if name == "check_call_theorem":
        from .inline import check_call_theorem
        return check_call_theorem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
