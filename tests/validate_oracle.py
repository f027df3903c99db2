"""The program checks as a second pass over a parsed tree: a test oracle.

`parse` checks a program while it builds it.  This module keeps the same
checks written as a walk over the finished tree, declaration by
declaration and each body in pre-order, so the tests can compare the
two on the same sources.  `parse_then_validate` builds the tree with the
checks switched off and then applies `validate`.
"""

from __future__ import annotations

from mwpflow.frontend import (
    CALL_ARITY,
    DUPLICATE_FUNCTION,
    LOOP_COUNTER_ASSIGNED,
    MAIN_HAS_PARAMETERS,
    MISSING_MAIN,
    NO_RETURN_VALUE,
    UNKNOWN_FUNCTION,
    Assign,
    Call,
    Diagnostic,
    FunctionDecl,
    Loop,
    ParseError,
    Program,
    _Parser,
    walk_commands,
)


class _Unchecked(_Parser):
    """The parser with every semantic check switched off."""

    def check(self, code: str, message: str, pos: tuple[int, int]) -> None:
        pass


def parse_then_validate(source: str) -> Program:
    """Parse without checks, raising syntax errors as parse does, then validate."""
    return validate(Program(_Unchecked(source).parse_program().functions))


def validate(program: Program) -> Program:
    """Check program-level invariants, returning the program with warnings."""
    seen: dict[str, FunctionDecl] = {}
    # id(assignment) -> its warning: one per assignment, however many
    # enclosing loops share the counter it writes
    warnings: dict[int, Diagnostic] = {}
    for decl in program.functions:
        if decl.name in seen:
            raise ParseError(DUPLICATE_FUNCTION, f"function {decl.name} declared twice", *decl.pos)
        if decl.name == "main" and decl.params:
            raise ParseError(MAIN_HAS_PARAMETERS, "main must take no parameters", *decl.pos)
        for cmd in walk_commands(decl.body):
            if isinstance(cmd, Call):
                callee = seen.get(cmd.function)
                if callee is None:
                    raise ParseError(
                        UNKNOWN_FUNCTION,
                        f"call to {cmd.function}, which is not declared earlier",
                        *cmd.pos,
                    )
                if len(cmd.arguments) != len(callee.params):
                    raise ParseError(
                        CALL_ARITY,
                        f"{cmd.function} takes {len(callee.params)} arguments,"
                        f" got {len(cmd.arguments)}",
                        *cmd.pos,
                    )
                if callee.returns is None:
                    raise ParseError(
                        NO_RETURN_VALUE,
                        f"{cmd.function} has no return value and cannot be called",
                        *cmd.pos,
                    )
            elif isinstance(cmd, Loop):
                for inner in walk_commands(cmd.body):
                    if isinstance(inner, (Assign, Call)) and inner.target == cmd.counter:
                        warnings.setdefault(id(inner), Diagnostic(
                            LOOP_COUNTER_ASSIGNED,
                            f"loop counter {cmd.counter} is assigned inside its own body",
                            *inner.pos,
                        ))
        seen[decl.name] = decl
    mains = [f for f in program.functions if f.name == "main"]
    if len(mains) != 1:
        raise ParseError(MISSING_MAIN, "program needs exactly one function named main", 1, 1)
    return Program(program.functions, tuple(warnings.values()))
