"""Source-level inlining of a single call and the composition check.

Inlining replaces `Xi = f(X1, ..., XN);` with parameter copies into
fresh names, copies of every other callee variable into fresh names
from the caller variables of the same names, the callee body with all
its variables renamed, and a final copy of the renamed return into the
call target.

check_call_theorem then verifies, assignment by assignment, that
analyzing the caller through the call rule agrees with analyzing the
fully inlined body once the latter is projected back onto the caller's
variables, and that every inlined assignment whose callee block is
poisoned shows an infinity inside that projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .analysis import analyze_program
from .frontend import (
    Assign,
    BExpr,
    BinOp,
    BoolOp,
    Call,
    Command,
    Compare,
    Expr,
    FunctionDecl,
    If,
    Loop,
    Not,
    Program,
    Var,
    While,
    variable_order,
)
from .polynomial import Assignment
from .semiring import FlowMatrix


def _rename_expr(e: Expr, names: dict[str, str]) -> Expr:
    if isinstance(e, Var):
        return Var(names.get(e.name, e.name))
    return BinOp(e.op, _rename_expr(e.left, names), _rename_expr(e.right, names))


def _rename_bexpr(b: BExpr, names: dict[str, str]) -> BExpr:
    if isinstance(b, Compare):
        return Compare(b.op, _rename_expr(b.left, names), _rename_expr(b.right, names))
    if isinstance(b, Not):
        return Not(_rename_bexpr(b.operand, names))
    return BoolOp(b.op, _rename_bexpr(b.left, names), _rename_bexpr(b.right, names))


def _rename_commands(body: Sequence[Command], names: dict[str, str]) -> tuple[Command, ...]:
    out: list[Command] = []
    for c in body:
        if isinstance(c, Assign):
            out.append(Assign(names.get(c.target, c.target), _rename_expr(c.value, names)))
        elif isinstance(c, Call):
            out.append(Call(
                names.get(c.target, c.target),
                c.function,
                tuple(names.get(a, a) for a in c.arguments),
            ))
        elif isinstance(c, If):
            out.append(If(
                _rename_bexpr(c.cond, names),
                _rename_commands(c.then_body, names),
                _rename_commands(c.else_body, names),
            ))
        elif isinstance(c, While):
            out.append(While(_rename_bexpr(c.cond, names), _rename_commands(c.body, names)))
        elif isinstance(c, Loop):
            out.append(Loop(names.get(c.counter, c.counter), _rename_commands(c.body, names)))
    return tuple(out)


def _find_call(body: Sequence[Command], function: str) -> list[Call]:
    found: list[Call] = []
    for c in body:
        if isinstance(c, Call) and c.function == function:
            found.append(c)
        elif isinstance(c, If):
            found.extend(_find_call(c.then_body, function))
            found.extend(_find_call(c.else_body, function))
        elif isinstance(c, (While, Loop)):
            found.extend(_find_call(c.body, function))
    return found


def _splice(body: Sequence[Command], call: Call, replacement: Sequence[Command]) -> tuple[Command, ...]:
    out: list[Command] = []
    for c in body:
        if c is call:
            out.extend(replacement)
        elif isinstance(c, If):
            out.append(If(
                c.cond,
                _splice(c.then_body, call, replacement),
                _splice(c.else_body, call, replacement),
            ))
        elif isinstance(c, While):
            out.append(While(c.cond, _splice(c.body, call, replacement)))
        elif isinstance(c, Loop):
            out.append(Loop(c.counter, _splice(c.body, call, replacement)))
        else:
            out.append(c)
    return tuple(out)


def build_inlined(caller: FunctionDecl, callee: FunctionDecl) -> FunctionDecl:
    """Expand the unique call from caller to callee in place.

    Parameters become __y1..__yN and the return variable becomes __r1.
    Every other callee variable becomes a fresh __vK, copied in from the
    caller variable of the same name right after the parameter copies:
    the callee reads the caller's value, as its summary's shared rows
    do, and its writes stay invisible to the caller, as under the call
    rule.
    """
    calls = _find_call(caller.body, callee.name)
    if len(calls) != 1:
        raise ValueError(
            f"expected exactly one call to {callee.name} in {caller.name}, found {len(calls)}"
        )
    call = calls[0]

    names: dict[str, str] = {}
    for k, p in enumerate(callee.params, start=1):
        names[p] = f"__y{k}"
    if callee.returns is None:
        raise ValueError(f"{callee.name} has no return variable")
    names[callee.returns] = "__r1"
    others = [v for v in variable_order(callee) if v not in names]
    names.update((v, f"__v{k}") for k, v in enumerate(others, start=1))

    replacement: list[Command] = [
        Assign(names[p], Var(arg)) for p, arg in zip(callee.params, call.arguments)
    ]
    replacement.extend(Assign(names[v], Var(v)) for v in others)
    replacement.extend(_rename_commands(callee.body, names))
    replacement.append(Assign(call.target, Var("__r1")))

    return FunctionDecl(
        caller.name,
        caller.params,
        _splice(caller.body, call, replacement),
        caller.returns,
    )


def _project_flow(matrix: FlowMatrix, variables: Sequence[str], keep: Sequence[str]) -> FlowMatrix:
    idx = [variables.index(v) for v in keep]
    return matrix.submatrix(idx)


@dataclass
class InlineReport:
    ok: bool
    caller: str
    callee: str
    checked_images: int
    checked_poisoned: int
    checked_merged: int
    failure: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return (
                f"call composition holds for {self.caller} -> {self.callee}: "
                f"{self.checked_images} matched assignments, "
                f"{self.checked_poisoned} poisoned blocks, "
                f"{self.checked_merged} merged duplicates"
            )
        return f"call composition FAILED for {self.caller} -> {self.callee}: {self.failure}"


def check_call_theorem(
    caller: FunctionDecl,
    callee: FunctionDecl,
    budget: int = 3 ** 9,
) -> InlineReport:
    """Compare call-rule analysis of the caller against full inlining.

    For every caller assignment, the evaluated caller matrix must equal
    the inlined matrix at the spliced assignment, projected onto the
    caller's variables.  Inlined assignments outside that image either
    carry a poisoned callee block, in which case the projection must
    contain an infinity, or pick a duplicate of a merged behavior, in
    which case the projection must equal the caller matrix of the
    behavior they duplicate.
    """
    program = Program((callee, caller))
    results = analyze_program(program)
    callee_res = results.functions[callee.name]
    caller_res = results.functions[caller.name]
    summary = callee_res.summary
    if summary is None or not summary.behaviors:
        return InlineReport(
            False, caller.name, callee.name, 0, 0, 0,
            failure="callee has no usable behavior summary",
        )

    inlined = build_inlined(caller, callee)
    inlined_res = analyze_program(Program((inlined,))).functions[caller.name]

    call = _find_call(caller.body, callee.name)[0]
    i0 = caller_res.choice_sites[id(call)]
    k = len(callee_res.registry)
    if len(inlined_res.registry) != len(caller_res.registry) - 1 + k:
        return InlineReport(
            False, caller.name, callee.name, 0, 0, 0,
            failure="choice bookkeeping mismatch between caller and inlined body",
        )

    n_caller = caller_res.registry.count_assignments()
    n_inlined = inlined_res.registry.count_assignments()
    if n_caller + n_inlined > budget:
        raise ValueError(
            f"enumeration budget exceeded: {n_caller} + {n_inlined} assignments > {budget}"
        )

    caller_vars = caller_res.variables
    reps = summary.representatives
    rep_to_behavior = {rep: b for b, rep in enumerate(reps)}

    def splice(a: Assignment, block: Assignment) -> Assignment:
        return a[:i0] + block + a[i0 + 1:]

    checked_images = 0
    for a in caller_res.registry.assignments():
        block = reps[a[i0]]
        lhs = caller_res.matrix.evaluate(a)
        rhs = _project_flow(
            inlined_res.matrix.evaluate(splice(a, block)),
            inlined_res.variables,
            caller_vars,
        )
        if lhs != rhs:
            return InlineReport(
                False, caller.name, callee.name, checked_images, 0, 0,
                failure=f"matrices differ at caller assignment {a}",
            )
        checked_images += 1

    checked_poisoned = 0
    checked_merged = 0
    for b in inlined_res.registry.assignments():
        block = b[i0:i0 + k]
        if block in rep_to_behavior:
            # Representative blocks are exactly the image of the caller
            # assignments and were compared above.
            continue
        projected = _project_flow(
            inlined_res.matrix.evaluate(b),
            inlined_res.variables,
            caller_vars,
        )
        if callee_res.graph.covered(block):
            if not projected.contains_inf():
                return InlineReport(
                    False, caller.name, callee.name,
                    checked_images, checked_poisoned, checked_merged,
                    failure=f"no infinity in projection at poisoned assignment {b}",
                )
            checked_poisoned += 1
        else:
            behavior_vec = tuple(
                callee_res.matrix.entry(callee_res.matrix.index(r),
                                        callee_res.matrix.index(callee.returns)).evaluate(block)
                for r in summary.rows
            )
            try:
                bi = summary.behaviors.index(behavior_vec)
            except ValueError:
                return InlineReport(
                    False, caller.name, callee.name,
                    checked_images, checked_poisoned, checked_merged,
                    failure=f"clean callee block {block} has an unknown behavior",
                )
            a = b[:i0] + (bi,) + b[i0 + k:]
            lhs = caller_res.matrix.evaluate(a)
            if lhs != projected:
                return InlineReport(
                    False, caller.name, callee.name,
                    checked_images, checked_poisoned, checked_merged,
                    failure=f"merged duplicate {b} disagrees with behavior {bi}",
                )
            checked_merged += 1

    return InlineReport(
        True, caller.name, callee.name, checked_images, checked_poisoned, checked_merged
    )
