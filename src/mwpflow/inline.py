"""Source-level inlining of a single call and the composition check.

Inlining replaces `Xi = f(X1, ..., XN);` with parameter copies into
fresh names, copies of every other callee variable into fresh names
from the caller variables of the same names, the callee body with all
its variables renamed, and a final copy of the renamed return into the
call target.

check_call_theorem then verifies, inlined assignment by inlined
assignment, that analyzing the caller through the call rule agrees with
analyzing the fully inlined body once the latter is projected back onto
the caller's variables, and that every inlined assignment whose callee
block is poisoned shows an infinity inside that projection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

from .analysis import analyze_program
from .frontend import (
    Assign,
    Call,
    Command,
    FunctionDecl,
    Program,
    Var,
    variable_order,
    walk_commands,
)

# AST fields that hold no variable: every other string field is a
# variable name, every other field a subtree or a tuple of either.
_NOT_VARIABLES = ("op", "function", "pos")

# Most caller and inlined assignments, together, the inline check enumerates.
_BUDGET = 3 ** 9


def _rebuild(node, names: dict[str, str], call: Call | None = None,
             replacement: Sequence[Command] = ()):
    """Copy an AST subtree with its variables renamed through ``names``.

    The command ``call``, matched by identity, is replaced by the
    commands of ``replacement``.
    """
    if isinstance(node, str):
        return names.get(node, node)
    if isinstance(node, tuple):
        out: list = []
        for c in node:
            if c is call:
                out.extend(replacement)
            else:
                out.append(_rebuild(c, names, call, replacement))
        return tuple(out)
    return replace(node, **{
        f.name: _rebuild(getattr(node, f.name), names, call, replacement)
        for f in fields(node) if f.name not in _NOT_VARIABLES
    })


def _the_call(caller: FunctionDecl, callee: FunctionDecl) -> Call:
    calls = [
        c for c in walk_commands(caller.body)
        if isinstance(c, Call) and c.function == callee.name
    ]
    if len(calls) != 1:
        raise ValueError(
            f"expected exactly one call to {callee.name} in {caller.name}, found {len(calls)}"
        )
    return calls[0]


def build_inlined(caller: FunctionDecl, callee: FunctionDecl) -> FunctionDecl:
    """Expand the unique call from caller to callee in place.

    Parameters become __y1..__yN and the return variable becomes __r1.
    Every other callee variable becomes a fresh __vK, copied in from the
    caller variable of the same name right after the parameter copies:
    the callee reads the caller's value, as its summary's shared rows
    do, and its writes stay invisible to the caller, as under the call
    rule.
    """
    call = _the_call(caller, callee)
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
    replacement.extend(_rebuild(callee.body, names))
    replacement.append(Assign(call.target, Var("__r1")))
    return replace(caller, body=_rebuild(caller.body, {}, call, replacement))


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


def check_call_theorem(caller: FunctionDecl, callee: FunctionDecl) -> InlineReport:
    """Compare call-rule analysis of the caller against full inlining.

    Each callee block (an assignment of the callee's own choices) is
    classified once, from the callee's graph and return column: it is
    either poisoned or produces a behavior bi.  Then, at every inlined
    assignment, the projection onto the caller's variables must contain
    an infinity when its block is poisoned, and must otherwise equal
    the caller matrix at the assignment that picks bi for the call.
    The lexicographically first block of each behavior counts as the
    image of a caller assignment, so every caller assignment is checked
    exactly once; later blocks of the same behavior count as merged
    duplicates.  A pair the check cannot follow (another call, not
    exactly one call to the callee, or a callee with no return) raises
    ValueError before anything is analyzed; a pair with more than
    _BUDGET caller and inlined assignments together raises it before
    any assignment is enumerated.
    """
    for decl in (callee, caller):
        for c in walk_commands(decl.body):
            if isinstance(c, Call) and (decl is callee or c.function != callee.name):
                raise ValueError(
                    f"{decl.name} calls {c.function}, which the inline check"
                    f" of {caller.name} -> {callee.name} cannot follow"
                )
    inlined = build_inlined(caller, callee)
    results = analyze_program(Program((callee, caller)))
    callee_res = results.functions[callee.name]
    caller_res = results.functions[caller.name]
    summary = callee_res.summary
    report = InlineReport(True, caller.name, callee.name, 0, 0, 0)

    def fail(failure: str) -> InlineReport:
        report.ok, report.failure = False, failure
        return report

    if not summary.behaviors:
        return fail("callee has no usable behavior summary")

    inlined_res = analyze_program(Program((inlined,))).functions[caller.name]
    i0 = caller_res.choice_sites[id(_the_call(caller, callee))]
    k = len(callee_res.registry)
    if len(inlined_res.registry) != len(caller_res.registry) - 1 + k:
        return fail("choice bookkeeping mismatch between caller and inlined body")

    n_caller = caller_res.registry.count_assignments()
    n_inlined = inlined_res.registry.count_assignments()
    if n_caller + n_inlined > _BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: {n_caller} + {n_inlined} assignments > {_BUDGET}"
        )

    # block -> None when poisoned, else (behavior, first block of it?)
    ret = callee_res.variables.index(callee.returns)
    column = [
        callee_res.matrix.entry(callee_res.variables.index(r), ret) for r in summary.rows
    ]
    behavior_of = {vec: b for b, vec in enumerate(summary.behaviors)}
    classes: dict[tuple[int, ...], tuple[int, bool] | None] = {}
    seen: set[int] = set()
    for block in callee_res.registry.assignments():
        if callee_res.graph.covered(block):
            classes[block] = None
            continue
        bi = behavior_of.get(tuple(p.evaluate(block) for p in column))
        if bi is None:
            return fail(f"clean callee block {block} has an unknown behavior")
        classes[block] = (bi, bi not in seen)
        seen.add(bi)

    keep = [inlined_res.variables.index(v) for v in caller_res.variables]
    for b in inlined_res.registry.assignments():
        projected = inlined_res.matrix.evaluate(b).submatrix(keep)
        cls = classes[b[i0:i0 + k]]
        if cls is None:
            if not projected.contains_inf():
                return fail(f"no infinity in projection at poisoned assignment {b}")
            report.checked_poisoned += 1
            continue
        bi, first = cls
        if caller_res.matrix.evaluate(b[:i0] + (bi,) + b[i0 + k:]) != projected:
            return fail(f"inlined assignment {b} disagrees with behavior {bi}")
        if first:
            report.checked_images += 1
        else:
            report.checked_merged += 1
    return report
