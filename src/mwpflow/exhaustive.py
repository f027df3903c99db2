"""Reference implementations of the original nondeterministic rules.

Two entry points back the equivalence tests:

* derivable_matrices explores every derivation of a function body under
  the original rule set, where additive expressions take one of three
  vectors, iteration rules carry their side conditions, and a failed
  condition simply means that derivation does not exist.  Applying the
  all-w vector to a bare variable is never explored: it is pointwise
  dominated and only inflates the result set.

* derive_with_picks replays one derivation chosen by a branch
  assignment, through plain scalar vectors and with the original side
  conditions enforced, mirroring the engine's choice-index allocation
  order.  It returns the derived matrix, or None when a side condition
  fails.

Both work on call-free declarations.
"""

from __future__ import annotations

from typing import Sequence

from .frontend import (
    Assign,
    Call,
    Command,
    Expr,
    FunctionDecl,
    If,
    Loop,
    Var,
    While,
    expression_vars,
    variable_order,
)
from .semiring import M, P, W, ZERO, FlowMatrix, add, mul

Vector = tuple[int, ...]


def _scale(alpha: int, v: Vector) -> Vector:
    return tuple(mul(alpha, x) for x in v)


def _join(a: Vector, b: Vector) -> Vector:
    return tuple(add(x, y) for x, y in zip(a, b))


def _unit(i: int, n: int) -> Vector:
    return tuple(M if k == i else ZERO for k in range(n))


def _wvec(e: Expr, index: dict[str, int], n: int) -> Vector:
    v = [ZERO] * n
    for name in expression_vars(e):
        v[index[name]] = W
    return tuple(v)


def _replace_column(m: FlowMatrix, j: int, v: Vector) -> FlowMatrix:
    return FlowMatrix(
        tuple(v[i] if c == j else row[c] for c in range(len(m.rows)))
        for i, row in enumerate(m.rows)
    )


def _loop_result(star: FlowMatrix, counter: int) -> FlowMatrix | None:
    n = len(star.rows)
    if any(star.rows[i][i] != M for i in range(n)):
        return None
    rows = [list(r) for r in star.rows]
    for j in range(n):
        if any(star.rows[i][j] == P for i in range(n)):
            rows[counter][j] = add(rows[counter][j], P)
    return FlowMatrix(rows)


def _while_result(star: FlowMatrix) -> FlowMatrix | None:
    n = len(star.rows)
    if any(star.rows[i][i] != M for i in range(n)):
        return None
    if any(star.rows[i][j] == P for i in range(n) for j in range(n)):
        return None
    return star


class _Explorer:
    def __init__(self, decl: FunctionDecl):
        self.variables = variable_order(decl)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.n = len(self.variables)

    def expr_vectors(self, e: Expr) -> set[Vector]:
        if isinstance(e, Var):
            return {_unit(self.index[e.name], self.n)}
        if e.op == "*":
            return {_wvec(e, self.index, self.n)}
        out: set[Vector] = set()
        for v1 in self.expr_vectors(e.left):
            for v2 in self.expr_vectors(e.right):
                out.add(_join(_scale(P, v1), v2))
                out.add(_join(v1, _scale(P, v2)))
        out.add(_wvec(e, self.index, self.n))
        return out

    def body_matrices(self, body: Sequence[Command]) -> set[FlowMatrix]:
        acc = {FlowMatrix.identity(self.n)}
        for c in body:
            step = self.command_matrices(c)
            acc = {a * b for a in acc for b in step}
        return acc

    def command_matrices(self, c: Command) -> set[FlowMatrix]:
        if isinstance(c, Assign):
            j = self.index[c.target]
            ident = FlowMatrix.identity(self.n)
            return {_replace_column(ident, j, v) for v in self.expr_vectors(c.value)}
        if isinstance(c, If):
            return {
                a + b
                for a in self.body_matrices(c.then_body)
                for b in self.body_matrices(c.else_body)
            }
        if isinstance(c, Loop):
            out = set()
            for m in self.body_matrices(c.body):
                r = _loop_result(m.closure(), self.index[c.counter])
                if r is not None:
                    out.add(r)
            return out
        if isinstance(c, While):
            out = set()
            for m in self.body_matrices(c.body):
                r = _while_result(m.closure())
                if r is not None:
                    out.add(r)
            return out
        if isinstance(c, Call):
            raise ValueError("the reference explorer does not handle calls")
        raise TypeError(f"unknown command {c!r}")


def derivable_matrices(decl: FunctionDecl) -> frozenset[FlowMatrix]:
    """Every matrix derivable for decl's body under the original rules."""
    return frozenset(_Explorer(decl).body_matrices(decl.body))


class _Replay:
    def __init__(self, decl: FunctionDecl, picks: Sequence[int]):
        self.variables = variable_order(decl)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.n = len(self.variables)
        self.picks = picks
        self.next_choice = 0

    def expr_vector(self, e: Expr) -> Vector:
        if isinstance(e, Var):
            return _unit(self.index[e.name], self.n)
        v1 = self.expr_vector(e.left)
        v2 = self.expr_vector(e.right)
        if e.op == "*":
            return _scale(W, _join(v1, v2))
        pick = self.picks[self.next_choice]
        self.next_choice += 1
        if pick == 0:
            return _join(v1, _scale(P, v2))
        if pick == 1:
            return _join(_scale(P, v1), v2)
        return _scale(W, _join(v1, v2))

    def body_matrix(self, body: Sequence[Command]) -> FlowMatrix | None:
        acc = FlowMatrix.identity(self.n)
        for c in body:
            m = self.command_matrix(c)
            if m is None:
                # A failed side condition rejects the whole derivation:
                # every caller passes None up and no later command is
                # derived, so no pick needs skipping.
                return None
            acc = acc * m
        return acc

    def command_matrix(self, c: Command) -> FlowMatrix | None:
        if isinstance(c, Assign):
            v = self.expr_vector(c.value)
            return _replace_column(FlowMatrix.identity(self.n), self.index[c.target], v)
        if isinstance(c, If):
            a = self.body_matrix(c.then_body)
            if a is None:
                return None
            b = self.body_matrix(c.else_body)
            if b is None:
                return None
            return a + b
        if isinstance(c, Loop):
            m = self.body_matrix(c.body)
            if m is None:
                return None
            return _loop_result(m.closure(), self.index[c.counter])
        if isinstance(c, While):
            m = self.body_matrix(c.body)
            if m is None:
                return None
            return _while_result(m.closure())
        if isinstance(c, Call):
            raise ValueError("the replay oracle does not handle calls")
        raise TypeError(f"unknown command {c!r}")


def derive_with_picks(decl: FunctionDecl, picks: Sequence[int]) -> FlowMatrix | None:
    """Replay the derivation selected by picks; None if a side condition fails."""
    return _Replay(decl, picks).body_matrix(decl.body)
