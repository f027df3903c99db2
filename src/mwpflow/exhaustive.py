"""Reference implementations of the original nondeterministic rules.

Two entry points back the equivalence tests.  They share one class of
rules over sets of derived matrices, which writes each rule once.  A
variable takes the unit vector (rule E1), and a * the all-w vector over
its variables (rule E2), with no choice.  A + or - site takes p on the
right, p on the left or rule E2.  An empty set means no derivation.

* derivable_matrices explores every derivation of a function body: every
  pick at every + or - site, with the iteration rules' side conditions,
  where a failed condition simply means that derivation does not exist.
  Applying the all-w vector to a bare variable is never explored: it is
  pointwise dominated and only inflates the result set.

* derive_with_picks replays the one derivation that a branch assignment
  selects, reading the k-th pick at the k-th + or - site in the engine's
  choice-index allocation order.  It returns the derived matrix, or None
  when a side condition fails.  Its picks must hold one value in 0-2 per
  + or - site that is not under a *; other picks raise ValueError.

Both work on call-free declarations and raise ValueError on a call.
"""

from __future__ import annotations

import itertools
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
    walk_commands,
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


def _iterate(star: FlowMatrix, counter: int | None) -> FlowMatrix | None:
    """The loop rule at counter's index, or the while rule when it is None."""
    n = len(star.rows)
    if any(star.rows[i][i] != M for i in range(n)):
        return None
    p_columns = [j for j in range(n) if any(star.rows[i][j] == P for i in range(n))]
    if counter is None:
        return None if p_columns else star
    rows = [list(r) for r in star.rows]
    for j in p_columns:
        rows[counter][j] = add(rows[counter][j], P)
    return FlowMatrix(rows)


def _additive_sites(e: Expr) -> int:
    if isinstance(e, Var) or e.op == "*":
        return 0
    return 1 + _additive_sites(e.left) + _additive_sites(e.right)


_last_setup: tuple = (None, None)  # the last declaration set up, and its setup


class _Rules:
    """The rules over sets of matrices, exploring every pick at each + or
    - site, or replaying the picks given, one per site not under a *.

    A replay of every assignment sets up one declaration many times in a
    row, so the setup of the last declaration is kept, by identity.
    """

    def __init__(self, decl: FunctionDecl, picks: Sequence[int] | None = None):
        global _last_setup
        if _last_setup[0] is not decl:
            sites = 0
            for c in walk_commands(decl.body):
                if isinstance(c, Call):
                    raise ValueError("the reference rules do not handle calls")
                if isinstance(c, Assign):
                    sites += _additive_sites(c.value)
            index = {v: i for i, v in enumerate(variable_order(decl))}
            _last_setup = decl, (sites, index, len(index), FlowMatrix.identity(len(index)))
        sites, self.index, self.n, self.identity = _last_setup[1]
        if picks is None:
            self.picks = itertools.repeat((0, 1, 2))
        elif len(picks) != sites or any(p not in (0, 1, 2) for p in picks):
            raise ValueError(f"{decl.name} needs {sites} picks in 0-2, got {tuple(picks)}")
        else:
            self.picks = ((p,) for p in picks)

    def body_matrices(self, body: Sequence[Command]) -> set[FlowMatrix]:
        acc = {self.identity}
        for k, c in enumerate(body):
            if not acc:
                # No later command can add a derivation, and a replay
                # reads no pick past a failed side condition.
                break
            step = self.command_matrices(c)
            # The identity is the product's unit: the first step replaces it.
            acc = {a * b for a in acc for b in step} if k else step
        return acc

    def command_matrices(self, c: Command) -> set[FlowMatrix]:
        if isinstance(c, Assign):
            j = self.index[c.target]
            return {_replace_column(self.identity, j, v) for v in self.expr_vectors(c.value)}
        if isinstance(c, If):
            # Each branch is derived once, then before else as the replay
            # reads its picks; an empty then-branch ends the if at once.
            then = self.body_matrices(c.then_body)
            other = self.body_matrices(c.else_body) if then else set()
            return {a + b for a in then for b in other}
        if isinstance(c, (Loop, While)):
            counter = self.index[c.counter] if isinstance(c, Loop) else None
            out = {_iterate(m.closure(), counter) for m in self.body_matrices(c.body)}
            out.discard(None)
            return out
        raise TypeError(f"unknown command {c!r}")

    def expr_vectors(self, e: Expr) -> set[Vector]:
        if isinstance(e, Var):
            return {_unit(self.index[e.name], self.n)}
        if e.op == "*":
            return {_wvec(e, self.index, self.n)}
        lefts = self.expr_vectors(e.left)
        rights = self.expr_vectors(e.right)
        out: set[Vector] = set()
        for pick in next(self.picks):  # read after the operands, as the engine allocates
            if pick == 0:
                out.update(_join(a, _scale(P, b)) for a in lefts for b in rights)
            elif pick == 1:
                out.update(_join(_scale(P, a), b) for a in lefts for b in rights)
            else:
                out.add(_wvec(e, self.index, self.n))
        return out


def derivable_matrices(decl: FunctionDecl) -> frozenset[FlowMatrix]:
    """Every matrix derivable for decl's body under the original rules."""
    return frozenset(_Rules(decl).body_matrices(decl.body))


def derive_with_picks(decl: FunctionDecl, picks: Sequence[int]) -> FlowMatrix | None:
    """Replay the derivation selected by picks; None if a side condition fails."""
    return next(iter(_Rules(decl, picks).body_matrices(decl.body)), None)
