"""Reference implementations of the original nondeterministic rules.

Two entry points back the equivalence tests.  They share one walker
over sets of derived matrices, which writes each command rule once, and
differ only in their expression rule.  An empty set means no derivation.

* derivable_matrices explores every derivation of a function body under
  the original rule set, where additive expressions take one of three
  vectors, iteration rules carry their side conditions, and a failed
  condition simply means that derivation does not exist.  Applying the
  all-w vector to a bare variable is never explored: it is pointwise
  dominated and only inflates the result set.

* derive_with_picks replays one derivation chosen by a branch
  assignment, through plain scalar vectors (one per expression) and
  with the original side conditions enforced, mirroring the engine's
  choice-index allocation order.  It returns the derived matrix, or None
  when a side condition fails.  Its picks must hold one value in 0-2 per
  + or - site, counting the sites under *; other picks raise ValueError.

Both work on call-free declarations and raise ValueError on a call.
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
    if isinstance(e, Var):
        return 0
    return (e.op != "*") + _additive_sites(e.left) + _additive_sites(e.right)


_last_setup: tuple = (None, None)  # the last declaration set up, and its setup


class _Rules:
    """The command rules over sets of matrices; subclasses add expr_vectors.

    sites counts the + and - sites, under * too: a replay reads one pick each.
    A replay of every assignment sets up one declaration many times in a
    row, so the setup of the last declaration is kept, by identity.
    """

    def __init__(self, decl: FunctionDecl):
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
        self.sites, self.index, self.n, self.identity = _last_setup[1]

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


class _Explorer(_Rules):
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


def derivable_matrices(decl: FunctionDecl) -> frozenset[FlowMatrix]:
    """Every matrix derivable for decl's body under the original rules."""
    return frozenset(_Explorer(decl).body_matrices(decl.body))


class _Replay(_Rules):
    def __init__(self, decl: FunctionDecl, picks: Sequence[int]):
        super().__init__(decl)
        if len(picks) != self.sites or any(p not in (0, 1, 2) for p in picks):
            raise ValueError(f"{decl.name} needs {self.sites} picks in 0-2, got {tuple(picks)}")
        self.picks = iter(picks)

    def expr_vectors(self, e: Expr) -> set[Vector]:
        return {self.expr_vector(e)}

    def expr_vector(self, e: Expr) -> Vector:
        if isinstance(e, Var):
            return _unit(self.index[e.name], self.n)
        v1 = self.expr_vector(e.left)
        v2 = self.expr_vector(e.right)
        if e.op == "*":
            return _scale(W, _join(v1, v2))
        pick = next(self.picks)
        if pick == 0:
            return _join(v1, _scale(P, v2))
        if pick == 1:
            return _join(_scale(P, v1), v2)
        return _scale(W, _join(v1, v2))


def derive_with_picks(decl: FunctionDecl, picks: Sequence[int]) -> FlowMatrix | None:
    """Replay the derivation selected by picks; None if a side condition fails."""
    return next(iter(_Replay(decl, picks).body_matrices(decl.body)), None)
