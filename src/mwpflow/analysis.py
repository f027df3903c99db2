"""The derivation engine.

Each function body is folded into a single choice matrix: assignments
replace one column with the expression's vector, sequences multiply,
branches of a conditional join by entry-wise max over independent choice
indices, and the two iteration rules close the body matrix and then top
the cells that break the polynomial-growth argument with INF.  The
final matrix is the only record of infinity, except for a call that
poisons every assignment (see poisoned): once the body is folded, one
Polynomial.of over its INF monomials is the cover of the function's
delta graph, whose vertices are their minimal delta lists, so the
qualitative verdict is available without touching the assignment
space.  The sweep that decides it restricts that cover and the return
column one choice index at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .delta_graph import DeltaGraph, Sweep
from .frontend import (
    Assign,
    Call,
    Command,
    Expr,
    FunctionDecl,
    If,
    Loop,
    Program,
    Var,
    While,
    variable_order,
)
from .polynomial import (
    Assignment,
    ChoiceMatrix,
    ChoiceRegistry,
    INF_POLY,
    Monomial,
    Polynomial,
    UNIT_POLY,
    ZERO_POLY,
)
from .semiring import INF, M, P, W

BOUNDED = "bounded"
CONDITIONALLY_BOUNDED = "conditionally_bounded"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class FunctionSummary:
    """Deduplicated INF-free input-to-return dependency vectors.

    Rows are the callee's parameters followed by its shared input
    variables (everything it reads from the enclosing scope).  The
    return variable's own initial value is excluded: inlining renames it
    to a fresh name the caller never observes.  Behaviors are ordered by
    their lexicographically first clean assignment.
    """

    name: str
    param_count: int
    rows: tuple[str, ...]
    behaviors: tuple[tuple[int, ...], ...]

    @property
    def shared_rows(self) -> tuple[str, ...]:
        return self.rows[self.param_count:]


@dataclass
class FunctionAnalysis:
    name: str
    variables: tuple[str, ...]
    registry: ChoiceRegistry
    matrix: ChoiceMatrix
    graph: DeltaGraph
    verdict: str
    sample: Assignment | None
    blame: tuple[tuple[str, str], ...]
    summary: FunctionSummary | None
    clean_count: int
    total_assignments: int
    choice_sites: dict[int, int]  # id(AST node) -> first choice index it allocated
    elapsed: float


@dataclass
class ProgramAnalysis:
    functions: dict[str, FunctionAnalysis]

    def __iter__(self):
        return iter(self.functions.values())


class _FunctionRun:
    def __init__(self, decl: FunctionDecl, summaries: dict[str, FunctionSummary]):
        self.decl = decl
        self.summaries = summaries
        self.registry = ChoiceRegistry()
        self.poisoned = False  # a call INF-floods every assignment
        self.choice_sites: dict[int, int] = {}
        self.variables = variable_order(decl, lambda f: summaries[f].shared_rows)
        self.index = {v: i for i, v in enumerate(self.variables)}

    # -- expressions ---------------------------------------------------

    def vector_of(self, e: Expr) -> list[Polynomial]:
        n = len(self.variables)
        v = [ZERO_POLY] * n
        if isinstance(e, Var):
            v[self.index[e.name]] = UNIT_POLY
            return v
        v1 = self.vector_of(e.left)
        v2 = self.vector_of(e.right)
        support = [k for k in range(n) if v1[k].monomials or v2[k].monomials]
        if e.op == "*":
            for k in support:
                v[k] = (v1[k] + v2[k]).scale(W)
            return v
        # Additive operator: three ways to distribute the polynomial
        # penalty, tracked under a fresh three-valued choice index.
        j = self.registry.fresh(3)
        self.choice_sites.setdefault(id(e), j)
        for k in support:
            a, b = v1[k], v2[k]
            v[k] = Polynomial.join(j, (a + b.scale(P), a.scale(P) + b, (a + b).scale(W)))
        return v

    # -- commands -------------------------------------------------------

    def matrix_of_body(self, body: Sequence[Command]) -> ChoiceMatrix:
        """Fold a body left to right; an assignment or call after the
        first command updates its target column in place of a product."""
        out: ChoiceMatrix | None = None
        for c in body:
            if out is not None and isinstance(c, (Assign, Call)):
                target, column = self.column_of(c)
                out = out.update_columns({target: column})
            else:
                m = self.matrix_of(c)
                out = m if out is None else out * m
        if out is None:
            return ChoiceMatrix.identity(self.variables, self.registry)
        return out

    def matrix_of(self, c: Command) -> ChoiceMatrix:
        if isinstance(c, (Assign, Call)):
            base = ChoiceMatrix.identity(self.variables, self.registry)
            return base.replace_column(*self.column_of(c))
        if isinstance(c, If):
            return self.matrix_of_body(c.then_body) + self.matrix_of_body(c.else_body)
        if isinstance(c, While):
            return self._iterate(self.matrix_of_body(c.body), counter=None)
        if isinstance(c, Loop):
            return self._iterate(self.matrix_of_body(c.body), counter=self.index[c.counter])
        raise TypeError(f"unknown command {c!r}")

    def _iterate(self, body: ChoiceMatrix, counter: int | None) -> ChoiceMatrix:
        """Apply the iteration rule to a closed body matrix.

        Both rules give every diagonal monomial above m an INF twin.  An
        unbounded while also tops each p monomial in its own cell; a
        counted loop instead adds the p monomials of every column to the
        counter's row.  A unit column holds nothing above m and no p, so
        only the stored columns of the closure are read, each merged
        with row_inf, and those the rule tops are replaced.
        """
        star = out = body.closure()
        for j, stored in star.columns.items():
            column = list(map(Polynomial.__add__, stored, star.row_inf))
            cells = list(column)
            for i in range(len(column)) if counter is None else (j,):
                floor = M if i == j else W
                twins = [Monomial(INF, m.deltas) for m in column[i].monomials
                         if floor < m.scalar < INF]
                if twins:
                    cells[i] = column[i] + Polynomial.of(twins)
            if counter is not None:
                hits = [m for p in column for m in p.monomials if m.scalar == P]
                if hits:
                    cells[counter] = cells[counter] + Polynomial.of(hits)
            if cells != column:
                out = out.replace_column(j, cells)
        return out

    def column_of(self, c: Assign | Call) -> tuple[int, list[Polynomial]]:
        """The target index and new column of an assignment or call."""
        target = self.index[c.target]
        if isinstance(c, Assign):
            return target, self.vector_of(c.value)
        summary = self.summaries[c.function]
        row_targets = [self.index[a] for a in c.arguments]
        row_targets += [self.index[v] for v in summary.shared_rows]
        column = [ZERO_POLY] * len(self.variables)
        if not summary.behaviors:
            # A callee with no growth certificate cannot confer one: every
            # input floods the target with INF, unconditionally, even
            # with no input row to hold it.
            self.poisoned = True
            for r in row_targets:
                column[r] = INF_POLY
            return target, column
        j = self.registry.fresh(len(summary.behaviors))
        self.choice_sites.setdefault(id(c), j)
        for r, flows in zip(row_targets, zip(*summary.behaviors)):
            column[r] = column[r] + Polynomial.join(j, [Polynomial.const(f) for f in flows])
        return target, column

    # -- results ---------------------------------------------------------

    def finish(self) -> FunctionAnalysis:
        start = time.perf_counter()
        matrix = self.matrix_of_body(self.decl.body)
        # The final matrix's INF monomials cover exactly the assignments
        # that hold an INF, so their graph answers every qualitative
        # question on its own.
        inf_cells = {
            (i, j): infs for i, row in enumerate(matrix.entries) for j, p in enumerate(row)
            if (infs := [m for m in p.monomials if m.scalar == INF])
        }
        graph = DeltaGraph(self.registry, INF_POLY if self.poisoned else Polynomial.of(
            m for infs in inf_cells.values() for m in infs))
        found, summary = self._build_summary(matrix, graph)
        if graph.cover.is_zero:
            verdict = BOUNDED
        elif found.sample is None:
            verdict = UNBOUNDED
        else:
            verdict = CONDITIONALLY_BOUNDED
        return FunctionAnalysis(
            name=self.decl.name,
            variables=self.variables,
            registry=self.registry,
            matrix=matrix,
            graph=graph,
            verdict=verdict,
            sample=found.sample,
            blame=tuple((self.variables[i], self.variables[j]) for i, j in inf_cells),
            summary=summary,
            clean_count=found.count,
            total_assignments=self.registry.count_assignments(),
            choice_sites=self.choice_sites,
            elapsed=time.perf_counter() - start,
        )

    def _build_summary(
        self, matrix: ChoiceMatrix, graph: DeltaGraph
    ) -> tuple[Sweep, FunctionSummary | None]:
        """One sweep of the graph, and from it the summary when there is a return.

        The sweep carries the return column's entries for the
        parameters and shared inputs, so its behaviors come in order of
        their first clean assignment.
        """
        decl = self.decl
        if decl.returns is None:
            return graph.sweep(), None
        ret = self.index[decl.returns]
        shared = tuple(
            v for v in self.variables
            if v not in decl.params and v != decl.returns
        )
        rows = decl.params + shared
        found = graph.sweep([matrix.entry(self.index[v], ret) for v in rows])
        return found, FunctionSummary(
            name=decl.name,
            param_count=len(decl.params),
            rows=rows,
            behaviors=found.behaviors,
        )


def analyze_program(program: Program) -> ProgramAnalysis:
    """Analyze every function in declaration order, threading summaries.

    The result is a pure function of the AST: choice indices are
    allocated depth-first over each body, so repeated runs are
    identical.  Verdicts, clean counts, samples and summaries all come
    from one sweep of each function's delta graph; no assignment is
    ever scanned.
    """
    summaries: dict[str, FunctionSummary] = {}
    results: dict[str, FunctionAnalysis] = {}
    for decl in program.functions:
        analysis = _FunctionRun(decl, summaries).finish()
        if analysis.summary is not None:
            summaries[decl.name] = analysis.summary
        results[decl.name] = analysis
    return ProgramAnalysis(results)
