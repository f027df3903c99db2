"""The derivation engine.

Each function body is folded into a single choice matrix: assignments
replace one column with the expression's vector, sequences multiply,
branches of a conditional join by entry-wise max over independent choice
indices, and a loop or while hands its body matrix to
ChoiceMatrix.iterate, which closes it and then tops the cells that
break the polynomial-growth argument with INF.  The
final matrix is the only record of infinity, except for a call that
poisons every assignment (see poisoned): once the body is folded, one
Polynomial.of over its INF monomials is the cover of the function's
delta graph, whose vertices are their minimal delta lists, so the
qualitative verdict is available without touching the assignment
space.  The sweep that decides it restricts that cover and the return
column one choice index at a time; both are read from the stored form
(ChoiceMatrix.inf_cells and cell), not from dense rows.

The results, FunctionSummary, FunctionAnalysis and ProgramAnalysis,
are immutable Records (see frontend), like the AST they come from.
"""

from __future__ import annotations

import time
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
    Record,
    Var,
    While,
    expression_vars,
    variable_order,
)
from .polynomial import (
    BudgetExceeded,
    ChoiceMatrix,
    ChoiceRegistry,
    INF_POLY,
    Polynomial,
    UNIT_POLY,
    ZERO_POLY,
    delta,
)
from .semiring import M, P, W, ZERO

BOUNDED = "bounded"
CONDITIONALLY_BOUNDED = "conditionally_bounded"
UNBOUNDED = "unbounded"

_W_POLY = Polynomial.const(W)
# The scalar of a delta-free vector cell: 0, a variable's m or a product's w.
_FLAT = {ZERO_POLY: ZERO, UNIT_POLY: M, _W_POLY: W}


class FunctionSummary(Record):
    """Deduplicated INF-free input-to-return dependency vectors.

    Rows are the callee's parameters followed by its shared input
    variables (everything it reads from the enclosing scope).  The
    return variable's own initial value is excluded: inlining renames it
    to a fresh name the caller never observes.  Behaviors are ordered by
    their lexicographically first clean assignment.
    """

    __slots__ = ("name", "param_count", "rows", "behaviors")

    @property
    def shared_rows(self) -> tuple[str, ...]:
        return self.rows[self.param_count:]


class FunctionAnalysis(Record):
    # choice_sites maps id(Call node) to the call's first choice index.
    __slots__ = ("name", "variables", "registry", "matrix", "graph", "verdict", "sample",
                 "blame", "summary", "clean_count", "total_assignments", "choice_sites",
                 "elapsed")


class ProgramAnalysis(Record):
    __slots__ = ("functions",)

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

    def vector_of(self, e: Expr) -> dict[int, Polynomial]:
        """The expression's nonzero cells by row (rules E1, E2).  A +/-
        site builds a cell whose two operand cells are delta-free from
        their scalars, and joins the three branches of any other cell."""
        if isinstance(e, Var):
            return {self.index[e.name]: UNIT_POLY}
        if e.op == "*":  # rule E2: w on every variable, and no choice
            return {self.index[name]: _W_POLY for name in expression_vars(e)}
        v1 = self.vector_of(e.left)
        v2 = self.vector_of(e.right)
        # Additive operator: p on the right, p on the left, or rule E2,
        # tracked under a fresh three-valued choice index.
        j = self.registry.fresh(3)
        base = delta(0, j)
        v = {}
        for k in {**v1, **v2}:
            a, b = v1.get(k, ZERO_POLY), v2.get(k, ZERO_POLY)
            sa, sb = _FLAT.get(a), _FLAT.get(b)
            if sa is None or sb is None:
                v[k] = Polynomial.join(j, (a + b.scale(P), a.scale(P) + b, _W_POLY))
            else:  # the join's cell: p times a nonzero scalar is p
                v[k] = Polynomial(((P if sb else sa, (base,)), (P if sa else sb, (base | 1,)),
                                   (W, (base | 2,))))
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
            return self.matrix_of_body(c.body).iterate(None)
        if isinstance(c, Loop):
            return self.matrix_of_body(c.body).iterate(self.index[c.counter])
        raise TypeError(f"unknown command {c!r}")

    def column_of(self, c: Assign | Call) -> tuple[int, dict[int, Polynomial]]:
        """The target index and new column (nonzero cells) of an assignment or call."""
        target = self.index[c.target]
        if isinstance(c, Assign):
            return target, self.vector_of(c.value)
        summary = self.summaries[c.function]
        row_targets = [self.index[a] for a in c.arguments]
        row_targets += [self.index[v] for v in summary.shared_rows]
        if not summary.behaviors:
            # A callee with no growth certificate cannot confer one: every
            # input floods the target with INF, unconditionally, even
            # with no input row to hold it.
            self.poisoned = True
            return target, dict.fromkeys(row_targets, INF_POLY)
        j = self.registry.fresh(len(summary.behaviors))
        self.choice_sites.setdefault(id(c), j)
        column = {}
        for r, flows in zip(row_targets, zip(*summary.behaviors)):
            cell = column.get(r, ZERO_POLY) + Polynomial.join(j, [Polynomial.const(f) for f in flows])
            if cell.monomials:
                column[r] = cell
        return target, column

    # -- results ---------------------------------------------------------

    def finish(self) -> FunctionAnalysis:
        start = time.perf_counter()
        matrix = self.matrix_of_body(self.decl.body)
        # The final matrix's INF monomials cover exactly the assignments
        # that hold an INF, so their graph answers every qualitative
        # question on its own.
        inf_cells = matrix.inf_cells()
        graph = DeltaGraph(self.registry, INF_POLY if self.poisoned else Polynomial.of(
            set().union(*inf_cells.values())))
        found, summary = self._build_summary(matrix, graph)
        if not graph.cover.monomials:
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

        The sweep carries the return column's cells for the
        parameters and shared inputs, so its behaviors come in order of
        their first clean assignment.
        """
        decl = self.decl
        if decl.returns is None:
            return graph.sweep(), None
        ret = self.index[decl.returns]
        rows = decl.params + tuple(v for v in self.variables
                                   if v not in decl.params and v != decl.returns)
        found = graph.sweep([matrix.cell(self.index[v], ret) for v in rows])
        return found, FunctionSummary(name=decl.name, param_count=len(decl.params), rows=rows,
                                      behaviors=found.behaviors)


def analyze_program(program: Program) -> ProgramAnalysis:
    """Analyze every function in declaration order, threading summaries.

    The result is a pure function of the AST: choice indices are
    allocated depth-first over each body, so repeated runs are
    identical.  Verdicts, clean counts, samples and summaries all come
    from one sweep of each function's delta graph; no assignment is
    ever scanned.  A matrix past the monomial budget raises
    BudgetExceeded, which names the function.
    """
    summaries: dict[str, FunctionSummary] = {}
    results: dict[str, FunctionAnalysis] = {}
    for decl in program.functions:
        try:
            analysis = _FunctionRun(decl, summaries).finish()
        except BudgetExceeded as e:
            e.function = decl.name
            raise
        if analysis.summary is not None:
            summaries[decl.name] = analysis.summary
        results[decl.name] = analysis
    return ProgramAnalysis(results)
