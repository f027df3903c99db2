"""Choice polynomials: functions from branch assignments to flow scalars.

A delta generator d(v, j) is worth m on assignments whose pick at choice
index j equals v, and 0 elsewhere.  A monomial is a scalar times a
product of deltas over distinct indices; it denotes a cylinder of the
assignment space carrying that scalar.  A polynomial is an ordered sum
(pointwise max) of monomials and represents one coefficient of an
analysis matrix.

Deltas are stored as (index, value) pairs so the natural tuple order is
the canonical one: deltas inside a monomial sort by index, monomials
compare lexicographically by their delta lists with shorter prefixes
first.  Sums, products and scaling collect their raw monomials and
hand them to Polynomial.of, the one place that sorts, merges duplicates
and drops subsumed monomials.

INF spreads.  Products use 0·∞ = ∞, so an INF monomial survives any
product verbatim, also with a zero factor.  In a matrix product every
INF monomial of row i of the left factor or of column c of the right
one therefore lands in cell (i, c).  A command matrix is the identity
outside the columns it writes, so a product is a column update
(ChoiceMatrix.update_columns), and the fold of a body calls it directly
for assignments and calls.  Each row's INF list is canonicalized once;
a cell of a unit column passes through when it already holds that
list, and any other cell filters its finite monomials against it and
merges the two sorted runs.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .delta_graph import DeltaGraph
from .semiring import INF, M, ZERO, FlowMatrix, mul_inf, value_char

Delta = tuple[int, int]  # (choice index, chosen value)

Assignment = tuple[int, ...]

_DELTAS = itemgetter(1)  # Monomial.deltas


def delta(value: int, index: int) -> Delta:
    """Build a delta in the conventional d(value, index) argument order."""
    return (index, value)


class Monomial(NamedTuple):
    scalar: int
    deltas: tuple[Delta, ...]

    def matches(self, assignment: Sequence[int]) -> bool:
        return all(assignment[i] == v for i, v in self.deltas)

    def render(self) -> str:
        parts = [value_char(self.scalar)]
        parts.extend(f"δ({v},{i})" for i, v in self.deltas)
        return ".".join(parts)


def mono_mul(a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two finite monomials; None when their deltas conflict.

    Deltas at the same index with different values select disjoint
    cylinders, so the product vanishes.
    """
    da, db = a.deltas, b.deltas
    if not da or not db:
        return Monomial(mul_inf(a.scalar, b.scalar), da or db)
    out: list[Delta] = []
    i = j = 0
    while i < len(da) and j < len(db):
        x, y = da[i], db[j]
        if x[0] == y[0]:
            if x[1] != y[1]:
                return None
            out.append(x)
            i += 1
            j += 1
        elif x[0] < y[0]:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(da[i:])
    out.extend(db[j:])
    return Monomial(mul_inf(a.scalar, b.scalar), tuple(out))


def _merge_duplicates(sorted_monos: Iterable[Monomial]) -> list[Monomial]:
    out: list[Monomial] = []
    for m in sorted_monos:
        if m.scalar == ZERO:
            continue
        if out and out[-1].deltas == m.deltas:
            if m.scalar > out[-1].scalar:
                out[-1] = m
        else:
            out.append(m)
    return out


def _subsume(monos: list[Monomial]) -> list[Monomial]:
    """Drop monomials whose delta list extends another's with <= scalar.

    The list is duplicate-free, so one dict maps each delta tuple to its
    scalar, and a monomial of the shortest length present can only be
    kept.  A longer monomial of L deltas looks up its proper sub-tuples
    there (only those of lengths the list holds) when 2**L is at most
    the list length, and otherwise scans the strictly shorter monomials
    for a dominating one.
    """
    n = len(monos)
    if n < 2:
        return monos
    best = {m.deltas: m.scalar for m in monos}
    by_size: dict[int, list[Monomial]] = {}
    for m in monos:
        by_size.setdefault(len(m.deltas), []).append(m)
    if len(by_size) == 1:
        return monos
    sizes = sorted(by_size)
    kept: list[Monomial] = []
    for m in monos:
        ds, s = m.deltas, m.scalar
        shorter = [r for r in sizes if r < len(ds)]
        if not shorter:
            dominated = False
        elif 1 << len(ds) <= n:
            dominated = any(
                best.get(sub, ZERO) >= s for r in shorter for sub in itertools.combinations(ds, r)
            )
        else:
            mine = set(ds)
            dominated = any(
                o.scalar >= s and mine.issuperset(o.deltas) for r in shorter for o in by_size[r]
            )
        if not dominated:
            kept.append(m)
    return kept


def _with_inf(p: "Polynomial", inf: "Polynomial") -> "Polynomial":
    """Polynomial.of(p ∪ inf) for a canonical p and a canonical INF-only
    inf that covers p's own INF monomials.

    A finite monomial never subsumes an INF one and inf is an antichain,
    so inf is kept whole; p's finite part is subsumption-free and loses
    exactly the monomials whose delta list holds one of inf's.  The two
    sorted runs then merge, as one sort.
    """
    if tuple(m for m in p.monomials if m.scalar == INF) == inf.monomials:
        return p
    fin = [m for m in p.monomials if m.scalar != INF]
    if not fin or not inf.monomials[0].deltas:
        return inf
    # A delta list inside f's starts with one of f's deltas.
    covers: dict[Delta, list[tuple[Delta, ...]]] = {}
    for m in inf.monomials:
        covers.setdefault(m.deltas[0], []).append(m.deltas)
    keep = []
    for f in fin:
        mine = set(f.deltas)
        if not any(mine.issuperset(c) for d in f.deltas for c in covers.get(d, ())):
            keep.append(f)
    if not keep:
        return inf
    return Polynomial(tuple(sorted(keep + list(inf.monomials), key=_DELTAS)))


class Polynomial:
    """Canonical ordered sum of monomials, evaluated as pointwise max."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: tuple[Monomial, ...] = ()):
        self.monomials = monomials

    @classmethod
    def of(cls, monomials: Iterable[Monomial]) -> "Polynomial":
        ms = sorted(monomials, key=_DELTAS)
        return cls(tuple(_subsume(_merge_duplicates(ms))))

    @classmethod
    def const(cls, scalar: int) -> "Polynomial":
        if scalar == ZERO:
            return ZERO_POLY
        return cls((Monomial(scalar, ()),))

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(self.monomials)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not self.monomials:
            return other
        if not other.monomials or self.monomials == other.monomials:
            return self  # max is idempotent
        return Polynomial.of(self.monomials + other.monomials)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Pointwise product.

        Finite monomials multiply pairwise.  INF monomials bypass the
        pairwise step: an INF cylinder absorbs whatever the other factor
        holds there, 0 included, so it survives verbatim.
        """
        out: list[Monomial] = []
        fin_p: list[Monomial] = []
        for m in self.monomials:
            (out if m.scalar == INF else fin_p).append(m)
        for q in other.monomials:
            if q.scalar == INF:
                out.append(q)
            else:
                out.extend(r for p in fin_p if (r := mono_mul(p, q)) is not None)
        return Polynomial.of(out)

    def scale(self, scalar: int) -> "Polynomial":
        if scalar == ZERO or not self.monomials:
            return ZERO_POLY
        return Polynomial.of(
            Monomial(mul_inf(scalar, m.scalar), m.deltas) for m in self.monomials
        )

    def attach(self, index: int, value: int) -> "Polynomial":
        """Multiply by the single delta d(value, index).

        Only valid when index is fresh (larger than any index already
        used), which keeps each delta list sorted by plain appending.
        A delta list that is a proper prefix of another sorts before it,
        but not once both gain d, so the monomials are sorted again.
        Subsumption is unchanged.
        """
        if not self.monomials:
            return self
        d = (index, value)
        monos = sorted(
            (Monomial(m.scalar, m.deltas + (d,)) for m in self.monomials),
            key=lambda m: m.deltas,
        )
        return Polynomial(tuple(monos))

    def evaluate(self, assignment: Sequence[int]) -> int:
        best = ZERO
        try:
            for m in self.monomials:
                if m.scalar > best and m.matches(assignment):
                    best = m.scalar
                    if best == INF:
                        break
        except IndexError:
            raise ValueError("assignment does not cover every choice index") from None
        return best

    def has_inf(self) -> bool:
        return any(m.scalar == INF for m in self.monomials)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        return "+".join(m.render() for m in self.monomials)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


ZERO_POLY = Polynomial(())
UNIT_POLY = Polynomial((Monomial(M, ()),))
INF_POLY = Polynomial((Monomial(INF, ()),))


class ChoiceRegistry:
    """Ordered choice-point domains: index -> cardinality of its branch set.

    Expression branching registers domains of size 3; a call registers
    one domain per known callee behavior.  Grows during an analysis run;
    cardinalities of existing indices never change.
    """

    def __init__(self, cardinalities: Iterable[int] = ()):
        self._cards = list(cardinalities)
        if any(c < 1 for c in self._cards):
            raise ValueError("every choice domain needs cardinality >= 1")

    def fresh(self, cardinality: int) -> int:
        if cardinality < 1:
            raise ValueError("every choice domain needs cardinality >= 1")
        self._cards.append(cardinality)
        return len(self._cards) - 1

    def cardinality(self, index: int) -> int:
        return self._cards[index]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(self._cards)

    def __len__(self) -> int:
        return len(self._cards)

    def count_assignments(self) -> int:
        n = 1
        for c in self._cards:
            n *= c
        return n

    def assignments(self) -> Iterator[Assignment]:
        return itertools.product(*(range(c) for c in self._cards))

    def validate(self, assignment: Sequence[int]) -> None:
        if len(assignment) != len(self._cards):
            raise ValueError(
                f"assignment length {len(assignment)} != {len(self._cards)} choice points"
            )
        for j, (v, c) in enumerate(zip(assignment, self._cards)):
            if not 0 <= v < c:
                raise ValueError(f"pick {v} out of range for choice {j} (domain {c})")


def _split(
    polys: Iterable[Polynomial],
) -> tuple[dict[int, list[Monomial]], Polynomial]:
    """A column as its finite monomials by index, and its INF ones.

    The INF monomials come back as one canonical Polynomial, so a list
    that repeats across the cells of a column is merged once.
    """
    fin: dict[int, list[Monomial]] = {}
    inf: set[Monomial] = set()
    for k, poly in enumerate(polys):
        for m in poly.monomials:
            if m.scalar == INF:
                inf.add(m)
            else:
                fin.setdefault(k, []).append(m)
    return fin, Polynomial.of(inf) if inf else ZERO_POLY


class ChoiceMatrix:
    """Square matrix of choice polynomials with a named variable order."""

    __slots__ = ("variables", "entries", "registry")

    def __init__(
        self,
        variables: Sequence[str],
        entries: Iterable[Iterable[Polynomial]],
        registry: ChoiceRegistry,
    ):
        self.variables = tuple(variables)
        self.entries = tuple(tuple(row) for row in entries)
        self.registry = registry
        n = len(self.variables)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("matrix shape must match the variable list")

    @classmethod
    def identity(cls, variables: Sequence[str], registry: ChoiceRegistry) -> "ChoiceMatrix":
        n = len(variables)
        return cls(
            variables,
            [[UNIT_POLY if i == j else ZERO_POLY for j in range(n)] for i in range(n)],
            registry,
        )

    @property
    def dim(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name}") from None

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i][j]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChoiceMatrix)
            and self.variables == other.variables
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.entries))

    def _check_compatible(self, other: "ChoiceMatrix") -> None:
        if self.variables != other.variables:
            raise ValueError("variable orders differ")
        if self.registry is not other.registry:
            raise ValueError("matrices belong to different analyses")

    def __add__(self, other: "ChoiceMatrix") -> "ChoiceMatrix":
        self._check_compatible(other)
        return ChoiceMatrix(
            self.variables,
            (tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.registry,
        )

    def __mul__(self, other: "ChoiceMatrix") -> "ChoiceMatrix":
        """Matrix product: the columns of other that are not unit vectors
        update self, the others pass through (see update_columns)."""
        self._check_compatible(other)
        return self.update_columns({
            c: col for c, col in enumerate(zip(*other.entries))
            if col[c] != UNIT_POLY or col.count(ZERO_POLY) != len(col) - 1
        })

    def update_columns(self, columns: Mapping[int, Sequence[Polynomial]]) -> "ChoiceMatrix":
        """self times the matrix that is the identity outside the keys of
        columns, whose column c is columns[c].

        INF spreads: as 0·∞ = ∞, every INF monomial of row i of self
        reaches every cell of row i, and every INF monomial of a written
        column c reaches every cell of column c.  So a cell of a written
        column is the canonical finite products over shared indices,
        merged with the row's and column's canonical INF lists, which
        equals the sum over k of Polynomial products as
        of(of(X) ∪ Y) == of(X ∪ Y).  A unit column multiplies nothing:
        cell (i, c) keeps self's cell, merged with row i's INF list, and
        passes through as it is when it already holds that list.
        """
        cols = {c: _split(col) for c, col in columns.items()}
        out = []
        for row in self.entries:
            inf = {m for p in row if p.monomials for m in p.monomials if m.scalar == INF}
            row_inf = Polynomial.of(inf) if inf else ZERO_POLY
            new_row = list(row)
            if inf:
                for c, p in enumerate(row):
                    if c not in cols:
                        new_row[c] = _with_inf(p, row_inf)
            for c, (col_fin, col_inf) in cols.items():
                monos = [
                    r
                    for k, qs in col_fin.items()
                    for p in row[k].monomials if p.scalar != INF
                    for q in qs if (r := mono_mul(p, q)) is not None
                ]
                both = row_inf + col_inf
                new_row[c] = _with_inf(Polynomial.of(monos), both) if monos else both
            out.append(tuple(new_row))
        return ChoiceMatrix(self.variables, out, self.registry)

    def closure(self) -> "ChoiceMatrix":
        """Least fixpoint of s = 1 + s·M, reached as s·(1+M) per round.

        s·(1+M) has the same canonical cells as s + s·M: the product
        distributes over the sum, and a monomial that Polynomial.of drops
        stays dominated once multiplied.  So each round takes one product
        and no matrix sum, and the rounds are the same.  1 + M differs
        from M on the diagonal only.
        """
        step = ChoiceMatrix(
            self.variables,
            (r[:i] + (UNIT_POLY + r[i],) + r[i + 1:] for i, r in enumerate(self.entries)),
            self.registry,
        )
        s = step
        while (nxt := s * step) != s:
            s = nxt
        return s

    def replace_column(self, j: int, column: Sequence[Polynomial]) -> "ChoiceMatrix":
        if len(column) != self.dim:
            raise ValueError("column length mismatch")
        return ChoiceMatrix(
            self.variables,
            (r[:j] + (column[i],) + r[j + 1:] for i, r in enumerate(self.entries)),
            self.registry,
        )

    def evaluate(self, assignment: Sequence[int]) -> FlowMatrix:
        """Collapse to a plain flow matrix by fixing every branch pick."""
        self.registry.validate(assignment)
        return FlowMatrix(
            tuple(p.evaluate(assignment) for p in row) for row in self.entries
        )

    def expand(self) -> dict[Assignment, FlowMatrix]:
        """The full assignment -> flow-matrix view of this matrix."""
        return {a: self.evaluate(a) for a in self.registry.assignments()}

    @classmethod
    def from_tables(
        cls,
        variables: Sequence[str],
        registry: ChoiceRegistry,
        table: Mapping[Assignment, FlowMatrix],
    ) -> "ChoiceMatrix":
        """Inverse of expand: rebuild entry polynomials from a full table.

        Each nonzero scalar of an entry gets one delta graph holding the
        assignments that carry it; fan fusion merges complete fans back
        into shorter cylinders, so constant behavior collapses to a
        delta-free monomial.  The scalars partition the table, so the
        fused cylinders of different scalars never overlap.
        """
        n = len(variables)
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                graphs: dict[int, DeltaGraph] = {}
                for a, mat in table.items():
                    v = mat.entry(i, j)
                    if v != ZERO:
                        if v not in graphs:
                            graphs[v] = DeltaGraph(registry)
                        graphs[v].insert(enumerate(a))
                for g in graphs.values():
                    g.fuse()
                row.append(Polynomial.of(
                    Monomial(v, ds) for v, g in graphs.items() for ds in g.vertices()
                ))
            entries.append(tuple(row))
        return cls(variables, entries, registry)

    def inf_cells(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.dim)
            for j in range(self.dim)
            if self.entries[i][j].has_inf()
        ]
