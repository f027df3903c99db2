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
first.  Sums, products, scaling and restriction collect their raw
monomials and hand them to Polynomial.of, the one place that drops
subsumed monomials, except where none can drop: the branches of a fresh
index (join) and a closure cell that gains no product.

INF spreads.  Products use 0·∞ = ∞, so an INF monomial survives any
product verbatim, also with a zero factor.  In a matrix product every
INF monomial of row i of the left factor or of column c of the right
one therefore lands in cell (i, c).  A ChoiceMatrix is stored as the
identity plus the columns that commands wrote, so a product is an
update of the right factor's stored columns
(ChoiceMatrix.update_columns), and the fold of a body calls it directly
for assignments and calls.  Each row keeps its canonical INF lists
beside its cells, carried from update to update without a scan; the
cells take them, through Polynomial.of, only when entries are read.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


_NONE = Monomial(ZERO, ())  # what Polynomial.of reads for an absent delta list


def mono_mul(a: Monomial, b: Monomial) -> Monomial | None:
    """Product of two finite monomials; None when their deltas conflict.

    Deltas at the same index with different values select disjoint
    cylinders, so the product vanishes.
    """
    da, db = a.deltas, b.deltas
    if not da or not db:
        return Monomial(mul_inf(a.scalar, b.scalar), da or db)
    if da[-1][0] < db[0][0]:  # the fold's usual case: b's indices are newer
        return Monomial(mul_inf(a.scalar, b.scalar), da + db)
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


class Polynomial:
    """Canonical ordered sum of monomials, evaluated as pointwise max."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: tuple[Monomial, ...] = ()):
        self.monomials = monomials

    @classmethod
    def of(cls, monomials: Iterable[Monomial]) -> "Polynomial":
        """The canonical sum: the best scalar for each delta list, sorted,
        less every monomial whose list extends a strictly shorter one's
        with a scalar no larger.  Lengths are checked from the shortest
        up.  A list of L deltas looks up its shorter sub-lists when 2**L
        is at most the number of lists, and otherwise scans the shorter
        monomials kept so far (a dropped one's dominator dominates more).
        """
        best: dict[tuple[Delta, ...], Monomial] = {}
        get = best.get
        for m in monomials:
            s, ds = m
            if s > get(ds, _NONE)[0]:
                best[ds] = m
        if len(best) < 2:
            return cls(tuple(best.values()))
        keys = sorted(best)
        if len(set(map(len, keys))) < 2:
            return cls(tuple(map(best.__getitem__, keys)))
        kept: dict[int, list[tuple[Delta, ...]]] = {s: [] for s in range(M, INF + 1)}
        shorter: list[int] = []
        for size, group in itertools.groupby(sorted(keys, key=len), len):
            for ds in group:  # a list of the same length is never a sub-list
                s = best[ds].scalar
                if 1 << size <= len(keys):
                    dominated = any(get(sub, _NONE).scalar >= s for r in shorter
                                    for sub in itertools.combinations(ds, r))
                else:
                    within = set(ds).issuperset
                    dominated = any(any(map(within, kept[t])) for t in kept if t >= s)
                if not dominated:
                    kept[s].append(ds)
            shorter.append(size)
        survivors = set().union(*kept.values())
        return cls(tuple(best[ds] for ds in keys if ds in survivors))

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

    @staticmethod
    def join(index: int, branches: Sequence["Polynomial"]) -> "Polynomial":
        """The sum over v of branches[v] times d(v, index), for an index
        larger than any the branches hold (the caller's to ensure; it is
        not checked), so appending keeps delta lists sorted.  No monomial
        can dominate one of another branch, whose delta at index differs,
        so the union needs only one sort: a proper prefix sorts first,
        but not once both lists gain their delta."""
        return Polynomial(tuple(sorted(
            (Monomial(m.scalar, m.deltas + ((index, v),))
             for v, p in enumerate(branches) for m in p.monomials),
            key=_DELTAS,
        )))

    def restrict(self, index: int, pick: int) -> "Polynomial":
        """The cofactor at d(pick, index), for an index no lower than any
        this polynomial holds: only a delta list's first delta can be at
        index, so it is struck when it matches the pick, and the monomial
        drops out when it does not.  self when no list holds index, and
        INF_POLY once an INF monomial loses its last delta."""
        out = []
        hit = False
        for m in self.monomials:
            s, ds = m
            if ds and ds[0][0] == index:
                hit = True
                if ds[0][1] != pick:
                    continue
                if s == INF and len(ds) == 1:
                    return INF_POLY
                m = Monomial(s, ds[1:])
            out.append(m)
        return Polynomial.of(out) if hit else self

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
    """Cells as their finite monomials by position, and their INF ones.

    The INF monomials come back as one canonical Polynomial, so a list
    that repeats across the cells of a column or row is merged once.
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


def _written(col: Sequence[Polynomial]) -> tuple[dict[int, list[Monomial]], Polynomial]:
    """A written column as _split gives it, less the finite monomials
    that its INF list covers: their products would be covered too, and
    Polynomial.of would drop them."""
    fin, inf = _split(col)
    if inf.monomials:
        lists = [m.deltas for m in inf.monomials]
        fin = {k: kept for k, qs in fin.items()
               if (kept := [q for q in qs if not any(map(set(q.deltas).issuperset, lists))])}
    return fin, inf


def _multiply(acc: dict[int, list[Monomial]], rows, qs: list[Monomial]) -> None:
    """Add to acc[i] the products of the finite monomials of row i, for
    each (i, monomials) of rows, with qs."""
    for i, monos in rows:
        acc.setdefault(i, []).extend(
            r for a in monos if a.scalar != INF for q in qs if (r := mono_mul(a, q)) is not None)


def _unit(n: int, c: int) -> tuple[Polynomial, ...]:
    """The unit vector e_c of length n."""
    return (ZERO_POLY,) * c + (UNIT_POLY,) + (ZERO_POLY,) * (n - c - 1)


class ChoiceMatrix:
    """Square matrix of choice polynomials with a named variable order.

    A matrix is stored as the identity plus the columns that differ from
    it.  columns maps a column index to its stored cells; every other
    column is the unit vector.  Each row also keeps two canonical INF
    lists: row_inf[i], which every cell of row i holds as well, and
    pending[i], the INF that row i's stored cells hold, which the next
    product spreads over the whole row.  entries is the row view, with
    each row's list merged into its cells.
    """

    __slots__ = ("variables", "registry", "columns", "row_inf", "pending", "_entries")

    def __init__(
        self,
        variables: Sequence[str],
        rows: Iterable[Iterable[Polynomial]],
        registry: ChoiceRegistry,
    ):
        """The matrix with these cells: its non-unit columns are stored,
        and each row's INF is pending."""
        rows = tuple(tuple(row) for row in rows)
        n = len(variables)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape must match the variable list")
        self.variables, self.registry, self._entries = tuple(variables), registry, None
        self.columns = {c: col for c, col in enumerate(zip(*rows)) if col != _unit(n, c)}
        self.row_inf, self.pending = (ZERO_POLY,) * n, tuple(_split(row)[1] for row in rows)

    @classmethod
    def _stored(cls, variables, registry, columns, row_inf, pending) -> "ChoiceMatrix":
        """The matrix with this stored form (see the class docstring)."""
        m = cls.__new__(cls)
        m.variables, m.registry, m._entries = variables, registry, None
        m.columns, m.row_inf, m.pending = columns, row_inf, pending
        return m

    @classmethod
    def identity(cls, variables: Sequence[str], registry: ChoiceRegistry) -> "ChoiceMatrix":
        empty = (ZERO_POLY,) * len(variables)
        return cls._stored(tuple(variables), registry, {}, empty, empty)

    @property
    def dim(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name}") from None

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The cells, computed on first read: a stored cell or a unit
        vector's, merged with its row's INF list.  A row whose list is
        empty reads as stored."""
        if self._entries is None:
            n = self.dim
            rows = zip(*(self.columns.get(c) or _unit(n, c) for c in range(n)))
            self._entries = tuple(
                tuple(p + inf for p in row) if inf.monomials else row
                for row, inf in zip(rows, self.row_inf)
            )
        return self._entries

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
        """Cellwise sum of the stored columns of either side, a missing
        one read as the unit vector, and row by row of the INF lists."""
        self._check_compatible(other)
        n = self.dim
        columns = {c: tuple(map(Polynomial.__add__, self.columns.get(c) or _unit(n, c),
                                other.columns.get(c) or _unit(n, c)))
                   for c in self.columns.keys() | other.columns.keys()}
        return ChoiceMatrix._stored(
            self.variables, self.registry, columns,
            tuple(map(Polynomial.__add__, self.row_inf, other.row_inf)),
            tuple(map(Polynomial.__add__, self.pending, other.pending)),
        )

    def __mul__(self, other: "ChoiceMatrix") -> "ChoiceMatrix":
        """Matrix product: other's stored columns update self (see
        update_columns), and other's row lists, which reach every column
        of other, reach every cell."""
        self._check_compatible(other)
        out = self.update_columns(other.columns)
        spread = sum(other.row_inf, ZERO_POLY)
        out.row_inf = tuple(r + spread for r in out.row_inf)
        return out

    def update_columns(self, columns: Mapping[int, Sequence[Polynomial]]) -> "ChoiceMatrix":
        """self times the matrix that is the identity outside the keys of
        columns, whose column c is columns[c].

        INF spreads: as 0·∞ = ∞, the INF of row i of self reaches every
        cell of row i, so row i's pending list joins its row list, and the
        INF of a written column reaches every cell of the column, so the
        union of those lists is every row's new pending list.  A written
        column c stores the canonical finite products: for each k in the
        support of columns[c], a stored column k times columns[c][k], or
        for a unit column k, columns[c][k] in row k.  Only the columns
        dict is copied; the other columns are shared.

        Waiting is exact.  A finite monomial that its row's list covers
        stays covered in every later product: a product's delta list
        holds its factor's, and the list only grows.  It can only
        dominate monomials that are covered too.  So the products may
        read the stored cells, and as of(of(X) ∪ Y) == of(X ∪ Y), the
        merged cells equal the sums over k of Polynomial products.
        A written column's monomials that its INF list covers are dropped
        before they are multiplied (see _written).
        """
        return self._update({c: _written(col) for c, col in columns.items()})

    def _update(self, written: Mapping[int, tuple[dict, Polynomial]]) -> "ChoiceMatrix":
        """update_columns with each written column split by _written."""
        n = self.dim
        stored = dict(self.columns)
        spread = ZERO_POLY
        for c, (col_fin, col_inf) in written.items():
            acc: dict[int, list[Monomial]] = {}
            for k, qs in col_fin.items():
                src = self.columns.get(k)
                if src is None:
                    acc.setdefault(k, []).extend(qs)
                else:
                    _multiply(acc, ((i, p.monomials) for i, p in enumerate(src) if p.monomials),
                              qs)
            cells = [col_inf] * n
            for i, monos in acc.items():
                cells[i] = Polynomial.of(monos + list(col_inf.monomials))
            stored[c] = tuple(cells)
            spread = spread + col_inf
        return ChoiceMatrix._stored(
            self.variables, self.registry, stored,
            tuple(r + p for r, p in zip(self.row_inf, self.pending)),
            (spread,) * n,
        )

    def closure(self) -> "ChoiceMatrix":
        """Least fixpoint of s = 1 + s·M, reached as s·(1+M) per round.

        s·(1+M) has the same canonical cells as s + s·M: the product
        distributes over the sum, and a monomial that Polynomial.of drops
        stays dominated once multiplied.  1 + M differs from M on the
        diagonals of the stored columns only.

        The rounds are semi-naive.  After the first product, a round adds
        to each cell only the products of the finite monomials that the
        last round added: older ones gave theirs then, and as 1 + M holds
        a constant on each stored diagonal, s's own monomials are
        dominated by their products.  The row lists grow as in s·(1+M),
        and the rounds stop when one adds nothing and leaves them as
        they are, so no entries are merged.
        """
        step = ChoiceMatrix._stored(
            self.variables, self.registry,
            {c: col[:c] + (UNIT_POLY + col[c],) + col[c + 1:] for c, col in self.columns.items()},
            self.row_inf, self.pending,
        )
        written = {c: _written(col) for c, col in step.columns.items()}
        spread = sum(step.row_inf, ZERO_POLY)
        # step * step from the split columns; the rounds spread the row lists.
        prev, s = step, step._update(written)
        while True:
            added: dict[int, list[tuple[int, set[Monomial]]]] = {}
            for k, col in s.columns.items():
                for i, (p, q) in enumerate(zip(col, prev.columns[k])):
                    if p is not q and (new := {m for m in p.monomials if m.scalar != INF}
                                       - set(q.monomials)):
                        added.setdefault(k, []).append((i, new))
            row_inf = tuple(r + p + spread for r, p in zip(s.row_inf, s.pending))
            if not added and row_inf == s.row_inf:
                return s
            columns = dict(s.columns)
            for c, (fin, _) in written.items():
                acc: dict[int, list[Monomial]] = {}
                for k, qs in fin.items():
                    if k in added:
                        _multiply(acc, added[k], qs)
                if acc:
                    cells = list(columns[c])
                    for i, monos in acc.items():
                        cells[i] = Polynomial.of((*cells[i].monomials, *monos))
                    columns[c] = tuple(cells)
            prev, s = s, ChoiceMatrix._stored(
                self.variables, self.registry, columns, row_inf, s.pending)

    def replace_column(self, j: int, column: Sequence[Polynomial]) -> "ChoiceMatrix":
        """self with column j stored as column; each row adds the INF of
        its new cell to its pending list.

        Row lists still reach the new cells, and the old column's pending
        INF stays, so this is the plain replacement when column keeps the
        INF monomials of the entries it replaces: a unit column of the
        identity holds none, and the iteration rule only adds monomials.
        """
        if len(column) != self.dim:
            raise ValueError("column length mismatch")
        column = tuple(column)
        return ChoiceMatrix._stored(
            self.variables, self.registry, {**self.columns, j: column}, self.row_inf,
            tuple(p + _split((q,))[1] for p, q in zip(self.pending, column)),
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

        Each nonzero scalar of an entry gets one delta graph, whose cover
        holds the assignments that carry it; fan fusion merges complete
        fans back into shorter cylinders, so constant behavior collapses
        to a delta-free monomial.  The scalars partition the table, so
        the fused cylinders of different scalars never overlap.
        """
        from .delta_graph import DeltaGraph

        n = len(variables)
        entries = []
        for i in range(n):
            row = []
            for j in range(n):
                cylinders: dict[int, list[Monomial]] = {}
                for a, mat in table.items():
                    v = mat.entry(i, j)
                    if v != ZERO:
                        cylinders.setdefault(v, []).append(Monomial(INF, tuple(enumerate(a))))
                graphs = {v: DeltaGraph(registry, Polynomial.of(ms)) for v, ms in cylinders.items()}
                for g in graphs.values():
                    g.fuse()
                row.append(Polynomial.of(
                    Monomial(v, m.deltas) for v, g in graphs.items() for m in g.cover.monomials
                ))
            entries.append(tuple(row))
        return cls(variables, entries, registry)
