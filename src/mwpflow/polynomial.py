"""Choice polynomials: functions from branch assignments to flow scalars.

A delta generator d(v, j) is worth m on assignments whose pick at choice
index j equals v, and 0 elsewhere.  A monomial is a scalar times a
product of deltas over distinct indices; it denotes a cylinder of the
assignment space carrying that scalar, and it is a plain (scalar,
deltas) tuple.  A polynomial is an ordered sum (pointwise max) of
monomials and represents one coefficient of an analysis matrix.
Polynomial.of keeps no ZERO scalar, so the finite scalars of a
canonical polynomial lie in m..p, where the product is the max: the
product of two finite monomials (_multiply) takes the larger scalar.

A delta is one int, index << SHIFT | value, read back as d >> SHIFT
and d & MASK.  ChoiceRegistry keeps every pick below 1 << SHIFT, so
int order is (index, value) order and the natural tuple order is the
canonical one: deltas inside a monomial sort by index, monomials
compare lexicographically by their delta lists with shorter prefixes
first.  Sums, products, scaling and restriction collect their raw
monomials and hand them to Polynomial.of, the one place that drops
subsumed monomials, except where none can drop (join, over a fresh
index, and a sum site over delta-free cells) and where an INF list
drops the finite monomials it covers (covered_by).

INF spreads.  Products use 0·∞ = ∞, so an INF monomial survives any
product verbatim, also with a zero factor.  In a matrix product every
INF monomial of row i of the left factor or of column c of the right
one therefore lands in cell (i, c).  A ChoiceMatrix is stored as the
identity plus the columns that commands wrote, each as its nonzero
cells by row, so a product is an update of the right factor's stored
columns (ChoiceMatrix.update_columns), and the fold of a body calls it
directly for assignments and calls: a command reads the cells it
touches, not every variable's.  A row keeps its canonical INF lists
beside its cells, in maps that hold only the rows with a list, carried
from update to update without a scan.  The closure of a loop body goes
furthest: an INF monomial anywhere in M reaches every cell of M³, so the
star's INF forms one list, which every row holds and no stored cell
repeats (ChoiceMatrix.closure).  The loop and while rules, and the
analysis (inf_cells, cell), read that stored form; the cells take their
rows' lists, through row_merger, only when entries are read.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .semiring import INF, M, P, W, ZERO, FlowMatrix, mul_inf, value_char

SHIFT = 16  # bits of a delta's pick field
MASK = (1 << SHIFT) - 1

Delta = int  # choice index << SHIFT | chosen value

Monomial = tuple[int, tuple[Delta, ...]]  # (scalar, deltas)

Assignment = tuple[int, ...]

_DELTAS = itemgetter(1)

_NONE = (ZERO, ())  # what Polynomial.of reads for an absent delta list

BUDGET = 1_000_000  # monomials in the stored columns of one ChoiceMatrix


class BudgetExceeded(Exception):
    """Raised with the count when a matrix's stored columns hold more
    than BUDGET monomials; analyze_program names the function it folds."""

    function = "?"

    def __str__(self) -> str:
        return (f"function {self.function}: monomial budget exceeded: "
                f"{self.args[0]} monomials in one matrix > {BUDGET}")


def delta(value: int, index: int) -> Delta:
    """Build a delta in the conventional d(value, index) argument order."""
    if not 0 <= value <= MASK or index < 0:  # a larger pick would spill into the index
        raise ValueError(f"delta ({value},{index}) does not fit the encoding")
    return index << SHIFT | value


def monomial_text(m: Monomial) -> str:
    """The monomial as text reports print it, e.g. p.δ(0,1).δ(1,2)."""
    return ".".join([value_char(m[0]), *[f"δ({d & MASK},{d >> SHIFT})" for d in m[1]]])


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
        up.  A monomial whose scalar beats every one kept so far is kept
        at once.  Otherwise a list of L deltas looks up its shorter
        sub-lists when 2**L is at most the number of lists, and else
        scans the shorter monomials kept so far.  A dropped list leaves
        best at once: its dominator dominates whatever it would.
        """
        best: dict[tuple[Delta, ...], Monomial] = {}
        get = best.get
        for m in monomials:
            s, ds = m
            if s > get(ds, _NONE)[0]:
                best[ds] = m
        if len(best) < 2:
            return cls(tuple(best.values()))
        by_size: dict[int, list[tuple[Delta, ...]]] = {}
        for ds in best:
            by_size.setdefault(len(ds), []).append(ds)
        if len(by_size) > 1:
            n = len(best)
            kept: dict[int, list[tuple[Delta, ...]]] = {s: [] for s in range(M, INF + 1)}
            top = ZERO
            shorter: list[int] = []
            for size in sorted(by_size):
                for ds in by_size[size]:  # a list of the same length is never a sub-list
                    s = best[ds][0]
                    if s > top:  # nothing kept so far can dominate it
                        top = s
                    elif (_dominated(ds, shorter, get, s) if 1 << size <= n else
                          any(any(map(set(ds).issuperset, kept[t])) for t in kept if t >= s)):
                        del best[ds]
                        continue
                    kept[s].append(ds)
                shorter.append(size)
        return cls(tuple(sorted(best.values(), key=_DELTAS)))

    @classmethod
    def const(cls, scalar: int) -> "Polynomial":
        if scalar == ZERO:
            return ZERO_POLY
        return cls(((scalar, ()),))

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

        Finite monomials multiply pairwise (_multiply).  INF monomials
        bypass the pairwise step: an INF cylinder absorbs whatever the
        other factor holds there, 0 included, so it survives verbatim.
        """
        out = [m for m in self.monomials if m[0] == INF]
        fin_q: list[Monomial] = []
        for q in other.monomials:
            (out if q[0] == INF else fin_q).append(q)
        acc: dict[int, list[Monomial]] = {}
        _multiply(acc, ((0, self.monomials),), fin_q)
        return Polynomial.of(out + acc[0])

    def scale(self, scalar: int) -> "Polynomial":
        if scalar == ZERO or not self.monomials:
            return ZERO_POLY
        return Polynomial.of((mul_inf(scalar, s), ds) for s, ds in self.monomials)

    @staticmethod
    def join(index: int, branches: Sequence["Polynomial"]) -> "Polynomial":
        """The sum over v of branches[v] times d(v, index), for an index
        larger than any the branches hold (the caller's to ensure; it is
        not checked), so appending keeps delta lists sorted.  No monomial
        can dominate one of another branch, whose delta at index differs,
        so the union needs only one sort: a proper prefix sorts first,
        but not once both lists gain their delta."""
        base = index << SHIFT
        return Polynomial(tuple(sorted(
            ((s, ds + (base | v,)) for v, p in enumerate(branches) for s, ds in p.monomials),
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
        picked = index << SHIFT | pick
        for m in self.monomials:
            s, ds = m
            if ds and ds[0] >> SHIFT == index:
                hit = True
                if ds[0] != picked:
                    continue
                if s == INF and len(ds) == 1:
                    return INF_POLY
                m = (s, ds[1:])
            out.append(m)
        return Polynomial.of(out) if hit else self

    def evaluate(self, assignment: Sequence[int]) -> int:
        best = ZERO
        try:
            for s, ds in self.monomials:
                if s > best and all(assignment[d >> SHIFT] == d & MASK for d in ds):
                    best = s
                    if best == INF:
                        break
        except IndexError:
            raise ValueError("assignment does not cover every choice index") from None
        return best

    def __str__(self) -> str:
        return "+".join(map(monomial_text, self.monomials)) or "0"

    def __repr__(self) -> str:
        return f"Polynomial({self})"


ZERO_POLY = Polynomial(())
UNIT_POLY = Polynomial(((M, ()),))
INF_POLY = Polynomial(((INF, ()),))


class ChoiceRegistry:
    """Ordered choice-point domains: index -> cardinality of its branch set.

    Expression branching registers domains of size 3; a call registers
    one domain per known callee behavior.  Grows during an analysis run;
    cardinalities of existing indices never change.
    """

    def __init__(self, cardinalities: Iterable[int] = ()):
        self._cards: list[int] = []
        for c in cardinalities:
            self.fresh(c)

    def fresh(self, cardinality: int) -> int:
        if not 1 <= cardinality <= 1 << SHIFT:  # every pick must fit a delta's field
            raise ValueError(f"every choice domain needs cardinality 1 to {1 << SHIFT}")
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
        return math.prod(self._cards)

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


def _dominated(ds: tuple[Delta, ...], sizes: Iterable[int], get, s: int) -> bool:
    """Whether a sub-list of ds of one of these sizes has get(sub)[0] >= s."""
    for r in sizes:
        for sub in itertools.combinations(ds, r):
            if get(sub, _NONE)[0] >= s:
                return True
    return False


def covered_by(inf: Polynomial) -> Callable[[tuple[Delta, ...]], bool]:
    """The test whether a delta list holds one of the lists of inf, a
    canonical polynomial of INF monomials, its own included: a finite
    monomial with such a list is covered, and so are its products.  A
    list of L deltas looks up its sub-lists when 2**L is at most the
    number of inf's lists, and else scans them."""
    lists = {m[1]: m for m in inf.monomials}
    sizes, get, n = sorted(set(map(len, lists))), lists.get, len(lists)

    def covered(ds: tuple[Delta, ...]) -> bool:
        if 1 << len(ds) <= n:
            return _dominated(ds, sizes, get, INF)
        return any(map(set(ds).issuperset, lists))
    return covered


def row_merger(inf: Polynomial) -> Callable[[Polynomial], Polynomial]:
    """cell -> cell + inf for the cells of a row whose canonical INF list
    is inf, with one cover test for the row.  A cell whose INF monomials
    are all inf's keeps its finite ones that inf does not cover (its own
    INF cover none), sorted in once with inf, which stays whole: no
    finite monomial drops an INF one.  Any other cell takes cell + inf."""
    covered, own = covered_by(inf), set(inf.monomials)

    def merge(p: Polynomial) -> Polynomial:
        if not p.monomials:
            return inf
        fin = []
        for m in p.monomials:
            if m[0] != INF:
                if not covered(m[1]):
                    fin.append(m)
            elif m not in own:
                return p + inf
        return Polynomial(tuple(sorted((*fin, *inf.monomials), key=_DELTAS))) if fin else inf
    return merge


Column = Mapping[int, Polynomial]  # a column's nonzero cells by row


def _written(cells: Column) -> tuple[dict[int, Polynomial], Polynomial]:
    """A column's nonzero cells less their INF monomials, and those as
    one canonical Polynomial, so a list that repeats across the cells is
    merged once.  The finite monomials that the INF list covers are
    dropped: their products would be covered too, and Polynomial.of
    would drop them.  What is left of a canonical cell is canonical."""
    fin: dict[int, Polynomial] = {}
    inf: set[Monomial] = set()
    for k, p in cells.items():
        kept = [m for m in p.monomials if m[0] != INF]
        if len(kept) < len(p.monomials):
            inf.update(m for m in p.monomials if m[0] == INF)
            p = Polynomial(tuple(kept))
        if kept:
            fin[k] = p
    if not inf:
        return fin, ZERO_POLY
    inf_poly = Polynomial.of(inf)
    covered = covered_by(inf_poly)
    return {k: Polynomial(kept) for k, p in fin.items()
            if (kept := tuple(q for q in p.monomials if not covered(q[1])))}, inf_poly


def _multiply(acc: dict[int, list[Monomial]], rows, qs: Sequence[Monomial]) -> None:
    """Add to acc[i] the products of the finite monomials of row i, for
    each (i, monomials) of rows, with the finite monomials qs: the one
    product of two monomials, whose scalar is the max.  A pair that can
    share no index, as q's indices are all newer or a list is empty, is
    concatenated; equal lists are their own product.  Other pairs read
    q's picks, built once per call: a differing pick at any shared index
    makes the product vanish, else its list is the one that holds the
    other, or the sorted union."""
    # q's first index as its lowest delta: last < first compares indices.
    heads = [(k, sb, db, db[0] & ~MASK if db else float("inf"))
             for k, (sb, db) in enumerate(qs)]
    picks: list = [None] * len(qs)
    for i, monos in rows:
        out = acc.setdefault(i, [])
        for sa, da in monos:
            if sa == INF:
                continue
            last = da[-1] if da else -1
            for k, sb, db, first in heads:
                s = sa if sa > sb else sb
                if last < first:
                    out.append((s, da + db))
                elif da == db:
                    out.append((s, da))
                else:
                    get = picks[k]
                    if get is None:
                        get = picks[k] = {d >> SHIFT: d for d in db}.get
                    shared = 0
                    for d in da:
                        if (e := get(d >> SHIFT)) is not None:
                            if e != d:
                                break
                            shared += 1
                    else:
                        out.append((s, db if shared == len(da) else da if shared == len(db)
                                    else tuple(sorted({*da, *db}))))


def _plus(a: Column, b: Column) -> dict[int, Polynomial]:
    """The cellwise sum of two columns."""
    out = dict(a)
    for i, q in b.items():
        out[i] = out[i] + q if i in out else q
    return out


def _recount(size: int, old: Mapping[int, Column], written: Mapping[int, Column]) -> int:
    """size, the monomials of the stored columns old, recounted for the
    columns written over them.  Past BUDGET raises BudgetExceeded."""
    for c, col in written.items():
        for p in col.values():
            size += len(p.monomials)
        for p in old.get(c, {}).values():
            size -= len(p.monomials)
    if size > BUDGET:
        raise BudgetExceeded(size)
    return size


class ChoiceMatrix:
    """Square matrix of choice polynomials with a named variable order.

    A matrix is stored as the identity plus the columns that differ from
    it.  columns maps a column index to its nonzero cells by row; every
    other column is the unit vector.  Two maps hold canonical INF lists
    for the rows whose list is nonempty: row_inf[i], which every cell of
    row i holds as well, and pending[i], the INF of row i's stored cells,
    which the next product spreads over the whole row.  entries is the
    dense row view, with each row's list merged into its cells.

    size counts the monomials of the stored columns.  Every operation
    builds its result with _stored from the columns it wrote, so _stored
    recounts only those.  It refuses a matrix whose size passes BUDGET
    (BudgetExceeded): the fold of a plain 30-line program can otherwise
    exhaust gigabytes.
    """

    __slots__ = ("variables", "registry", "columns", "row_inf", "pending", "size", "_entries")

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
        cols = ({i: p for i, p in enumerate(col) if p.monomials} for col in zip(*rows))
        self.columns = {c: col for c, col in enumerate(cols) if col != {c: UNIT_POLY}}
        self.row_inf = {}
        self.pending = {
            i: inf for i, row in enumerate(rows)
            if (inf := Polynomial.of(m for p in row for m in p.monomials if m[0] == INF)).monomials}
        self.size = _recount(0, {}, self.columns)

    def _stored(self, written, row_inf, pending) -> "ChoiceMatrix":
        """The matrix over self's variables that stores self's columns
        with written's over them, and these INF lists."""
        m = ChoiceMatrix.__new__(ChoiceMatrix)
        m.variables, m.registry, m._entries = self.variables, self.registry, None
        m.columns, m.row_inf, m.pending = {**self.columns, **written}, row_inf, pending
        m.size = _recount(self.size, self.columns, written)
        return m

    @classmethod
    def identity(cls, variables: Sequence[str], registry: ChoiceRegistry) -> "ChoiceMatrix":
        m = cls.__new__(cls)
        m.variables, m.registry, m.columns, m.size, m._entries = tuple(variables), registry, {}, 0, None
        m.row_inf, m.pending = {}, {}
        return m

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """The cells, computed on first read: a stored cell, a unit
        vector's or zero, merged with its row's INF list by one
        row_merger per row.  A row with no list reads as stored."""
        if self._entries is None:
            n = len(self.variables)
            rows = [[ZERO_POLY] * n for _ in range(n)]
            for c in range(n):
                for i, p in self.columns.get(c, {c: UNIT_POLY}).items():
                    rows[i][c] = p
            self._entries = tuple(tuple(map(row_merger(self.row_inf[i]), row))
                                  if i in self.row_inf else tuple(row) for i, row in enumerate(rows))
        return self._entries

    def cell(self, i: int, c: int) -> Polynomial:
        """Cell (i, c) as entries reads it: stored or unit, plus row i's list."""
        return self.columns.get(c, {c: UNIT_POLY}).get(i, ZERO_POLY) + self.row_inf.get(i, ZERO_POLY)

    def inf_cells(self) -> dict[tuple[int, int], tuple[Monomial, ...]]:
        """The cells that hold INF in row order, each with its INF monomials,
        not made canonical: its row's list, if any, and its stored cell's."""
        own = {(i, c): infs for c, col in self.columns.items() for i, p in col.items()
               if (infs := tuple(m for m in p.monomials if m[0] == INF))}
        lists = {i: r.monomials for i, r in sorted(self.row_inf.items())}
        keys = [(i, c) for i in lists for c in range(len(self.variables))]
        keys += sorted(k for k in own if k[0] not in lists)
        return {k: lists.get(k[0], ()) + own.get(k, ()) for k in sorted(keys)}

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
        unit = {c: {c: UNIT_POLY} for c in self.columns.keys() | other.columns.keys()}
        columns = {c: _plus(self.columns.get(c, e), other.columns.get(c, e)) for c, e in unit.items()}
        return self._stored(columns, _plus(self.row_inf, other.row_inf),
                            _plus(self.pending, other.pending))

    def __mul__(self, other: "ChoiceMatrix") -> "ChoiceMatrix":
        """Matrix product: other's stored columns update self (see
        update_columns), and other's row lists, which reach every column
        of other, reach every cell."""
        self._check_compatible(other)
        out = self.update_columns(other.columns)
        if not other.row_inf:
            return out
        spread = dict.fromkeys(range(len(self.variables)), sum(other.row_inf.values(), ZERO_POLY))
        return out._stored({}, _plus(out.row_inf, spread), out.pending)

    def update_columns(self, columns: Mapping[int, Column]) -> "ChoiceMatrix":
        """self times the matrix that is the identity outside the keys of
        columns, whose column c has the cells columns[c].

        INF spreads: as 0·∞ = ∞, the INF of row i of self reaches every
        cell of row i, so row i's pending list joins its row list, and the
        INF of a written column reaches every cell of the column, so the
        union of those lists is every row's new pending list.  A written
        column c stores the canonical finite products: for each row k of
        columns[c], a stored column k times columns[c][k], or for a unit
        column k, columns[c][k] in row k.  Only the written cells, their
        stored columns and the pending rows are read.

        Waiting is exact.  A finite monomial that its row's list covers
        stays covered in every later product: a product's delta list
        holds its factor's, and the list only grows.  It can only
        dominate monomials that are covered too.  So the products may
        read the stored cells, and as of(of(X) ∪ Y) == of(X ∪ Y), the
        merged cells equal the sums over k of Polynomial products.
        A written column's monomials that its INF list covers are dropped
        before they are multiplied (see _written).
        """
        n = len(self.variables)
        written = {}
        spread = ZERO_POLY
        for c, col in columns.items():
            col_fin, col_inf = _written(col)
            acc: dict[int, list[Monomial]] = {}
            for k, q in col_fin.items():
                src = self.columns.get(k)
                if src is None:
                    acc.setdefault(k, []).extend(q.monomials)
                else:  # a list: a generator left suspended by a MemoryError
                    # fails to close and prints "Exception ignored in: "
                    _multiply(acc, [(i, p.monomials) for i, p in src.items()], q.monomials)
            tail = list(col_inf.monomials)
            cells = dict.fromkeys(range(n), col_inf) if tail else {}
            for i, monos in acc.items():
                if monos:
                    cells[i] = Polynomial.of(monos + tail)
            written[c] = cells
            spread = spread + col_inf
        # Rows often repeat an equal pair of lists: sum it once.
        sums: dict[tuple[Polynomial, Polynomial], Polynomial] = {}
        row_inf = dict(self.row_inf) if self.pending else self.row_inf
        for i, p in self.pending.items():
            r = row_inf.get(i)
            row_inf[i] = p if r is None else sums.get((r, p)) or sums.setdefault((r, p), r + p)
        return self._stored(written, row_inf,
                            dict.fromkeys(range(n), spread) if spread.monomials else {})

    def closure(self) -> "ChoiceMatrix":
        """Least fixpoint of s = 1 + s·M, by one Kleene (Gauss-Jordan)
        elimination over the stored columns of 1 + M; a unit column adds
        no walk.  Pivot p first scales column p by the finite part D of
        its diagonal cell, which holds the unit m or a constant above
        it, then adds column p times q to every other stored column
        whose row p holds finite q.  Only stored cells are read.

        This is exact.  A product of two finite monomials is dominated
        by the one with the larger scalar, so D·D has the same canonical
        cells as D: a pivot's star is its own diagonal, and scaling by
        the unit alone changes nothing.  Products respect subsumption,
        so of(of(X) ∪ Y) == of(X ∪ Y), and the elimination gives the
        canonical sum over all walks.

        Only finite monomials multiply, and the stored cells keep just
        their products: the star has one INF list.  As 0·∞ = ∞, an INF
        monomial anywhere in M reaches every cell of M³, so every row's
        list is the union of M's row lists, its pending lists and its
        columns' INF lists, and no list is left pending.  A product of a
        monomial that a column's INF list covers is covered by that union,
        so it may wait in a cell (see update_columns).
        """
        cols, inf = {}, sum((*self.row_inf.values(), *self.pending.values()), ZERO_POLY)
        for c, col in self.columns.items():
            cols[c], col_inf = _written({**col, c: UNIT_POLY + col.get(c, ZERO_POLY)})
            inf = inf + col_inf
        for p, colp in cols.items():
            if (d := colp.get(p)) and d != UNIT_POLY:
                acc: dict[int, list[Monomial]] = {}
                _multiply(acc, [(i, x.monomials) for i, x in colp.items()], d.monomials)
                colp = cols[p] = {i: Polynomial.of(ms) for i, ms in acc.items()}
            rows = [(i, x.monomials) for i, x in colp.items()]
            for c, colc in cols.items():
                if c != p and (q := colc.get(p)):
                    acc = {}
                    _multiply(acc, rows, q.monomials)
                    for i, ms in acc.items():
                        if ms:
                            colc[i] = Polynomial.of((*colc.get(i, ZERO_POLY).monomials, *ms))
        rows = range(len(self.variables)) if inf.monomials else ()
        return self._stored(cols, dict.fromkeys(rows, inf), {})

    def iterate(self, counter: int | None) -> "ChoiceMatrix":
        """The iteration rule on the closure of this body matrix: the
        loop rule at the counter's index, or the while rule when counter
        is None.

        Both rules give every diagonal monomial above m an INF twin.  An
        unbounded while also tops each p monomial in its own cell; a
        counted loop instead adds the p monomials of every column to the
        counter's row.  A unit column holds nothing above m and no p, so
        only the star's stored cells are read.  They hold no INF: the
        star's one INF list stays in its row lists, which reach the new
        cells too, so the pending lists are the twins the rule put in
        each row.  A twin or p copy of a monomial that list covers is
        covered too.
        """
        star = self.closure()
        columns = {}
        twins: dict[int, list[Monomial]] = {}
        for j, column in star.columns.items():
            cells = dict(column)
            for i in column if counter is None else (j,):
                monos = column.get(i, ZERO_POLY).monomials
                topped = [(INF, ds) for s, ds in monos if s > (M if i == j else W)]
                if topped:
                    cells[i] = Polynomial.of([*monos, *topped])
                    twins.setdefault(i, []).extend(topped)
            if counter is not None:
                hits = [m for p in column.values() for m in p.monomials if m[0] == P]
                if hits:
                    cells[counter] = Polynomial.of([*cells.get(counter, ZERO_POLY).monomials, *hits])
            columns[j] = cells
        return star._stored(columns, star.row_inf, {i: Polynomial.of(t) for i, t in twins.items()})

    def replace_column(self, j: int, column: Column) -> "ChoiceMatrix":
        """self with column j stored as these nonzero cells; each row
        adds the INF of its new cell, in a canonical cell's order already
        a canonical Polynomial, to its pending list.  Row lists still
        reach the new cells, and the old column's pending INF stays, so
        this is the plain replacement when column keeps the INF monomials
        of the stored cells it replaces, as a unit column holds none."""
        if not all(0 <= i < len(self.variables) for i in column):
            raise ValueError("column row out of range")
        infs = {i: Polynomial(inf) for i, q in column.items()
                if (inf := tuple(m for m in q.monomials if m[0] == INF))}
        return self._stored({j: dict(column)}, self.row_inf, _plus(self.pending, infs))

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
                    v = mat.rows[i][j]
                    if v != ZERO:
                        cylinders.setdefault(v, []).append(
                            (INF, tuple(delta(x, k) for k, x in enumerate(a))))
                graphs = {v: DeltaGraph(registry, Polynomial.of(ms)) for v, ms in cylinders.items()}
                for g in graphs.values():
                    g.fuse()
                row.append(Polynomial.of(
                    (v, ds) for v, g in graphs.items() for _, ds in g.cover.monomials
                ))
            entries.append(tuple(row))
        return cls(variables, entries, registry)
