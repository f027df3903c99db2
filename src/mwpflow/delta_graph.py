"""Record of the monomials that acquired an infinite coefficient.

Vertices are delta lists.  A stored list covers the cylinder of
assignments it matches; an analysis builds one graph per function, once,
from the delta lists of its final matrix's INF monomials, so the graph
covers every assignment for which the analysis produced INF somewhere.
Inserting keeps the vertices an antichain and nothing more.  Every
question about the uncovered assignments goes to one sweep over the
choice indices, which sees only the covered set, not the vertices that
spell it.  It counts them, finds the first, and lists the values a
column of polynomials takes on them, which are a callee's behaviors; an
empty count means the graph is complete.  Prefixes that leave the same
live vertices and column merge, so an index that nothing left mentions
never multiplies the work, and nothing ever enumerates the space.

Fan fusion is a normal form, not part of any verdict: when all siblings
of a vertex across one choice index are covered, the whole fan fuses
into the list with that delta removed.  Only ChoiceMatrix.from_tables
asks for it, so that constant behavior collapses to short cylinders.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .semiring import INF, ZERO

if TYPE_CHECKING:
    from .polynomial import Assignment, ChoiceRegistry, Delta, Polynomial


class Sweep(NamedTuple):
    """The uncovered assignments, as one sweep of the graph sees them."""

    count: int
    sample: Assignment | None  # the lexicographically smallest one
    behaviors: tuple[tuple[int, ...], ...]  # distinct column values, first seen first


class DeltaGraph:
    """An antichain of delta lists over one registry's choice indices."""

    def __init__(self, registry: ChoiceRegistry):
        self.registry = registry
        self._vertices: set[tuple[Delta, ...]] = set()

    def vertices(self) -> list[tuple[Delta, ...]]:
        """The vertices, shortest first, each length in tuple order."""
        return sorted(self._vertices, key=lambda ds: (len(ds), ds))

    def __len__(self) -> int:
        return len(self._vertices)

    def _covers_list(self, ds: tuple[Delta, ...]) -> bool:
        """Some stored vertex matches everything the given list matches."""
        new_set = frozenset(ds)
        return any(
            len(stored) <= len(ds) and new_set.issuperset(stored)
            for stored in self._vertices
        )

    def insert(self, deltas: Iterable[Delta]) -> None:
        """Add one INF monomial's delta list.

        A list already covered by a stored vertex is a no-op; stored
        extensions of the new list are dropped as redundant.
        """
        ds = tuple(sorted(deltas))
        for idx, v in ds:
            if not 0 <= v < self.registry.cardinality(idx):
                raise ValueError(f"delta ({v},{idx}) outside its registered domain")
        if self._covers_list(ds):
            return
        new_set = frozenset(ds)
        self._vertices.difference_update(
            [stored for stored in self._vertices if new_set.issubset(stored)]
        )
        self._vertices.add(ds)

    def fuse(self) -> None:
        """Apply the fan rewrite until no vertex qualifies.

        A vertex fuses across index j when each of its siblings at j is
        covered by the graph, whether stored verbatim or absorbed into a
        shorter vertex.  Longer vertices are tried first.  Coverage is
        unchanged.
        """
        while self._fuse_one():
            pass

    def _fuse_one(self) -> bool:
        """Fuse the first qualifying fan; False when none qualifies."""
        for v in sorted(self._vertices, key=lambda ds: (-len(ds), ds)):
            for pos, (idx, _) in enumerate(v):
                fan = [
                    v[:pos] + ((idx, k),) + v[pos + 1 :]
                    for k in range(self.registry.cardinality(idx))
                ]
                if all(self._covers_list(f) for f in fan):
                    self._vertices.difference_update(fan)
                    self.insert(v[:pos] + v[pos + 1 :])
                    return True
        return False

    def sweep(self, column: Sequence[Polynomial] = ()) -> Sweep:
        """Count, first member and column values of the uncovered assignments.

        Decides the choice indices in order, over all prefixes at once.
        A state is the live vertices, as INF monomials, followed by the
        column's entries, all restricted by the picks so far; a fully
        matched vertex kills it.  Prefixes that reach the same state
        merge into its count, and the first of them is kept.  States
        stay in order of their first prefix, so the sample is the
        lexicographically smallest uncovered assignment and the
        behaviors (the distinct values of the column) come in order of
        their first uncovered assignment.
        """
        entries = [[(INF, ds) for ds in self._vertices]] + [p.monomials for p in column]
        start = tuple(_settle(entry) for entry in entries)
        states = {} if _MATCHED in start[0] else {start: (1, ())}
        for pos, card in enumerate(self.registry.cardinalities):
            nxt: dict[tuple[frozenset, ...], tuple[int, Assignment]] = {}
            for state, (ways, first) in states.items():
                for pick in range(card):
                    child = tuple(_decide(entry, pos, pick) for entry in state)
                    if _MATCHED in child[0]:
                        continue
                    if child in nxt:
                        nxt[child] = (nxt[child][0] + ways, nxt[child][1])
                    else:
                        nxt[child] = (ways, first + (pick,))
            states = nxt
        return Sweep(
            count=sum(ways for ways, _ in states.values()),
            sample=next((first for _, first in states.values()), None),
            behaviors=tuple(dict.fromkeys(
                tuple(max((s for s, _ in entry), default=ZERO) for entry in state[1:])
                for state in states
            )),
        )

    def covered(self, assignment: Sequence[int]) -> bool:
        self.registry.validate(assignment)
        return self._covers_list(tuple(enumerate(assignment)))

    def dump(self) -> str:
        lines = [
            f"layer={len(ds)} {' '.join(f'δ({v},{i})' for i, v in ds) or '(empty)'}"
            for ds in self.vertices()
        ]
        lines.append(f"complete: {'no' if self.sweep().count else 'yes'}")
        return "\n".join(lines)


_MATCHED = (INF, ())  # a vertex whose deltas are all matched


def _decide(entry: frozenset, pos: int, pick: int) -> frozenset:
    """The entry's monomials once ``pick`` is decided at index ``pos``.

    Every delta list is sorted and over indices >= pos, so only its
    first delta can be at pos: it is struck when it matches the pick,
    and the monomial drops out when it does not.
    """
    out = []
    for m in entry:
        scalar, ds = m
        if ds and ds[0][0] == pos:
            if ds[0][1] != pick:
                continue
            m = (scalar, ds[1:])
        out.append(m)
    return _settle(out)


def _settle(monos: Iterable[tuple[int, tuple[Delta, ...]]]) -> frozenset:
    """Drop every monomial no larger than the best delta-free one.

    No completion can raise the entry above that monomial, so the rest
    only keep equal states apart.
    """
    monos = list(monos)
    best = max((s for s, ds in monos if not ds), default=ZERO)
    return frozenset(m for m in monos if m[0] > best or (m[0] == best and not m[1]))
