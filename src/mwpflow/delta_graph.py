"""Record of the monomials that acquired an infinite coefficient.

Vertices are delta lists, held as the INF monomials of one canonical
Polynomial, the cover.  A vertex covers the cylinder of assignments it
matches; an analysis builds one graph per function, once, with one
Polynomial.of over its final matrix's INF monomials, so the graph
covers every assignment for which the analysis produced INF somewhere.
Polynomial.of keeps the minimal delta lists and nothing more, so the
vertices are an antichain.  Every question about the uncovered
assignments goes to one sweep over the choice indices, which sees only
the covered set, not the vertices that spell it.  It counts them, finds
the first, and lists the values a column of polynomials takes on them,
which are a callee's behaviors; an empty count means the graph is
complete.  Prefixes that leave the same restricted cover and column
merge, so an index that nothing left mentions never multiplies the
work, and nothing ever enumerates the space.

Fan fusion is a normal form, not part of any verdict: when all siblings
of a vertex across one choice index are covered, the whole fan fuses
into the list with that delta removed.  Only ChoiceMatrix.from_tables
asks for it, so that constant behavior collapses to short cylinders.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .polynomial import (
    INF_POLY,
    MASK,
    SHIFT,
    ZERO_POLY,
    Assignment,
    ChoiceRegistry,
    Delta,
    Polynomial,
)
from .semiring import INF, ZERO


class Sweep(NamedTuple):
    """The uncovered assignments, as one sweep of the graph sees them."""

    count: int
    sample: Assignment | None  # the lexicographically smallest one
    behaviors: tuple[tuple[int, ...], ...]  # distinct column values, first seen first


class DeltaGraph:
    """An antichain of delta lists over one registry's choice indices."""

    def __init__(self, registry: ChoiceRegistry, cover: Polynomial = ZERO_POLY):
        self.registry = registry
        self.cover = cover  # canonical, INF monomials only; their lists are the vertices

    def vertices(self) -> list[tuple[Delta, ...]]:
        """The vertices, shortest first, each length in tuple order."""
        return sorted((ds for _, ds in self.cover.monomials), key=lambda ds: (len(ds), ds))

    def __len__(self) -> int:
        return len(self.cover.monomials)

    def insert(self, deltas: Iterable[Delta]) -> None:
        """Add one INF monomial's delta list.

        A list already covered by a stored vertex is a no-op; stored
        extensions of the new list are dropped as redundant.
        Polynomial.of does both.
        """
        ds = tuple(sorted(deltas))
        for d in ds:
            idx, v = d >> SHIFT, d & MASK
            if not 0 <= v < self.registry.cardinality(idx):
                raise ValueError(f"delta ({v},{idx}) outside its registered domain")
        self.cover = self.cover + Polynomial(((INF, ds),))

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
        """Fuse the first qualifying fan; False when none qualifies.

        The fan is covered when adding it leaves the cover as it is.
        Inserting the shorter list drops the fan, which extends it.
        """
        for v in sorted(self.vertices(), key=lambda ds: (-len(ds), ds)):
            for pos, d in enumerate(v):
                base = d & ~MASK
                fan = Polynomial.of(
                    (INF, v[:pos] + (base | k,) + v[pos + 1 :])
                    for k in range(self.registry.cardinality(d >> SHIFT))
                )
                if self.cover + fan == self.cover:
                    self.insert(v[:pos] + v[pos + 1 :])
                    return True
        return False

    def sweep(self, column: Sequence[Polynomial] = ()) -> Sweep:
        """Count, first member and column values of the uncovered assignments.

        Decides the choice indices in order, over all prefixes at once.
        A state is the cover followed by the column's entries, each
        restricted by the picks so far (Polynomial.restrict); a cover
        that has become INF_POLY kills it.  Prefixes that reach the same
        state merge into its count, and the first of them is kept.  At an
        index that no list of the cover or the column holds, restriction
        leaves every state as it is: its count grows by the cardinality
        and its first prefix takes pick 0, with no restriction.
        States stay in order of their first prefix, so the sample is the
        lexicographically smallest uncovered assignment and the
        behaviors (the distinct values of the column) come in order of
        their first uncovered assignment.
        """
        held = {d >> SHIFT for p in (self.cover, *column) for _, ds in p.monomials for d in ds}
        states = {} if self.cover == INF_POLY else {(self.cover, *column): (1, ())}
        for pos, card in enumerate(self.registry.cardinalities):
            if pos not in held:
                states = {s: (ways * card, first + (0,)) for s, (ways, first) in states.items()}
                continue
            nxt: dict[tuple[Polynomial, ...], tuple[int, Assignment]] = {}
            for state, (ways, first) in states.items():
                for pick in range(card):
                    child = tuple(p.restrict(pos, pick) for p in state)
                    if child[0] == INF_POLY:
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
                tuple(max((s for s, _ in p.monomials), default=ZERO) for p in state[1:])
                for state in states
            )),
        )

    def covered(self, assignment: Sequence[int]) -> bool:
        self.registry.validate(assignment)
        return self.cover.evaluate(assignment) == INF

    def dump(self) -> str:
        lines = [
            f"layer={len(ds)} {' '.join(f'δ({d & MASK},{d >> SHIFT})' for d in ds) or '(empty)'}"
            for ds in self.vertices()
        ]
        lines.append(f"complete: {'no' if self.sweep().count else 'yes'}")
        return "\n".join(lines)
