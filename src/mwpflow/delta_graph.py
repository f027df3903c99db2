"""Record of the monomials that acquired an infinite coefficient.

Vertices are delta lists.  A stored list covers the cylinder of
assignments it matches; the graph as a whole covers every assignment
for which the analysis produced INF somewhere.  Whenever all siblings
of a vertex across one choice index are covered, the whole fan fuses
into the list with that delta removed, so typical complete covers
collapse to the single empty list.  Fusion cannot always finish that
collapse, so every coverage question goes to one backtracking search
for uncovered assignments, which returns at once when the empty list
is stored.  The search decides completeness, supplies sample
assignments, counts the uncovered assignments and lists them for
callee summaries; it prunes whole subtrees on matched vertices and
takes every completion at once when no vertex is left to match, so
nothing ever enumerates the space.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .polynomial import Assignment, ChoiceRegistry, Delta


class DeltaGraph:
    """Mutable accumulator owned by one analysis run."""

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
        """Add one INF monomial's delta list and fuse to fixpoint.

        A list already covered by a stored vertex is a no-op; stored
        extensions of the new list are dropped as redundant.
        """
        ds = tuple(sorted(deltas))
        for idx, v in ds:
            if not 0 <= v < self.registry.cardinality(idx):
                raise ValueError(f"delta ({v},{idx}) outside its registered domain")
        self._add(ds)
        self.fuse()

    def _add(self, ds: tuple[Delta, ...]) -> None:
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
        shorter vertex.  Longer vertices are tried first.  Kept at
        fixpoint by insert.
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
                    self._add(v[:pos] + v[pos + 1 :])
                    return True
        return False

    def is_complete(self) -> bool:
        """True when every assignment is covered.

        Decided by the uncovered-assignment search, which answers at
        once when fusion has left the empty vertex.
        """
        return self.find_uncovered() is None

    def find_uncovered(self) -> Assignment | None:
        """Lexicographically smallest assignment no vertex matches."""
        return next(self.uncovered(), None)

    def uncovered(self, free: Iterable[int] | None = None) -> Iterator[Assignment]:
        """Uncovered assignments in lexicographic order.

        Only the indices in ``free`` (all of them when None) vary; every
        other index stays at 0.  Backtracking over choice indices: a
        vertex whose deltas are all decided and matched kills the
        subtree, vertices that mismatch a decided pick drop out of the
        live set, and once none is live every completion is uncovered.
        """
        cards = self.registry.cardinalities
        free = range(len(cards)) if free is None else set(free)
        domains = [range(c) if pos in free else range(1) for pos, c in enumerate(cards)]
        start = self._live()
        if start is None:
            return
        stack = [((), start)]
        while stack:
            prefix, live = stack.pop()
            pos = len(prefix)
            if not live:
                for tail in itertools.product(*domains[pos:]):
                    yield prefix + tail
                continue
            children = []
            for pick in domains[pos]:
                rest = _restrict(live, pos, pick)
                if rest is not None:
                    children.append((prefix + (pick,), rest))
            stack.extend(reversed(children))

    def count_uncovered(self) -> int:
        """Number of assignments no vertex matches.

        The restriction step of ``uncovered``, swept one index at a time
        over all prefixes at once: prefixes that leave the same live set
        are merged and counted together, so the work follows the number
        of distinct live sets, not of prefixes.  Once no vertex is live,
        a prefix just multiplies by each remaining cardinality.
        """
        start = self._live()
        if start is None:
            return 0
        states = {start: 1}  # live set -> number of prefixes that reach it
        for pos, card in enumerate(self.registry.cardinalities):
            nxt: dict[frozenset[tuple[Delta, ...]], int] = {}
            for live, ways in states.items():
                for pick in range(card):
                    rest = _restrict(live, pos, pick)
                    if rest is not None:
                        nxt[rest] = nxt.get(rest, 0) + ways
            states = nxt
        return sum(states.values())

    def _live(self) -> frozenset[tuple[Delta, ...]] | None:
        """The vertices as a live set for the walk; None when one is empty."""
        if () in self._vertices:
            return None
        return frozenset(self._vertices)

    def covered(self, assignment: Sequence[int]) -> bool:
        self.registry.validate(assignment)
        return self._covers_list(tuple(enumerate(assignment)))

    def dump(self) -> str:
        lines = [
            f"layer={len(ds)} {' '.join(f'δ({v},{i})' for i, v in ds) or '(empty)'}"
            for ds in self.vertices()
        ]
        lines.append(f"complete: {'yes' if self.is_complete() else 'no'}")
        return "\n".join(lines)


def _restrict(
    live: frozenset[tuple[Delta, ...]], pos: int, pick: int
) -> frozenset[tuple[Delta, ...]] | None:
    """The live set after deciding ``pick`` at index ``pos``.

    Every live vertex is a sorted delta list over indices >= pos.  None
    when some vertex is fully matched, so the whole subtree is covered.
    """
    out = []
    for vs in live:
        idx, val = vs[0]
        if idx != pos:
            out.append(vs)
        elif val == pick:
            if len(vs) == 1:
                return None
            out.append(vs[1:])
    return frozenset(out)
