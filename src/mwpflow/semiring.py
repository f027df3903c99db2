"""The mwp scalar semi-rings and square flow matrices over them.

Scalars are plain ints: 0 < m < w < p < infinity, encoding how one
variable's size feeds another (no flow, copied maximum, weak polynomial,
polynomial, non-polynomial).  Addition is max in both structures.  Plain
mwp multiplication is max guarded by 0-annihilation; the extended
structure deliberately breaks annihilation so that 0 * INF = INF and a
detected non-polynomial flow can never be erased by later composition.
"""

from __future__ import annotations

from typing import Iterable

ZERO = 0
M = 1
W = 2
P = 3
INF = 4

MWP_VALUES = (ZERO, M, W, P)
MWP_INF_VALUES = (ZERO, M, W, P, INF)

_CHARS = "0mwpi"


def value_char(a: int) -> str:
    return _CHARS[a]


def add(a: int, b: int) -> int:
    """Addition of both semi-rings: max under 0 < m < w < p < INF."""
    return a if a >= b else b


def mul(a: int, b: int) -> int:
    """Plain mwp product: 0 if either side is 0, max otherwise.

    Arguments must be INF-free; use mul_inf when INF may occur.
    """
    if a == ZERO or b == ZERO:
        return ZERO
    return a if a >= b else b


def mul_inf(a: int, b: int) -> int:
    """Extended product: 0 when both are finite and one is 0, max otherwise.

    In particular 0 * INF = INF, so the structure is not strong.
    """
    if a == INF or b == INF:
        return INF
    if a == ZERO or b == ZERO:
        return ZERO
    return a if a >= b else b


class FlowMatrix:
    """Square matrix over the extended scalars.

    Entry (i, j) classifies the flow from variable i's old value into
    variable j's new value.  Immutable; all operations return new
    matrices.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "FlowMatrix":
        return cls([[M if i == j else ZERO for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlowMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "FlowMatrix") -> "FlowMatrix":
        if len(self.rows) != len(other.rows):
            raise ValueError("dimension mismatch")
        return FlowMatrix(
            tuple(a if a >= b else b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __mul__(self, other: "FlowMatrix") -> "FlowMatrix":
        if len(self.rows) != len(other.rows):
            raise ValueError("dimension mismatch")
        n = len(self.rows)
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append(
                tuple(
                    max(mul_inf(row[k], col[k]) for k in range(n))
                    for col in cols
                )
            )
        return FlowMatrix(out)

    def closure(self) -> "FlowMatrix":
        """Least fixpoint of X -> 1 + M + X*X, i.e. 1 + M + M^2 + ...

        Entries only grow in a finite lattice, so iterating
        S <- S + S*M from S = 1 + M stabilizes quickly.
        """
        s = FlowMatrix.identity(len(self.rows)) + self
        while True:
            nxt = s + s * self
            if nxt == s:
                return s
            s = nxt

    def contains_inf(self) -> bool:
        return any(INF in row for row in self.rows)

    def submatrix(self, keep: Iterable[int]) -> "FlowMatrix":
        idx = tuple(keep)
        return FlowMatrix(tuple(self.rows[i][j] for j in idx) for i in idx)

    def __str__(self) -> str:
        return "\n".join(" ".join(value_char(a) for a in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"FlowMatrix({[list(r) for r in self.rows]!r})"
