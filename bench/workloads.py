"""Seeded program generators for the three benchmark workloads.

Every workload is a fixed list of base programs built from its own
reference seed (``REFERENCE_SEED``), so that the pinned answers in
``pins.json`` cover it.  The run's ``--seed`` then makes the inputs
the program actually sees: it renames every variable through a seeded
injective map and fixes the order in which programs run.  Renaming is
cost-neutral by construction (matrix rows follow first occurrence, not
names) and leaves every verdict unchanged, so seeds vary the inputs
without varying the work.

This module imports nothing from the repository's tests, so edits to
the test corpus cannot shift the workloads.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

DEFAULT = "default"
FAST = "fast"

# Reference seed of each workload's generator.  Only ``corpus`` draws
# random programs; the other two are fixed families and record the seed
# for completeness.
REFERENCE_SEED = {"corpus": 7, "enumeration": 7, "kernel": 7}

MODE = {"corpus": DEFAULT, "enumeration": DEFAULT, "kernel": FAST}


@dataclass(frozen=True)
class Program:
    """One base program of a workload.

    ``frontier`` programs are known to exceed the per-program cap at the
    reference commit; they run once per run in a child process.
    ``answer`` names how ``pin.py`` derives the pinned verdict.
    """

    name: str
    source: str
    frontier: bool = False
    answer: str = "replay"


# --- corpus: everyday traffic --------------------------------------------

_VARS = ("X1", "X2", "X3", "X4")
_CMP = ("<", "<=", ">", ">=", "==", "!=")


class _RandomMain:
    """Random call-free ``main`` bodies with a bounded number of choices.

    Expressions are binary over plain variables; each ``+`` or ``-``
    allocates one three-valued choice, ``*`` allocates none.
    """

    def __init__(self, rng: random.Random, budget: int):
        self.rng = rng
        self.left = budget

    def expr(self) -> str:
        rng = self.rng
        a, b = rng.choice(_VARS), rng.choice(_VARS)
        if self.left and rng.random() < 0.7:
            self.left -= 1
            return f"{a} {rng.choice('+-')} {b}"
        return f"{a} * {b}" if rng.random() < 0.5 else a

    def cond(self) -> str:
        rng = self.rng
        return f"{rng.choice(_VARS)} {rng.choice(_CMP)} {rng.choice(_VARS)}"

    def block(self, depth: int, count: int) -> list[str]:
        return [line for _ in range(count) for line in self.command(depth)]

    def command(self, depth: int) -> list[str]:
        rng = self.rng
        roll = rng.random()
        if depth >= 3 or roll < 0.5 or not self.left:
            return [f"{rng.choice(_VARS)} = {self.expr()};"]
        inner = [
            "    " + line for line in self.block(depth + 1, rng.randint(1, 2))
        ]
        if roll < 0.72:
            out = [f"if ({self.cond()}) {{", *inner]
            if rng.random() < 0.6:
                out.append("} else {")
                out.extend("    " + line for line in self.block(depth + 1, 1))
            return out + ["}"]
        if roll < 0.9:
            return [f"loop {rng.choice(_VARS)} {{", *inner, "}"]
        return [f"while ({self.cond()}) {{", *inner, "}"]


def random_main(rng: random.Random, max_choices: int = 8) -> str:
    budget = rng.choice((0, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, max_choices))
    body = _RandomMain(rng, budget).block(0, rng.randint(1, 4))
    return "function main() {\n" + "".join(f"    {line}\n" for line in body) + "}\n"


def random_call_pair(rng: random.Random) -> str:
    """A callee ``f`` and a ``main`` that calls it once between other work."""
    params = ("X1", "X2")[: rng.randint(1, 2)]
    pool = [*params, "X6"]  # X6 is read from the caller's scope
    kind = rng.random()
    if kind < 0.4:
        body = [f"X5 = {rng.choice(pool)} {rng.choice('+-*')} {rng.choice(pool)};"]
    elif kind < 0.7:
        body = [
            f"X5 = {rng.choice(pool)} {rng.choice('+-')} {rng.choice(pool)};",
            f"X5 = X5 * {rng.choice(pool)};",
        ]
    else:
        body = [f"loop {params[0]} {{ X5 = X5 {rng.choice('+-')} {rng.choice(pool)}; }}"]
    lines = [f"function f({', '.join(params)}) {{", *(f"    {b}" for b in body)]
    lines += ["    return X5;", "}", "function main() {"]

    def filler() -> list[str]:
        return [
            f"    {rng.choice(_VARS)} = {rng.choice(_VARS)} "
            f"{rng.choice('+-*')} {rng.choice(_VARS)};"
            for _ in range(rng.randint(0, 2))
        ]

    lines += filler()
    args = ", ".join(rng.choice(_VARS) for _ in params)
    lines.append(f"    {rng.choice(_VARS)} = f({args});")
    lines += filler()
    lines.append("}")
    return "\n".join(lines) + "\n"


def corpus(seed: int) -> list[Program]:
    """180 random mains, 60 call pairs and the six example programs."""
    rng = random.Random(seed)
    out = [Program(f"main-{i:03d}", random_main(rng)) for i in range(180)]
    out += [
        Program(f"pair-{i:02d}", random_call_pair(rng), answer="call-theorem")
        for i in range(60)
    ]
    for path in sorted((BENCH_DIR / "programs").glob("*.imp")):
        src = path.read_text(encoding="utf-8")
        answer = "call-theorem" if "return" in src else "replay"
        out.append(Program(f"file-{path.stem}", src, answer=answer))
    return out


# --- fixed families -------------------------------------------------------

def _pool(n: int) -> list[str]:
    return [f"X{i + 1}" for i in range(n)]


def _main(lines: list[str]) -> str:
    return "function main() {\n" + "".join(f"    {line}\n" for line in lines) + "}\n"


def branch_chain(k: int, n_vars: int = 6) -> str:
    """Conditional blocks rotating over a small pool, k choices in all.

    Each block adds two independent choices whose flows thread through
    the later blocks: 3^k assignments, compact polynomials.  Bounded.
    """
    pool = _pool(n_vars)
    lines, used, step = [], 0, 0
    while used < k:
        t, a, b = (pool[(step + d) % n_vars] for d in range(3))
        if used + 2 <= k:
            lines.append(f"if ({a} < {b}) {{ {t} = {a} + {b}; }} else {{ {t} = {b} - {a}; }}")
            used += 2
        else:
            lines.append(f"{t} = {a} + {b};")
            used += 1
        step += 1
    return _main(lines)


def feedback_chain(k: int, n_vars: int = 5) -> str:
    """k counted loops ``loop Xc { Xb = Xa + Xb; }`` over a rotating pool.

    Each loop is clean under the pick that puts p on Xa and poisoned
    under the pick that puts it on Xb: conditionally bounded.
    """
    pool = _pool(n_vars)
    return _main([
        f"loop {pool[(i + 2) % n_vars]} {{ "
        f"{pool[(i + 1) % n_vars]} = {pool[i % n_vars]} + {pool[(i + 1) % n_vars]}; }}"
        for i in range(k)
    ])


def while_chain(k: int, n_vars: int = 6) -> str:
    """k ``while`` loops each feeding one variable into the next.

    Every pick leaves a p or a w on the diagonal of some closure:
    unbounded.
    """
    pool = _pool(n_vars)
    return _main([
        f"while ({pool[i % n_vars]} < {pool[(i + 1) % n_vars]}) {{ "
        f"{pool[(i + 1) % n_vars]} = {pool[i % n_vars]} + {pool[(i + 1) % n_vars]}; }}"
        for i in range(k)
    ])


def independent_additions(k: int) -> str:
    """k straight-line additions over disjoint variable pairs.  Bounded."""
    return _main([f"X{2 * i + 1} = X{2 * i + 1} + X{2 * i + 2};" for i in range(k)])


def independent_callee(k: int) -> str:
    """A callee with k independent additive sites, called once.  Bounded.

    Every site writes the return variable from the parameters, so the
    sites share no data and the callee has no other locals.
    """
    lines = ["function f(X1, X2) {"]
    lines += [f"    X3 = X{1 + i % 2} + X{2 - i % 2};" for i in range(k)]
    lines += ["    return X3;", "}", "function main() {", "    X3 = f(X1, X2);", "}"]
    return "\n".join(lines) + "\n"


def enumeration(seed: int) -> list[Program]:
    """Default mode, where cost is the 3^k assignment scan.

    Four named programs from the roadmap plus cheap rungs of the same
    families, so that a pass yields many latency samples.
    """
    del seed  # fixed families
    out = [
        Program("branch-chain-09", branch_chain(9)),
        Program("feedback-chain-09", feedback_chain(9)),
        Program("callee-sites-09", independent_callee(9), answer="construction"),
        Program("additions-13", independent_additions(13), frontier=True,
                answer="construction"),
    ]
    for k in range(1, 9):
        out.append(Program(f"branch-chain-{k:02d}", branch_chain(k)))
        out.append(Program(f"feedback-chain-{k:02d}", feedback_chain(k)))
        out.append(Program(f"callee-sites-{k:02d}", independent_callee(k),
                           answer="call-theorem"))
    for k in range(1, 7):
        out.append(Program(f"additions-{k:02d}", independent_additions(k)))
        out.append(Program(f"while-chain-{k:02d}", while_chain(k)))
    for k in range(2, 8):
        out.append(Program(f"branch-chain-narrow-{k:02d}", branch_chain(k, n_vars=4)))
    out += _narrow_loops(range(1, 6), range(1, 6))
    return out


def kernel(seed: int) -> list[Program]:
    """``--fast`` on large choice counts, where no scan runs.

    Three named programs from the roadmap plus smaller rungs of the same
    families, so that a pass yields many latency samples; the k=56
    feedback chain is the frontier.
    """
    del seed  # fixed families
    out = [
        Program("feedback-chain-20", feedback_chain(20), answer="construction"),
        Program("while-chain-16", while_chain(16), answer="construction"),
        Program("branch-chain-24", branch_chain(24), answer="construction"),
        Program("feedback-chain-56", feedback_chain(56), frontier=True,
                answer="construction"),
    ]

    def answer(k: int) -> str:
        return "replay" if k <= 10 else "construction"

    for k in range(1, 15):
        out.append(Program(f"feedback-chain-{k:02d}", feedback_chain(k), answer=answer(k)))
    for k in range(1, 11):
        out.append(Program(f"while-chain-{k:02d}", while_chain(k), answer=answer(k)))
    for k in range(2, 21):
        out.append(Program(f"branch-chain-{k:02d}", branch_chain(k), answer=answer(k)))
    out += _narrow_loops(range(1, 6), range(1, 5))
    return out


def _narrow_loops(feedback_sizes: range, while_sizes: range) -> list[Program]:
    """Cheap loop chains over three variables, to round out a pass."""
    return [
        Program(f"feedback-chain-narrow-{k:02d}", feedback_chain(k, n_vars=3))
        for k in feedback_sizes
    ] + [
        Program(f"while-chain-narrow-{k:02d}", while_chain(k, n_vars=3))
        for k in while_sizes
    ]


WORKLOADS = {"corpus": corpus, "enumeration": enumeration, "kernel": kernel}

# Verdict each construction family implies, by program-name prefix.
CONSTRUCTION = {
    "feedback-chain": "conditionally_bounded",
    "while-chain": "unbounded",
    "branch-chain": "bounded",
    "additions": "bounded",
    "callee-sites": "bounded",
}


def base_programs(workload: str) -> list[Program]:
    return WORKLOADS[workload](REFERENCE_SEED[workload])


# --- seeded renaming ------------------------------------------------------

_BASE_NAME = re.compile(r"\bX\d+\b")
_RUN_NAME = re.compile(r'"(V\d{3})"')


class Renaming:
    """Seeded injective map from base variable names to ``V100``..``V999``.

    All run names have the same length, so report sizes do not depend on
    the seed.  ``restore`` maps a JSON report back to base names, which
    lets a report be compared with the digest pinned for the base program.
    """

    def __init__(self, seed: int, names: list[str]):
        picks = random.Random(seed).sample(range(100, 1000), len(names))
        self.forward = {n: f"V{p}" for n, p in zip(names, picks)}
        self.back = {v: n for n, v in self.forward.items()}

    @classmethod
    def for_programs(cls, seed: int, programs: list[Program]) -> "Renaming":
        names = sorted(
            {n for p in programs for n in _BASE_NAME.findall(p.source)},
            key=lambda n: int(n[1:]),
        )
        return cls(seed, names)

    def apply(self, source: str) -> str:
        return _BASE_NAME.sub(lambda m: self.forward[m.group(0)], source)

    def restore(self, report: str) -> str:
        return _RUN_NAME.sub(lambda m: f'"{self.back[m.group(1)]}"', report)
