"""Random program generation for the equivalence and robustness suites.

Generated programs keep expressions binary over plain variables, the
domain on which the three-branch additive rule and the original
nondeterministic rules describe the same derivation space.  Command
structure nests freely: sequences, conditionals, bounded loops and
while loops.
"""

from __future__ import annotations

import random

VARS = ("X1", "X2", "X3", "X4")
OPS = ("+", "-", "*")


class _Gen:
    def __init__(self, rng: random.Random, max_choices: int):
        self.rng = rng
        self.left = max_choices

    def expr(self) -> str:
        rng = self.rng
        a, b = rng.choice(VARS), rng.choice(VARS)
        if self.left > 0 and rng.random() < 0.75:
            op = rng.choice("+-")
            self.left -= 1
            return f"{a} {op} {b}"
        if rng.random() < 0.5:
            return f"{a} * {b}"
        return a

    def cond(self) -> str:
        a, b = self.rng.choice(VARS), self.rng.choice(VARS)
        op = self.rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return f"{a} {op} {b}"

    def commands(self, depth: int, count: int) -> list[str]:
        out: list[str] = []
        for _ in range(count):
            out.extend(self.command(depth))
        return out

    def command(self, depth: int) -> list[str]:
        rng = self.rng
        roll = rng.random()
        if depth >= 3 or roll < 0.55 or self.left == 0:
            return [f"{rng.choice(VARS)} = {self.expr()};"]
        if roll < 0.75:
            body = self.commands(depth + 1, rng.randint(0, 2))
            block = ["if (" + self.cond() + ") {", *body, "}"]
            if rng.random() < 0.6:
                else_body = self.commands(depth + 1, rng.randint(1, 2))
                block[-1] = "} else {"
                block.extend(else_body)
                block.append("}")
            return block
        if roll < 0.9:
            body = self.commands(depth + 1, rng.randint(1, 2))
            return [f"loop {rng.choice(VARS)} {{", *body, "}"]
        body = self.commands(depth + 1, rng.randint(1, 2))
        return ["while (" + self.cond() + ") {", *body, "}"]


def random_program(rng: random.Random, max_choices: int = 8) -> str:
    budget = rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, max_choices))
    g = _Gen(rng, budget)
    body = g.commands(0, rng.randint(1, 4))
    lines = ["function main() {", *("    " + line for line in body), "}"]
    return "\n".join(lines) + "\n"


def random_call_pair(rng: random.Random) -> str:
    """A callee plus a main whose single call to it sits between other work.

    The callee reads one variable of the caller's scope by name, which
    the caller itself may write (X3, X4) or not (X6), and sometimes
    writes a local other than its return variable, which may share a
    name with a caller variable.
    """
    callee_vars = ("X1", "X2")
    n_params = rng.randint(1, 2)
    params = callee_vars[:n_params]
    ret = "X5"
    body: list[str] = []
    pool = list(params) + [rng.choice(("X6", "X6", "X3", "X4"))]
    if rng.random() < 0.4:
        local = rng.choice(("X7", "X3", "X4"))
        op = rng.choice(OPS)
        body.append(f"    {local} = {rng.choice(pool)} {op} {rng.choice(pool)};")
        pool.append(local)
    kind = rng.random()
    if kind < 0.45:
        op = rng.choice(OPS)
        body.append(f"    {ret} = {rng.choice(pool)} {op} {rng.choice(pool)};")
    elif kind < 0.75:
        op = rng.choice("+-")
        body.append(f"    {ret} = {rng.choice(pool)} {op} {rng.choice(pool)};")
        body.append(f"    {ret} = {ret} * {rng.choice(pool)};")
    else:
        counter = params[0]
        op = rng.choice("+-")
        body.append(f"    loop {counter} {{ {ret} = {ret} {op} {rng.choice(pool)}; }}")
    callee = "function f(" + ", ".join(params) + ") {\n" + "\n".join(body) \
        + f"\n    return {ret};\n}}\n"

    caller_lines = ["function main() {"]
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(OPS)
        caller_lines.append(
            f"    {rng.choice(VARS)} = {rng.choice(VARS)} {op} {rng.choice(VARS)};"
        )
    args = ", ".join(rng.choice(VARS) for _ in range(n_params))
    caller_lines.append(f"    {rng.choice(VARS)} = f({args});")
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(OPS)
        caller_lines.append(
            f"    {rng.choice(VARS)} = {rng.choice(VARS)} {op} {rng.choice(VARS)};"
        )
    caller_lines.append("}")
    return callee + "\n".join(caller_lines) + "\n"


def chain_program(n_choices: int, n_vars: int = 6) -> str:
    """A call-free program whose choice count is exactly n_choices.

    A chain of conditional blocks rotating over a small variable pool:
    every block adds two independent choices whose flows thread through
    the later blocks, so the per-assignment view grows as 3^n while the
    polynomial view stays compact.
    """
    pool = [f"X{i + 1}" for i in range(n_vars)]
    lines = ["function main() {"]
    used = 0
    k = 0
    while used < n_choices:
        t = pool[k % n_vars]
        a = pool[(k + 1) % n_vars]
        b = pool[(k + 2) % n_vars]
        if used + 2 <= n_choices:
            lines.append(
                f"    if ({a} < {b}) {{ {t} = {a} + {b}; }}"
                f" else {{ {t} = {b} - {a}; }}"
            )
            used += 2
        else:
            lines.append(f"    {t} = {a} + {b};")
            used += 1
        k += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
