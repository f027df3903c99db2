"""Lexer, parser and validation for the analyzed imperative language.

Programs are series of function declarations; exactly one must be named
main and take no parameters, and every call must target a function
declared earlier in the file (which also rules out recursion).  The
surface syntax is braces-and-semicolons:

    function f(X1, X2) {
        X3 = X1 + X2;
        loop X1 { X3 = X3 + X2; }
        return X3;
    }
    function main() {
        X1 = f(X2);
    }

Variables need no declaration.  Numeric literals are not part of the
language, and identifiers starting with a double underscore are reserved
for the inliner's fresh names.  Boolean conditions are parsed and kept
for round-tripping but carry no meaning for the analysis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

KEYWORDS = {"function", "return", "if", "else", "while", "loop"}

# Diagnostic codes
LEXICAL_ERROR = "lexical-error"
SYNTAX_ERROR = "syntax-error"
RESERVED_NAME = "reserved-name"
DUPLICATE_FUNCTION = "duplicate-function"
UNKNOWN_FUNCTION = "unknown-function"
MAIN_HAS_PARAMETERS = "main-has-parameters"
MISSING_MAIN = "missing-main"
CALL_ARITY = "call-arity"
NO_RETURN_VALUE = "no-return-value"
LOOP_COUNTER_ASSIGNED = "loop-counter-assigned"


class ParseError(Exception):
    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: [{code}] {message}")
        self.code = code
        self.reason = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: [{self.code}] {self.message}"


# --- AST -------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - *
    left: "Expr"
    right: "Expr"


Expr = Var | BinOp


@dataclass(frozen=True)
class Compare:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp:
    op: str  # && or ||
    left: "BExpr"
    right: "BExpr"


@dataclass(frozen=True)
class Not:
    operand: "BExpr"


BExpr = Compare | BoolOp | Not


@dataclass(frozen=True)
class Assign:
    target: str
    value: Expr
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class If:
    cond: BExpr
    then_body: tuple["Command", ...]
    else_body: tuple["Command", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class While:
    cond: BExpr
    body: tuple["Command", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Loop:
    counter: str
    body: tuple["Command", ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call:
    target: str
    function: str
    arguments: tuple[str, ...]
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


Command = Assign | If | While | Loop | Call


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    params: tuple[str, ...]
    body: tuple[Command, ...]
    returns: str | None
    pos: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Program:
    functions: tuple[FunctionDecl, ...]
    warnings: tuple[Diagnostic, ...] = field(default=(), compare=False)

    def function(self, name: str) -> FunctionDecl:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name}")


# --- Lexer -----------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# Spaces, then the first piece that matches; every character and the end
# of input start one, so the matches cover the source.  \w is isalnum()
# or "_"; a word is an identifier if it starts with a letter or "_".
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<word>\w+)
  | (?P<symbol>&&|\|\||[=!<>]=|[<>!+\-*=(){};,])
  | (?P<newline>\n)
  | (?P<skip>//[^\n]*|\Z)
  | (?P<other>.)
)""", re.VERBOSE)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group == "newline":
            line, line_start = line + 1, m.end()
            continue
        text, col = m[group], m.start(group) - line_start + 1
        if group == "symbol":
            tokens.append(Token(text, text, line, col))
        elif group == "word" and (text[0].isalpha() or text[0] == "_"):
            if text.startswith("__"):
                raise ParseError(
                    RESERVED_NAME,
                    f"identifier {text!r} uses the reserved double-underscore prefix",
                    line, col,
                )
            tokens.append(Token(text if text in KEYWORDS else "IDENT", text, line, col))
        elif group != "skip":
            message = ("numeric literals are not part of the language" if text[0].isdigit()
                       else f"unexpected character {text[0]!r}")
            raise ParseError(LEXICAL_ERROR, message, line, col)
    tokens.append(Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


# --- Parser ----------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> ParseError:
        t = self.cur
        return ParseError(SYNTAX_ERROR, message, t.line, t.col)

    def accept(self, kind: str) -> Token | None:
        if self.cur.kind == kind:
            t = self.cur
            self.pos += 1
            return t
        return None

    def expect(self, kind: str) -> Token:
        t = self.accept(kind)
        if t is None:
            raise self.error(f"expected {kind!r}, found {self.cur.text or 'end of input'!r}")
        return t

    def parse_program(self) -> Program:
        functions = []
        while self.cur.kind != "EOF":
            functions.append(self.parse_function())
        return Program(tuple(functions))

    def parse_function(self) -> FunctionDecl:
        start = self.expect("function")
        name = self.expect("IDENT").text
        self.expect("(")
        params: list[str] = []
        more = self.cur.kind == "IDENT"
        while more:
            t = self.expect("IDENT")
            if t.text in params:
                raise ParseError(
                    SYNTAX_ERROR, f"duplicate parameter {t.text} in {name}", t.line, t.col
                )
            params.append(t.text)
            more = self.accept(",") is not None
        self.expect(")")
        self.expect("{")
        body: list[Command] = []
        returns = None
        while not self.accept("}"):
            if self.accept("return"):
                returns = self.expect("IDENT").text
                self.expect(";")
                self.expect("}")
                break
            body.append(self.parse_command())
        return FunctionDecl(name, tuple(params), tuple(body), returns,
                            pos=(start.line, start.col))

    def parse_command(self) -> Command:
        t = self.cur
        if t.kind == "if":
            self.pos += 1
            self.expect("(")
            cond = self.parse_bexpr()
            self.expect(")")
            then_body = self.parse_block()
            else_body: tuple[Command, ...] = ()
            if self.accept("else"):
                else_body = self.parse_block()
            return If(cond, then_body, else_body, pos=(t.line, t.col))
        if t.kind == "while":
            self.pos += 1
            self.expect("(")
            cond = self.parse_bexpr()
            self.expect(")")
            return While(cond, self.parse_block(), pos=(t.line, t.col))
        if t.kind == "loop":
            self.pos += 1
            counter = self.expect("IDENT").text
            return Loop(counter, self.parse_block(), pos=(t.line, t.col))
        if t.kind == "IDENT":
            target = self.expect("IDENT").text
            self.expect("=")
            if self.cur.kind == "IDENT" and self.tokens[self.pos + 1].kind == "(":
                fname = self.expect("IDENT").text
                self.expect("(")
                args: list[str] = []
                if self.cur.kind == "IDENT":
                    args.append(self.expect("IDENT").text)
                    while self.accept(","):
                        args.append(self.expect("IDENT").text)
                self.expect(")")
                self.expect(";")
                return Call(target, fname, tuple(args), pos=(t.line, t.col))
            value = self.parse_expr()
            self.expect(";")
            return Assign(target, value, pos=(t.line, t.col))
        raise self.error(f"expected a command, found {t.text or 'end of input'!r}")

    def parse_block(self) -> tuple[Command, ...]:
        self.expect("{")
        body: list[Command] = []
        while not self.accept("}"):
            body.append(self.parse_command())
        return tuple(body)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind in ("+", "-"):
            op = self.cur.kind
            self.pos += 1
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.accept("*"):
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.accept("("):
            node = self.parse_expr()
            self.expect(")")
            return node
        t = self.expect("IDENT")
        return Var(t.text)

    def parse_bexpr(self) -> BExpr:
        node = self.parse_band()
        while self.accept("||"):
            node = BoolOp("||", node, self.parse_band())
        return node

    def parse_band(self) -> BExpr:
        node = self.parse_bfactor()
        while self.accept("&&"):
            node = BoolOp("&&", node, self.parse_bfactor())
        return node

    def parse_bfactor(self) -> BExpr:
        if self.accept("!"):
            return Not(self.parse_bfactor())
        # A "(" may open a parenthesized condition or a parenthesized
        # arithmetic operand of a comparison; try the comparison first
        # and fall back on backtracking.
        saved = self.pos
        try:
            left = self.parse_expr()
            op = self.cur.kind
            if op not in ("<", "<=", ">", ">=", "==", "!="):
                raise self.error("expected a comparison operator")
            self.pos += 1
            return Compare(op, left, self.parse_expr())
        except ParseError:
            self.pos = saved
        self.expect("(")
        node = self.parse_bexpr()
        self.expect(")")
        return node


# --- Validation ------------------------------------------------------

def walk_commands(body: Sequence[Command]) -> Iterator[Command]:
    """Every command of a body, each before the commands nested in it."""
    for c in body:
        yield c
        if isinstance(c, If):
            yield from walk_commands(c.then_body)
            yield from walk_commands(c.else_body)
        elif isinstance(c, (While, Loop)):
            yield from walk_commands(c.body)


def validate(program: Program) -> Program:
    """Check program-level invariants, returning the program with warnings."""
    seen: dict[str, FunctionDecl] = {}
    # id(assignment) -> its warning: one per assignment, however many
    # enclosing loops share the counter it writes
    warnings: dict[int, Diagnostic] = {}
    for decl in program.functions:
        line, col = decl.pos
        if decl.name in seen:
            raise ParseError(
                DUPLICATE_FUNCTION, f"function {decl.name} declared twice", line, col
            )
        if decl.name == "main" and decl.params:
            raise ParseError(
                MAIN_HAS_PARAMETERS, "main must take no parameters", line, col
            )
        for cmd in walk_commands(decl.body):
            if isinstance(cmd, Call):
                cline, ccol = cmd.pos
                callee = seen.get(cmd.function)
                if callee is None:
                    raise ParseError(
                        UNKNOWN_FUNCTION,
                        f"call to {cmd.function}, which is not declared earlier",
                        cline, ccol,
                    )
                if len(cmd.arguments) != len(callee.params):
                    raise ParseError(
                        CALL_ARITY,
                        f"{cmd.function} takes {len(callee.params)} arguments,"
                        f" got {len(cmd.arguments)}",
                        cline, ccol,
                    )
                if callee.returns is None:
                    raise ParseError(
                        NO_RETURN_VALUE,
                        f"{cmd.function} has no return value and cannot be called",
                        cline, ccol,
                    )
            elif isinstance(cmd, Loop):
                for inner in walk_commands(cmd.body):
                    if isinstance(inner, (Assign, Call)) and inner.target == cmd.counter:
                        warnings.setdefault(id(inner), Diagnostic(
                            LOOP_COUNTER_ASSIGNED,
                            f"loop counter {cmd.counter} is assigned inside its own body",
                            *inner.pos,
                        ))
        seen[decl.name] = decl
    mains = [f for f in program.functions if f.name == "main"]
    if len(mains) != 1:
        raise ParseError(MISSING_MAIN, "program needs exactly one function named main", 1, 1)
    return Program(program.functions, tuple(warnings.values()))


def parse(source: str) -> Program:
    """Parse and validate a source file into a Program."""
    program = _Parser(tokenize(source)).parse_program()
    return validate(program)


# --- Rendering -------------------------------------------------------

def render_expr(e: Expr) -> str:
    if isinstance(e, Var):
        return e.name
    left = render_expr(e.left)
    right = render_expr(e.right)
    if e.op == "*":
        if isinstance(e.left, BinOp) and e.left.op in "+-":
            left = f"({left})"
        if isinstance(e.right, BinOp):
            right = f"({right})"
    elif isinstance(e.right, BinOp) and e.right.op in "+-":
        right = f"({right})"
    return f"{left} {e.op} {right}"


def render_bexpr(b: BExpr) -> str:
    if isinstance(b, Compare):
        return f"{render_expr(b.left)} {b.op} {render_expr(b.right)}"
    if isinstance(b, Not):
        return f"!({render_bexpr(b.operand)})"
    return f"({render_bexpr(b.left)}) {b.op} ({render_bexpr(b.right)})"


def _render_commands(body: Sequence[Command], indent: int) -> list[str]:
    pad = "    " * indent
    lines: list[str] = []
    for c in body:
        if isinstance(c, Assign):
            lines.append(f"{pad}{c.target} = {render_expr(c.value)};")
        elif isinstance(c, Call):
            lines.append(f"{pad}{c.target} = {c.function}({', '.join(c.arguments)});")
        elif isinstance(c, If):
            lines.append(f"{pad}if ({render_bexpr(c.cond)}) {{")
            lines.extend(_render_commands(c.then_body, indent + 1))
            if c.else_body:
                lines.append(f"{pad}}} else {{")
                lines.extend(_render_commands(c.else_body, indent + 1))
            lines.append(pad + "}")
        elif isinstance(c, While):
            lines.append(f"{pad}while ({render_bexpr(c.cond)}) {{")
            lines.extend(_render_commands(c.body, indent + 1))
            lines.append(pad + "}")
        elif isinstance(c, Loop):
            lines.append(f"{pad}loop {c.counter} {{")
            lines.extend(_render_commands(c.body, indent + 1))
            lines.append(pad + "}")
    return lines


def render(program: Program) -> str:
    lines: list[str] = []
    for f in program.functions:
        lines.append(f"function {f.name}({', '.join(f.params)}) {{")
        lines.extend(_render_commands(f.body, 1))
        if f.returns is not None:
            lines.append(f"    return {f.returns};")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


# --- Variable collection ---------------------------------------------

def _occurrences(
    body: Sequence[Command],
    extra_at_call: Callable[[str], Sequence[str]] | None,
) -> Iterator[str]:
    # Derivation order: an expression's variables before the assignment
    # target, a loop body before its counter (the counter is touched
    # when the loop rule itself fires).  Condition variables never count.
    for c in body:
        if isinstance(c, Assign):
            yield from _expr_vars(c.value)
            yield c.target
        elif isinstance(c, Call):
            yield from c.arguments
            yield c.target
            if extra_at_call is not None:
                yield from extra_at_call(c.function)
        elif isinstance(c, If):
            yield from _occurrences(c.then_body, extra_at_call)
            yield from _occurrences(c.else_body, extra_at_call)
        elif isinstance(c, While):
            yield from _occurrences(c.body, extra_at_call)
        elif isinstance(c, Loop):
            yield from _occurrences(c.body, extra_at_call)
            yield c.counter


def _expr_vars(e: Expr) -> Iterator[str]:
    if isinstance(e, Var):
        yield e.name
    else:
        yield from _expr_vars(e.left)
        yield from _expr_vars(e.right)


def variable_order(
    decl: FunctionDecl,
    extra_at_call: Callable[[str], Sequence[str]] | None = None,
) -> tuple[str, ...]:
    """Parameters first, then other variables in derivation order.

    This order fixes matrix row and column indices.  extra_at_call lets
    the analyzer splice in a callee's shared input names at each call
    site.  A return variable the body never touches still occurs, at
    the return statement itself.
    """
    seen: dict[str, None] = dict.fromkeys(decl.params)
    for name in _occurrences(decl.body, extra_at_call):
        seen.setdefault(name)
    if decl.returns is not None:
        seen.setdefault(decl.returns)
    return tuple(seen)


def expression_vars(e: Expr) -> tuple[str, ...]:
    """Variables of an expression, deduplicated in first-occurrence order."""
    return tuple(dict.fromkeys(_expr_vars(e)))
