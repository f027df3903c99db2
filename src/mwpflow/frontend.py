"""Lexer and checking parser for the analyzed imperative language.

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

The lexer is one regular-expression split, into each token's text and
start offset.  Line and column are computed only for what keeps them,
functions, commands and escaping errors, from a table of line starts.

The parser checks these rules, and that a callee is given as many
arguments as it has parameters and has a return value, as it builds the
tree; the first broken one is raised once the whole file has parsed, so
a syntax error anywhere wins.  An assignment or call to the counter of
an enclosing loop is warned of once, under the outermost such loop.

The AST nodes, Program and Diagnostic are immutable slotted Records.
Each class lists its fields once, in __slots__, and Record compiles its
constructor from them, so creating the classes loads no other module:
a node is built from its fields in __slots__ order, a command's pos and
a program's warnings may be omitted, and equality and hashing ignore
both.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterator, Sequence

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
        super().__init__(str(Diagnostic(code, message, line, col)))
        self.code = code
        self.reason = message
        self.line = line
        self.col = col


# --- Records ---------------------------------------------------------

_UNCOMPARED = ("pos", "warnings")


class Record:
    """An immutable record with one slot per field.

    A subclass names its fields once, in ``__slots__``, and may give
    trailing fields defaults in a class-level ``_defaults`` mapping.
    Its ``__init__`` is compiled from them when the class is created:
    it takes the fields in ``__slots__`` order, positionally or by
    keyword, and sets each one once through ``object.__setattr__``.
    Equality and hashing read the class and every field except a
    ``pos`` or ``warnings``, which say where a node stands or what
    the parser noticed, not what it means.  The repr names every field,
    and assigning to a field raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields, defaults = cls.__slots__, getattr(cls, "_defaults", {})
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec(f"def __init__(self, {params}):{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__ if f not in _UNCOMPARED])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.__class__, self._key()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return self.__class__, tuple([getattr(self, f) for f in self.__slots__])


class Diagnostic(Record):
    __slots__ = ("code", "message", "line", "col")

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: [{self.code}] {self.message}"


# --- AST -------------------------------------------------------------

class Var(Record):
    __slots__ = ("name",)


class BinOp(Record):
    __slots__ = ("op", "left", "right")  # op is one of + - *


Expr = Var | BinOp


class Compare(Record):
    __slots__ = ("op", "left", "right")  # op is one of == != < <= > >=


class BoolOp(Record):
    __slots__ = ("op", "left", "right")  # op is && or ||


class Not(Record):
    __slots__ = ("operand",)


BExpr = Compare | BoolOp | Not

# The pos of a command or declaration is the (line, column) of its first
# token; a node built by hand has (0, 0).  Bodies are tuples of commands.
_AT_START = {"pos": (0, 0)}


class Assign(Record):
    __slots__ = ("target", "value", "pos")
    _defaults = _AT_START


class If(Record):
    __slots__ = ("cond", "then_body", "else_body", "pos")
    _defaults = _AT_START


class While(Record):
    __slots__ = ("cond", "body", "pos")
    _defaults = _AT_START


class Loop(Record):
    __slots__ = ("counter", "body", "pos")
    _defaults = _AT_START


class Call(Record):
    __slots__ = ("target", "function", "arguments", "pos")
    _defaults = _AT_START


Command = Assign | If | While | Loop | Call


class FunctionDecl(Record):
    __slots__ = ("name", "params", "body", "returns", "pos")  # returns is a name or None
    _defaults = _AT_START


class Program(Record):
    __slots__ = ("functions", "warnings")
    _defaults = {"warnings": ()}

    def function(self, name: str) -> FunctionDecl:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name}")


# --- Lexer -----------------------------------------------------------

# Keywords, symbols and "", the end of input: the texts of no identifier.
_NOT_IDENT = KEYWORDS | {"", *"&& || == != <= >= < > ! + - * = ( ) { } ; ,".split()}

# A match is the spaces before a token and the token: a word, a symbol or
# any other character.  \w is isalnum() or "_"; a word is an identifier
# if it starts with a letter or "_", and other characters are errors.
_TOKEN = re.compile(r"([ \t\r\n]*)(\w+|[=!<>]=?|&&|\|\||[+\-*(){};,]|[^ \t\r\n])")
_COMMENT = re.compile(r"//[^\n]*")


def tokenize(source: str) -> tuple[list[str], list[int]]:
    """Each token's text and start offset, and "" at the end of input;
    the first word that is no identifier or other character raises."""
    if "//" in source:
        source = _COMMENT.sub(lambda m: " " * len(m[0]), source)  # offsets stay
    # "", spaces, token, "", spaces, token, ..., trailing spaces
    parts = _TOKEN.split(source)
    texts = parts[2::3]
    offsets = list(accumulate(map(len, parts)))[1::3]
    bad = [w for w in set(texts) - _NOT_IDENT
           if w[:2] == "__" or not (w[0].isalpha() or w[0] == "_")]
    if bad:
        i = min(map(texts.index, bad))
        t = texts[i]
        code, message = LEXICAL_ERROR, f"unexpected character {t[0]!r}"
        if t[0] == "_":
            code = RESERVED_NAME
            message = f"identifier {t!r} uses the reserved double-underscore prefix"
        elif t[0].isdigit():
            message = "numeric literals are not part of the language"
        raise ParseError(code, message, *position(line_starts(source), offsets[i]))
    texts.append("")
    offsets.append(len(source))
    return texts, offsets


def line_starts(source: str) -> list[int]:
    """The offset at which each line starts; only "\\n" ends a line."""
    return list(accumulate((len(line) + 1 for line in source.split("\n")), initial=0))


def position(starts: list[int], offset: int) -> tuple[int, int]:
    """The line and column, both from 1, of an offset, by bisection."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


# --- Parser ----------------------------------------------------------

class _Parser:
    def __init__(self, source: str):
        self.texts, self.offsets = tokenize(source)
        self.starts = line_starts(source)
        self.i = 0
        self.declared: dict[str, FunctionDecl] = {}  # the functions parsed so far
        self.loops: list[tuple[str, int]] = []  # (counter, first token) of enclosing loops
        # (first token of the outermost loop on the target's counter, first
        # token of the assignment or call) -> its warning; sorted in pre-order
        self.warnings: dict[tuple[int, int], Diagnostic] = {}
        self.error: ParseError | None = None  # the first semantic error

    def check(self, code: str, message: str, pos: tuple[int, int]) -> None:
        """Record a semantic error unless an earlier one is recorded."""
        self.error = self.error or ParseError(code, message, *pos)

    def pos(self, i: int) -> tuple[int, int]:
        return position(self.starts, self.offsets[i])

    def syntax_error(self, message: str, i: int) -> ParseError:
        """The syntax error at the token with index i."""
        return ParseError(SYNTAX_ERROR, message, *self.pos(i))

    def accept(self, text: str) -> bool:
        if self.texts[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, kind: str) -> str:
        """The text of the current token, which must be of this kind."""
        t = self.texts[self.i]
        if t != kind and (kind != "IDENT" or t in _NOT_IDENT):
            raise self.syntax_error(f"expected {kind!r}, found {t or 'end of input'!r}", self.i)
        self.i += 1
        return t

    def parse_program(self) -> Program:
        functions = []
        while self.texts[self.i]:
            functions.append(self.parse_function())
        if "main" not in self.declared:
            self.check(MISSING_MAIN, "program needs exactly one function named main", (1, 1))
        if self.error is not None:
            raise self.error
        return Program(tuple(functions), tuple([w for _, w in sorted(self.warnings.items())]))

    def parse_function(self) -> FunctionDecl:
        start = self.i
        self.expect("function")
        name = self.expect("IDENT")
        self.expect("(")
        params: list[str] = []
        more = self.texts[self.i] not in _NOT_IDENT
        while more:
            t = self.expect("IDENT")
            if t in params:
                raise self.syntax_error(f"duplicate parameter {t} in {name}", self.i - 1)
            params.append(t)
            more = self.accept(",")
        self.expect(")")
        pos = self.pos(start)
        if name in self.declared:
            self.check(DUPLICATE_FUNCTION, f"function {name} declared twice", pos)
        if name == "main" and params:
            self.check(MAIN_HAS_PARAMETERS, "main must take no parameters", pos)
        self.expect("{")
        body: list[Command] = []
        returns = None
        while not self.accept("}"):
            if self.accept("return"):
                returns = self.expect("IDENT")
                self.expect(";")
                self.expect("}")
                break
            body.append(self.parse_command())
        decl = FunctionDecl(name, tuple(params), tuple(body), returns, pos=pos)
        self.declared[name] = decl
        return decl

    def parse_command(self) -> Command:
        i = self.i
        t = self.texts[i]
        if t == "if" or t == "while":
            self.i += 1
            self.expect("(")
            cond = self.parse_bexpr()
            self.expect(")")
            body = self.parse_block()
            if t == "while":
                return While(cond, body, pos=self.pos(i))
            else_body = self.parse_block() if self.accept("else") else ()
            return If(cond, body, else_body, pos=self.pos(i))
        if t == "loop":
            self.i += 1
            counter = self.expect("IDENT")
            self.loops.append((counter, i))
            body = self.parse_block()
            self.loops.pop()
            return Loop(counter, body, pos=self.pos(i))
        if t not in _NOT_IDENT:
            self.i += 1
            self.expect("=")
            for counter, start in self.loops:
                if counter == t:  # one warning, however many loops share the counter
                    why = f"loop counter {t} is assigned inside its own body"
                    self.warnings[start, i] = Diagnostic(LOOP_COUNTER_ASSIGNED, why, *self.pos(i))
                    break
            texts = self.texts
            if texts[self.i] not in _NOT_IDENT and texts[self.i + 1] == "(":
                fname = texts[self.i]
                self.i += 2
                args: list[str] = []
                if texts[self.i] not in _NOT_IDENT:
                    args.append(self.expect("IDENT"))
                    while self.accept(","):
                        args.append(self.expect("IDENT"))
                self.expect(")")
                self.expect(";")
                pos = self.pos(i)
                callee = self.declared.get(fname)
                if callee is None:
                    why = f"call to {fname}, which is not declared earlier"
                    self.check(UNKNOWN_FUNCTION, why, pos)
                elif len(args) != len(callee.params):
                    why = f"{fname} takes {len(callee.params)} arguments, got {len(args)}"
                    self.check(CALL_ARITY, why, pos)
                elif callee.returns is None:
                    why = f"{fname} has no return value and cannot be called"
                    self.check(NO_RETURN_VALUE, why, pos)
                return Call(t, fname, tuple(args), pos=pos)
            value = self.parse_expr()
            self.expect(";")
            return Assign(t, value, pos=self.pos(i))
        raise self.syntax_error(f"expected a command, found {t or 'end of input'!r}", i)

    def parse_block(self) -> tuple[Command, ...]:
        self.expect("{")
        body: list[Command] = []
        while not self.accept("}"):
            body.append(self.parse_command())
        return tuple(body)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while (op := self.texts[self.i]) == "+" or op == "-":
            self.i += 1
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.texts[self.i] == "*":
            self.i += 1
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        if self.texts[self.i] == "(":
            self.i += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        return Var(self.expect("IDENT"))

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
        # and fall back on backtracking.  Only a syntax error can reach the
        # handler: semantic errors are recorded, lexical ones raised before.
        saved = self.i
        try:
            left = self.parse_expr()
            op = self.texts[self.i]
            if op not in ("<", "<=", ">", ">=", "==", "!="):
                raise self.syntax_error("expected a comparison operator", self.i)
            self.i += 1
            return Compare(op, left, self.parse_expr())
        except ParseError:
            self.i = saved
        self.expect("(")
        node = self.parse_bexpr()
        self.expect(")")
        return node


def parse(source: str) -> Program:
    """Parse and check a source file into a Program, with its warnings."""
    return _Parser(source).parse_program()


# --- Traversal -------------------------------------------------------

def walk_commands(body: Sequence[Command]) -> Iterator[Command]:
    """Every command of a body, each before the commands nested in it."""
    for c in body:
        yield c
        if isinstance(c, If):
            yield from walk_commands(c.then_body)
            yield from walk_commands(c.else_body)
        elif isinstance(c, (While, Loop)):
            yield from walk_commands(c.body)


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
