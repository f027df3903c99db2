"""Generated-input properties, run by hypothesis.

Every property is derandomized, keeps no example database and has a
bounded example count, so a run is deterministic and short.
"""

import contextlib
import io
import itertools
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mwpflow.analysis import analyze_program
from mwpflow.cli import run
from mwpflow.exhaustive import derivable_matrices, derive_with_picks
from mwpflow.frontend import (
    Assign, BinOp, BoolOp, Call, Compare, Diagnostic, FunctionDecl, If, Loop, Not, Program,
    Record, Var, While, parse, render, walk_commands,
)
from mwpflow.inline import _rebuild

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# The language's tokens, with a few near-misses: a reserved name, a
# numeric literal, a character outside the language and a comment.
TOKENS = (
    "function", "main", "f", "return", "if", "else", "while", "loop",
    "X1", "X2", "X3", "X4", "__X1", "1", "=", "+", "-", "*", "<", "<=", ">", ">=",
    "==", "!=", "!", "&&", "||", "(", ")", "{", "}", ";", ",", "\n", "// c\n", "$", "é",
)

_VAR = st.sampled_from(("X1", "X2", "X3", "X4"))
_EXPR = st.recursive(
    _VAR, lambda e: st.tuples(e, st.sampled_from("+-*"), e).map(" ".join), max_leaves=4)
_BINARY = st.tuples(_VAR, st.sampled_from("+-*"), _VAR).map(" ".join)
_COND = st.tuples(_VAR, st.sampled_from(("<", "<=", "==", "!=")), _VAR).map(" ".join)


def _block(body):
    return st.lists(body, max_size=3).map(lambda cs: "{ " + " ".join(cs) + " }")


def _commands(calls: bool, expr=_EXPR):
    simple = st.tuples(_VAR, expr).map(lambda t: f"{t[0]} = {t[1]};")
    if calls:
        simple |= st.tuples(_VAR, _VAR).map(lambda t: f"{t[0]} = f({t[1]}, X4);")
    return st.recursive(simple, lambda body: st.one_of(
        st.tuples(_VAR, _block(body)).map(lambda t: f"loop {t[0]} {t[1]}"),
        st.tuples(_COND, _block(body)).map(lambda t: f"while ({t[0]}) {t[1]}"),
        st.tuples(_COND, _block(body), _block(body)).map(
            lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"),
    ), max_leaves=6)


PROGRAMS = st.tuples(st.lists(_commands(False), max_size=3),
                     st.lists(_commands(True), max_size=3)).map(
    lambda t: f"function f(X1, X2) {{ {' '.join(t[0])} return X3; }}"
              f" function main() {{ {' '.join(t[1])} }}")


@st.composite
def token_streams(draw):
    """A program of the language with up to three tokens dropped or
    inserted, or a stream of the language's tokens in any order."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(TOKENS), max_size=40))
    tokens = draw(PROGRAMS).split()
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(tokens)))
        if pos < len(tokens) and draw(st.booleans()):
            del tokens[pos]
        else:
            tokens.insert(pos, draw(st.sampled_from(TOKENS)))
    return tokens


@pytest.fixture(scope="module")
def fresh_path(tmp_path_factory):
    """A new file path per call, so no example reads another's source."""
    directory, counter = tmp_path_factory.mktemp("generated"), itertools.count()
    return lambda: directory / f"{next(counter)}.imp"


def _run_every_mode(path, data: bytes) -> set:
    """The exit codes of the default, --json and --dump-ast runs."""
    path.write_bytes(data)
    codes = set()
    for mode in ([], ["--json"], ["--dump-ast"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.add(run([str(path), *mode]))
    return codes


@FIXED
@given(tokens=token_streams())
def test_cli_ends_in_a_report_or_a_diagnostic_on_token_streams(fresh_path, tokens):
    assert _run_every_mode(fresh_path(), " ".join(tokens).encode()) <= {0, 1, 2}


@FIXED
@given(data=st.binary(max_size=200))
def test_cli_ends_in_a_report_or_a_diagnostic_on_random_bytes(fresh_path, data):
    assert _run_every_mode(fresh_path(), data) <= {0, 1, 2}


# ASTs of valid programs: a callee f with zero to three parameters and a
# return, and a main that may call it.  Expressions nest + - * on either
# side, so render must parenthesize; conditions nest !, && and ||.
_NAME = st.sampled_from(("X1", "X2", "X3", "X4"))
_AST_EXPR = st.recursive(
    _NAME.map(Var), lambda e: st.builds(BinOp, st.sampled_from("+-*"), e, e), max_leaves=4)
_AST_COND = st.recursive(
    st.builds(Compare, st.sampled_from(("<", "<=", ">", ">=", "==", "!=")), _AST_EXPR, _AST_EXPR),
    lambda b: st.builds(Not, b) | st.builds(BoolOp, st.sampled_from(("&&", "||")), b, b),
    max_leaves=3)


def _ast_block(command):
    return st.lists(command, max_size=3).map(tuple)


def _ast_body(simple):
    """Blocks of simple commands nested in if, while and loop."""
    command = st.recursive(simple, lambda body: st.one_of(
        st.builds(If, _AST_COND, _ast_block(body), _ast_block(body)),  # empty else: no else
        st.builds(While, _AST_COND, _ast_block(body)),
        st.builds(Loop, _NAME, _ast_block(body)),
    ), max_leaves=4)
    return _ast_block(command)


_ASSIGN = st.builds(Assign, _NAME, _AST_EXPR)
_F_BODY = _ast_body(_ASSIGN)
# main's bodies by the arity of f
_MAIN_BODY = [_ast_body(_ASSIGN | st.builds(Call, _NAME, st.just("f"), st.tuples(*[_NAME] * k)))
              for k in range(4)]


@st.composite
def ast_programs(draw):
    params = tuple(draw(st.lists(_NAME, unique=True, max_size=3)))
    return Program((
        FunctionDecl("f", params, draw(_F_BODY), draw(_NAME)),
        FunctionDecl("main", (), draw(_MAIN_BODY[len(params)]), None),
    ))


@settings(FIXED, max_examples=50)
@given(program=ast_programs())
def test_parse_of_render_is_the_identity(program):
    assert parse(render(program)) == program


# Call-free mains whose expressions nest + - * to depth 2, inside loop,
# while and if.
_OPERAND = _VAR | _BINARY.map(lambda e: f"({e})")
_NESTED = st.tuples(_OPERAND, st.sampled_from("+-*"), _OPERAND).map(" ".join)
NESTED_MAINS = st.lists(_commands(False, _NESTED), min_size=1, max_size=3).map(
    lambda cs: f"function main() {{ {' '.join(cs)} }}")


@settings(FIXED, max_examples=50)
@given(source=NESTED_MAINS, seed=st.integers(0, 2**32 - 1))
def test_matrix_evaluates_to_the_replayed_derivation(source, seed):
    # At up to 20 assignments (all of them when there are no more), the
    # engine's matrix evaluates to the matrix derive_with_picks replays,
    # and the replay fails exactly where the matrix holds INF.
    program = parse(source)
    decl, result = program.functions[0], analyze_program(program).functions["main"]
    registry = result.registry
    if registry.count_assignments() <= 20:
        picks = list(registry.assignments())
    else:
        rng = random.Random(seed)
        picks = [tuple(rng.randrange(c) for c in registry.cardinalities) for _ in range(20)]
    for a in picks:
        flow, replay = result.matrix.evaluate(a), derive_with_picks(decl, a)
        assert (replay is None) == flow.contains_inf(), a
        assert replay is None or replay == flow, a


@settings(FIXED, max_examples=50)
@given(source=NESTED_MAINS)
def test_clean_images_are_the_derivable_matrices(source):
    # On up to 3^5 assignments, the images of the engine's matrix that
    # hold no INF are exactly the matrices the original rules derive.
    program = parse(source)
    result = analyze_program(program).functions["main"]
    assume(result.total_assignments <= 3 ** 5)
    clean = {flow for flow in map(result.matrix.evaluate, result.registry.assignments())
             if not flow.contains_inf()}
    assert clean == derivable_matrices(program.functions[0])


@settings(FIXED, max_examples=50)
@given(source=PROGRAMS)
def test_graph_and_sweep_match_the_full_scan_with_calls(source):
    # For each function with at most 3^5 assignments, the delta graph
    # covers exactly the assignments whose image holds INF, and the
    # sweep's clean count and sample are the full scan's.
    results = [r for r in analyze_program(parse(source)) if r.total_assignments <= 3 ** 5]
    assume(results)
    for result in results:
        clean = []
        for a in result.registry.assignments():
            dirty = result.matrix.evaluate(a).contains_inf()
            assert result.graph.covered(a) == dirty, (result.name, a)
            if not dirty:
                clean.append(a)
        assert result.clean_count == len(clean), result.name
        assert result.sample == (clean[0] if clean else None), result.name


# Spaces, line breaks of either kind, tabs and comments between tokens.
_SEPARATORS = st.sampled_from((" ", "\n", "\r\n  ", "\t", " // note\n", "\n\n    "))


@st.composite
def laid_out(draw, sources):
    words = draw(sources).split(" ")
    seps = draw(st.lists(_SEPARATORS, min_size=len(words) - 1, max_size=len(words) - 1))
    return words[0] + "".join(s + w for s, w in zip(seps, words[1:]))


def _first_token(node):
    if isinstance(node, FunctionDecl):
        return "function"
    if isinstance(node, (Assign, Call)):
        return node.target
    return {If: "if", While: "while", Loop: "loop"}[type(node)]


@FIXED
@given(source=laid_out(PROGRAMS | NESTED_MAINS))
def test_each_position_names_its_node_first_token(source):
    # Line and column of every function and command, counted in code
    # points on lines that only "\n" ends, point at its first token.
    lines = source.split("\n")
    for decl in parse(source).functions:
        for node in (decl, *walk_commands(decl.body)):
            line, col = node.pos
            assert lines[line - 1][col - 1:].startswith(_first_token(node)), (node, source)


def _records(node):
    """Every record of an AST value, each before the records inside it."""
    if isinstance(node, tuple):
        for x in node:
            yield from _records(x)
    elif isinstance(node, Record):
        yield node
        for f in node.__slots__:
            yield from _records(getattr(node, f))


@FIXED
@given(source=PROGRAMS | NESTED_MAINS)
def test_records_compare_by_class_and_meaning(source):
    # Equality and hashing read the class and every field but pos and a
    # program's warnings; records refuse assignment; and every field is
    # in __slots__, in __init__'s order, which _rebuild relies on.
    def positions(p):
        return [n.pos for n in (*p.functions, *walk_commands(p.functions[-1].body))]

    program = parse(source)
    again = parse(render(program))  # one line per command: other positions
    assert again == program and hash(again) == hash(program)
    assert positions(again) != positions(program)
    noted = Program(program.functions, (Diagnostic("code", "message", 1, 1),))
    assert noted == program and hash(noted) == hash(program) and repr(noted) != repr(program)
    assert pickle.loads(pickle.dumps(program)) == program
    for node in _records(program):
        assert repr(node).startswith(f"{type(node).__name__}({node.__slots__[0]}=")
        for f in node.__slots__:
            with pytest.raises(AttributeError):
                setattr(node, f, None)
        if isinstance(node, BinOp):
            assert node != BoolOp(node.op, node.left, node.right)
            assert node != Compare(node.op, node.left, node.right)
        elif isinstance(node, Loop):
            assert node != While(node.counter, node.body, node.pos)
    for decl in program.functions:
        rebuilt = _rebuild(decl.body, {})
        assert rebuilt == decl.body
        assert [c.pos for c in walk_commands(rebuilt)] == [c.pos for c in walk_commands(decl.body)]
    for result in analyze_program(program):
        with pytest.raises(AttributeError):
            result.verdict = None
        summary = result.summary
        if summary is not None:
            assert type(summary)(*[getattr(summary, f) for f in summary.__slots__]) == summary
