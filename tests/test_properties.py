"""Generated-input properties, run by hypothesis.

Every property is derandomized, keeps no example database and has a
bounded example count, so a run is deterministic and short.
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwpflow.cli import run

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
_COND = st.tuples(_VAR, st.sampled_from(("<", "<=", "==", "!=")), _VAR).map(" ".join)


def _block(body):
    return st.lists(body, max_size=3).map(lambda cs: "{ " + " ".join(cs) + " }")


def _commands(calls: bool):
    simple = st.tuples(_VAR, _EXPR).map(lambda t: f"{t[0]} = {t[1]};")
    if calls:
        simple |= st.tuples(_VAR, _VAR).map(lambda t: f"{t[0]} = f({t[1]}, X4);")
    return st.recursive(simple, lambda body: st.one_of(
        st.tuples(_VAR, _block(body)).map(lambda t: f"loop {t[0]} {t[1]}"),
        st.tuples(_COND, _block(body)).map(lambda t: f"while ({t[0]}) {t[1]}"),
        st.tuples(_COND, _block(body), _block(body)).map(
            lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"),
    ), max_leaves=6)


_PROGRAM = st.tuples(st.lists(_commands(False), max_size=3),
                     st.lists(_commands(True), max_size=3)).map(
    lambda t: f"function f(X1, X2) {{ {' '.join(t[0])} return X3; }}"
              f" function main() {{ {' '.join(t[1])} }}")


@st.composite
def token_streams(draw):
    """A program of the language with up to three tokens dropped or
    inserted, or a stream of the language's tokens in any order."""
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(TOKENS), max_size=40))
    tokens = draw(_PROGRAM).split()
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
