import hashlib
import inspect
import random
import re
from pathlib import Path

import pytest

import mwpflow.inline
from corpus import random_call_pair, random_program
from mwpflow.analysis import analyze_program
from mwpflow.frontend import (
    KEYWORDS,
    Assign,
    BinOp,
    Call,
    Compare,
    If,
    Loop,
    ParseError,
    Record,
    Var,
    While,
    line_starts,
    parse,
    position,
    render,
    tokenize,
    variable_order,
)
from validate_oracle import parse_then_validate


def test_parse_single_assignment():
    prog = parse("function main(){ X2 = X1 + X2; }")
    assert len(prog.functions) == 1
    main = prog.functions[0]
    assert main.name == "main" and main.params == () and main.returns is None
    assert main.body == (Assign("X2", BinOp("+", Var("X1"), Var("X2"))),)


def test_parse_loop():
    prog = parse("function main(){ loop X3 { X2 = X1 + X2; } }")
    assert prog.functions[0].body == (
        Loop("X3", (Assign("X2", BinOp("+", Var("X1"), Var("X2"))),)),
    )


def test_parse_two_functions_with_call():
    src = """
    function f(X1){ loop X1 { X2 = X2 + X3; } return X2; }
    function main(){ X3 = X1 + X2; X2 = X3 + X1; X1 = f(X2); }
    """
    prog = parse(src)
    assert [f.name for f in prog.functions] == ["f", "main"]
    f = prog.functions[0]
    assert f.params == ("X1",) and f.returns == "X2"
    main = prog.functions[1]
    assert main.body[-1] == Call("X1", "f", ("X2",))


def test_operator_precedence_and_parens():
    prog = parse("function main(){ X1 = X1 + X2 * X3 - X4; }")
    value = prog.functions[0].body[0].value
    assert value == BinOp(
        "-",
        BinOp("+", Var("X1"), BinOp("*", Var("X2"), Var("X3"))),
        Var("X4"),
    )
    prog2 = parse("function main(){ X1 = (X1 + X2) * X3; }")
    assert prog2.functions[0].body[0].value == BinOp(
        "*", BinOp("+", Var("X1"), Var("X2")), Var("X3")
    )


def test_if_without_else():
    prog = parse("function main(){ if (X1 < X2) { X1 = X2 * X2; } }")
    cmd = prog.functions[0].body[0]
    assert isinstance(cmd, If) and cmd.else_body == ()
    assert cmd.cond == Compare("<", Var("X1"), Var("X2"))


def test_bexpr_forms():
    src = """
    function main(){
        while ((X1 < X2) && !(X3 == X4) || X1 >= X4) { X1 = X1 * X2; }
        if ((X1 + X2) < X3) { X2 = X3; }
    }
    """
    prog = parse(src)
    assert isinstance(prog.functions[0].body[0], While)


@pytest.mark.parametrize(
    "src,code",
    [
        ("function main(){ X1 = 2; }", "lexical-error"),
        ("function main(){ X1 = X2 ? }", "lexical-error"),
        ("function main(){ X1 = ; }", "syntax-error"),
        ("function main(){ X1 = __x1; }", "reserved-name"),
        ("function f(){} function f(){} function main(){}", "duplicate-function"),
        ("function main(){ X1 = g(X2); }", "unknown-function"),
        ("function main(X1){}", "main-has-parameters"),
        ("function f(X1){ return X1; }", "missing-main"),
        (
            "function f(X1, X2){ return X1; } function main(){ X1 = f(X2); }",
            "call-arity",
        ),
        ("function f(X1){ X1 = X1 * X1; } function main(){ X2 = f(X1); }",
         "no-return-value"),
        # declaration order matters: g is declared after main
        ("function main(){ X1 = g(X2); } function g(X1){ return X1; }",
         "unknown-function"),
    ],
)
def test_diagnostic_codes(src, code):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert err.value.code == code
    assert err.value.line >= 1 and err.value.col >= 1


def test_duplicate_parameter_named_at_its_repeat():
    with pytest.raises(ParseError) as err:
        parse("function f(X1,\n    X2, X1){ return X1; }\nfunction main(){}")
    assert err.value.code == "syntax-error"
    assert err.value.reason == "duplicate parameter X1 in f"
    assert (err.value.line, err.value.col) == (2, 9)


@pytest.mark.parametrize("command, expected", [
    ("if ((X1 < X2) && ) { }", ("syntax-error", "expected '(', found ')'", 1, 36)),
    ("while ((X1 + X2) { }", ("syntax-error", "expected '(', found 'X1'", 1, 27)),
    ("if (!(X1 <)) { }", ("syntax-error", "expected '(', found 'X1'", 1, 25)),
    ("if ((X1) < ) { }", ("syntax-error", "expected '(', found 'X1'", 1, 24)),
])
def test_a_condition_that_fails_both_readings_is_reported_once(command, expected):
    # A "(" in a condition is first read as a comparison's operand, then,
    # after backtracking, as a parenthesized condition; the error is the
    # second reading's, with nothing of the first attached.
    with pytest.raises(ParseError) as err:
        parse(f"function main() {{ {command} }}")
    e = err.value
    assert (e.code, e.reason, e.line, e.col) == expected
    assert e.__context__ is None


def test_loop_counter_warning():
    prog = parse("function main(){ loop X1 { X1 = X1 + X2; } }")
    assert len(prog.warnings) == 1
    assert prog.warnings[0].code == "loop-counter-assigned"
    clean = parse("function main(){ loop X1 { X2 = X1 + X2; } }")
    assert clean.warnings == ()


def test_loop_counter_warning_once_per_assignment_in_nested_loops():
    prog = parse("function main(){ loop X2 { loop X2 { X2 = X1; } } }")
    assert [(w.code, w.line, w.col) for w in prog.warnings] == [
        ("loop-counter-assigned", 1, 38)
    ]
    # distinct assignments each get their own warning
    prog = parse("function main(){ loop X1 { X1 = X2; loop X2 { X1 = X2; X2 = X1; } } }")
    assert [(w.line, w.col) for w in prog.warnings] == [(1, 28), (1, 47), (1, 56)]


def _error(src):
    with pytest.raises(ParseError) as err:
        parse(src)
    return err.value.code, err.value.line, err.value.col


def test_a_syntax_error_after_a_semantic_one_is_reported():
    assert _error("function main(){ X1 = g(X2);\n X1 = ; }") == ("syntax-error", 2, 7)
    assert _error("function main(X1){}\nfunction f(){") == ("syntax-error", 2, 14)


@pytest.mark.parametrize("src, expected", [
    # a header is checked before its body, a duplicate before main's parameters
    ("function main(X1){ X2 = g(X1); }", ("main-has-parameters", 1, 1)),
    ("function f(X1){ return X1; }\nfunction f(X1){ return X1; }\nfunction main(X1){}",
     ("duplicate-function", 2, 1)),
    ("function main(){}\nfunction main(X1){}", ("duplicate-function", 2, 1)),
    # an earlier function's body before a later header
    ("function f(X1){ X1 = g(X1); return X1; }\nfunction main(X1){}",
     ("unknown-function", 1, 17)),
    # within a body, the first call in pre-order
    ("function f(X1){ return X1; }\n"
     "function main(){ loop X1 { if (X1 < X2) { X2 = f(X1, X2); } } X3 = g(X1); }",
     ("call-arity", 2, 43)),
    ("function f(X1){ X1 = X1; }\nfunction main(){ X3 = f(); X2 = f(X1); }",
     ("call-arity", 2, 18)),
    # missing-main comes last, whatever precedes it
    ("function f(X1){ X2 = g(X1); return X2; }", ("unknown-function", 1, 17)),
    ("function f(X1){ return X1; }\nfunction g(){ X2 = f(X1); }", ("missing-main", 1, 1)),
])
def test_first_semantic_error_in_declaration_and_pre_order(src, expected):
    assert _error(src) == expected


def test_loop_counter_warnings_follow_the_outermost_loop():
    prog = parse("function main(){ loop X1 { loop X2 { X2 = X3; X1 = X3; } } }")
    assert [(w.message, w.col) for w in prog.warnings] == [
        ("loop counter X1 is assigned inside its own body", 47),
        ("loop counter X2 is assigned inside its own body", 38),
    ]


def test_collect_vars_params_first():
    prog = parse("function f(X1){ X2 = X1; return X2; } function main(){ X1 = f(X3); }")
    assert variable_order(prog.functions[0]) == ("X1", "X2")


def test_collect_vars_loop_counter_at_rule_order():
    prog = parse("function main(){ loop X3 { X2 = X1 + X2; } }")
    assert variable_order(prog.functions[0]) == ("X1", "X2", "X3")


def test_collect_vars_call_program():
    src = """
    function f(X1){ loop X1 { X2 = X2 + X3; } return X2; }
    function main(){ X3 = X1 + X2; X2 = X3 + X1; X1 = f(X2); }
    """
    prog = parse(src)
    assert variable_order(prog.functions[1]) == ("X1", "X2", "X3")


def test_round_trip_stability():
    rng = random.Random(3)
    sources = [random_program(rng) for _ in range(60)]
    sources.append(
        "function f(X1, X2){ if (X1 < X2) { X3 = X1 - X2; } return X3; }\n"
        "function main(){ while ((X1 < X2) || !(X2 == X3)) { X1 = (X1 + X2) * X3; }\n"
        "X9 = f(X1, X2); }"
    )
    for src in sources:
        prog = parse(src)
        again = parse(render(prog))
        assert again.functions == prog.functions
        assert parse(render(again)).functions == again.functions


def test_collect_vars_stable_under_reparse():
    rng = random.Random(4)
    for _ in range(30):
        prog = parse(random_program(rng))
        again = parse(render(prog))
        assert [variable_order(f) for f in prog.functions] == [
            variable_order(f) for f in again.functions
        ]


def test_conditions_do_not_influence_matrices():
    a = "function main(){ while (X1 < X2) { X2 = X2 * X1; } if (X1 == X2) { X3 = X1 + X1; } }"
    b = "function main(){ while (X4 >= X4) { X2 = X2 * X1; } if (!(X2 < X3)) { X3 = X1 + X1; } }"
    ra = analyze_program(parse(a)).functions["main"]
    rb = analyze_program(parse(b)).functions["main"]
    assert ra.variables == rb.variables
    assert ra.matrix.entries == rb.matrix.entries
    assert ra.verdict == rb.verdict


# --- Checks made while parsing, against the two-pass oracle -------------
#
# Each mutation takes a generated program's lines and returns new ones.
# A call mutation finds nothing to change in a program with no call.

def _call_line(lines):
    return next((k for k, line in enumerate(lines) if "= f(" in line), None)


def _rename_call(rng, lines):
    k = _call_line(lines)
    if k is None:
        return lines
    name = rng.choice(("g", "main", "h"))  # undeclared, the caller itself, declared later
    later = ["function h(X1) {", "    return X1;", "}"] if name == "h" else []
    return [*lines[:k], lines[k].replace("= f(", f"= {name}("), *lines[k + 1:], *later]


def _change_arity(rng, lines):
    k = _call_line(lines)
    if k is None:
        return lines
    if rng.random() < 0.5:
        call = lines[k].replace(");", ", X4);")
    else:
        call = re.sub(r"(, )?X\d+\);", ");", lines[k])
    return [*lines[:k], call, *lines[k + 1:]]


def _drop_return(rng, lines):
    return [line for line in lines if not line.lstrip().startswith("return")]


def _duplicate_function(rng, lines):
    starts = [k for k, line in enumerate(lines) if line.startswith("function")]
    start = rng.choice(starts)
    end = lines.index("}", start) + 1
    at = rng.choice((end, len(lines)))
    return [*lines[:at], *lines[start:end], *lines[at:]]


def _main_parameter(rng, lines):
    return [line.replace("function main()", "function main(X1)") for line in lines]


def _rename_main(rng, lines):
    return [line.replace("function main(", "function m(") for line in lines]


def _assign_counters(rng, lines):
    """Assign an enclosing loop's counter at a few places, or wrap the
    call, if any, in a loop on its own target."""
    out = list(lines)
    k = _call_line(out)
    if k is not None and rng.random() < 0.5:
        target = out[k].split()[0]
        out[k:k + 1] = [f"    loop {target} {{", out[k], "    }"]
    for _ in range(rng.randint(1, 3)):
        sites = []  # (line after which to insert, counters of the loops open there)
        open_blocks = []
        for j, line in enumerate(out):
            text = line.strip()
            if text == "}" or text.startswith("} else"):
                open_blocks.pop()
            if text.endswith("{"):
                open_blocks.append(text.split()[1] if text.startswith("loop") else None)
            counters = [c for c in open_blocks if c]
            if counters and "return" not in text:
                sites.append((j, counters))
        if not sites:
            break
        j, counters = rng.choice(sites)
        out.insert(j + 1, f"    {rng.choice(counters)} = X1 + X2;")
    return out


def _syntax_error(rng, lines):
    at = rng.randint(0, len(lines))
    return [*lines[:at], "    X1 = ;", *lines[at:]]


_MUTATIONS = (_rename_call, _change_arity, _drop_return, _duplicate_function,
              _main_parameter, _rename_main, _assign_counters, _syntax_error)


def _outcome(parse_with, src):
    try:
        program = parse_with(src)
    except ParseError as e:
        return e.code, e.reason, e.line, e.col
    return program.functions, program.warnings


def test_parse_matches_parse_then_validate_on_mutated_corpus():
    rng = random.Random(32)
    codes = set()
    unordered = 0  # programs whose warnings are out of source order
    for n in range(900):
        lines = (random_call_pair(rng) if n % 3 == 1 else random_program(rng)).splitlines()
        mutations = rng.sample(_MUTATIONS, rng.choice((0, 1, 1, 2, 3)))
        for mutate in ([_assign_counters] if n % 3 == 2 else []) + mutations:
            lines = mutate(rng, lines)
        src = "\n".join(lines) + "\n"
        expected = _outcome(parse_then_validate, src)
        assert _outcome(parse, src) == expected, src
        if isinstance(expected[0], str):
            codes.add(expected[0])
        else:
            at = [(w.line, w.col) for w in expected[1]]
            unordered += at != sorted(at)
    assert codes == {"syntax-error", "duplicate-function", "unknown-function",
                     "main-has-parameters", "missing-main", "call-arity", "no-return-value"}
    assert unordered >= 5


def _kind(text):
    if not text:
        return "EOF"
    return "IDENT" if (text[0].isalpha() or text[0] == "_") and text not in KEYWORDS else text


def _lexed(src):
    """Each token as (kind, text, line, col), or the error the lexer raised."""
    try:
        texts, offsets = tokenize(src)
    except ParseError as e:
        return ("error", e.code, e.reason, e.line, e.col)
    starts = line_starts(src)
    return [(_kind(t), t, *position(starts, o)) for t, o in zip(texts, offsets)]


_NUMERIC = "numeric literals are not part of the language"
_RESERVED = "identifier '__a' uses the reserved double-underscore prefix"

# What the per-character lexer gave, token by token or as the error it
# raised.  The two entries ending in a comment are the exception: that
# lexer left the column at the comment's start, so end of input was
# placed inside the comment; it now follows the comment.
LEXER_TABLE = [
    ("function\tmain(){}", [
        ("function", "function", 1, 1), ("IDENT", "main", 1, 10), ("(", "(", 1, 14),
        (")", ")", 1, 15), ("{", "{", 1, 16), ("}", "}", 1, 17), ("EOF", "", 1, 18)]),
    ("function main(){\r\n    X1 = X2;\r\n}\r\n", [
        ("function", "function", 1, 1), ("IDENT", "main", 1, 10), ("(", "(", 1, 14),
        (")", ")", 1, 15), ("{", "{", 1, 16), ("IDENT", "X1", 2, 5), ("=", "=", 2, 8),
        ("IDENT", "X2", 2, 10), (";", ";", 2, 12), ("}", "}", 3, 1), ("EOF", "", 4, 1)]),
    ("function main(){\x0b}",
     ("error", "lexical-error", "unexpected character '\\x0b'", 1, 17)),
    ("X\xa0Y", ("error", "lexical-error", "unexpected character '\\xa0'", 1, 2)),
    ("a\rb", [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("EOF", "", 1, 4)]),
    ("", [("EOF", "", 1, 1)]),
    ("// only a comment", [("EOF", "", 1, 18)]),  # was 1:1
    ("// c\n", [("EOF", "", 2, 1)]),
    ("function main(){\n}// end", [
        ("function", "function", 1, 1), ("IDENT", "main", 1, 10), ("(", "(", 1, 14),
        (")", ")", 1, 15), ("{", "{", 1, 16), ("}", "}", 2, 1),
        ("EOF", "", 2, 8)]),  # was 2:2
    ("a//b\nc", [("IDENT", "a", 1, 1), ("IDENT", "c", 2, 1), ("EOF", "", 2, 2)]),
    ("Xé ª a² _a", [
        ("IDENT", "Xé", 1, 1), ("IDENT", "ª", 1, 4), ("IDENT", "a²", 1, 6),
        ("IDENT", "_a", 1, 9), ("EOF", "", 1, 11)]),
    # Letters that are numerals too start an identifier; other numerals
    # continue one but start none.
    ("一二", [("IDENT", "一二", 1, 1), ("EOF", "", 1, 3)]),
    ("X½ XⅧ", [("IDENT", "X½", 1, 1), ("IDENT", "XⅧ", 1, 4), ("EOF", "", 1, 6)]),
    ("__a", ("error", "reserved-name", _RESERVED, 1, 1)),
    ("X1 __a", ("error", "reserved-name", _RESERVED, 1, 4)),
    ("²", ("error", "lexical-error", _NUMERIC, 1, 1)),
    ("X1 = ²;", ("error", "lexical-error", _NUMERIC, 1, 6)),
    ("٣", ("error", "lexical-error", _NUMERIC, 1, 1)),
    ("1a", ("error", "lexical-error", _NUMERIC, 1, 1)),
    ("Ⅷ", ("error", "lexical-error", "unexpected character 'Ⅷ'", 1, 1)),
    ("½", ("error", "lexical-error", "unexpected character '½'", 1, 1)),
    ("&&&", ("error", "lexical-error", "unexpected character '&'", 1, 3)),
    ("|", ("error", "lexical-error", "unexpected character '|'", 1, 1)),
    ("!==", [("!=", "!=", 1, 1), ("=", "=", 1, 3), ("EOF", "", 1, 4)]),
    ("&& || == != <= >= < > ! + - * = ( ) { } ; ,", [
        ("&&", "&&", 1, 1), ("||", "||", 1, 4), ("==", "==", 1, 7), ("!=", "!=", 1, 10),
        ("<=", "<=", 1, 13), (">=", ">=", 1, 16), ("<", "<", 1, 19), (">", ">", 1, 21),
        ("!", "!", 1, 23), ("+", "+", 1, 25), ("-", "-", 1, 27), ("*", "*", 1, 29),
        ("=", "=", 1, 31), ("(", "(", 1, 33), (")", ")", 1, 35), ("{", "{", 1, 37),
        ("}", "}", 1, 39), (";", ";", 1, 41), (",", ",", 1, 43), ("EOF", "", 1, 44)]),
]


@pytest.mark.parametrize("src, expected", LEXER_TABLE,
                         ids=[repr(src) for src, _ in LEXER_TABLE])
def test_lexer_edge_table(src, expected):
    assert _lexed(src) == expected


# sha256 of repr() of each example's token list as (kind, text, line, col).
EXAMPLE_TOKEN_DIGESTS = {
    "branching_assignments": "e2f858fc102bb09b6b36ab319fa806f5f09670501ae5424c0ba66bc970271a2e",
    "inline_pair": "11e9cb2bd8ad5171b1bfc63b7d6f64318bbcdfd55afa91388165824c60fe7f18",
    "iteration_dependent_loop":
        "3756de78340d001e10c54054451a8de3d21a968f711ba4f668ca7db3199478ba",
    "straightline": "d0eb7b437527f77bebfee5b24daaa67964061eba6393b56f16a11eb29bc607a6",
    "three_behaviors": "93695eb43e8627b45b1e3526766f1f564f169abf993c28f83ad1bf1183131880",
    "while_feedback": "d01f404f9121f17a95b0bdba1ed6fef8447aa2e68f0a9d3bfd80f39460a6bb83",
}


@pytest.mark.parametrize("name", sorted(EXAMPLE_TOKEN_DIGESTS))
def test_example_token_digests(name):
    source = (Path(__file__).resolve().parent.parent / "programs" / f"{name}.imp").read_text()
    digest = hashlib.sha256(repr(_lexed(source)).encode()).hexdigest()
    assert digest == EXAMPLE_TOKEN_DIGESTS[name]


def test_trailing_comment_error_points_past_the_comment():
    with pytest.raises(ParseError) as err:
        parse("function f(X1){\n  return X1;// end")
    assert (err.value.line, err.value.col) == (2, 19)
    assert err.value.reason == "expected '}', found 'end of input'"


@pytest.mark.parametrize("last, code, col", [("X2 +;", "syntax-error", 14),
                                             ("X2 + ²;", "lexical-error", 15)])
def test_error_on_the_last_line_of_a_long_crlf_file(last, code, col):
    # Line 3000 of a file whose lines end in "\r\n", of which only the
    # "\n" ends a line.
    src = "function main() {\r\n" + "    X1 = X2 + X3;\r\n" * 2998 + f"    X1 = {last}\r\n}}\r\n"
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.code, err.value.line, err.value.col) == (code, 3000, col)


# Every record class of the three modules that hold them, and the only
# fields that may be omitted, with their defaults.
RECORDS = sorted((cls for cls in Record.__subclasses__() if cls.__module__ in (
    "mwpflow.frontend", "mwpflow.analysis", "mwpflow.inline")), key=lambda cls: cls.__name__)
OPTIONAL = {"pos": (0, 0), "warnings": (), "failure": None}


def test_every_record_class_is_checked():
    assert mwpflow.inline.InlineReport in RECORDS
    assert len(RECORDS) == 17


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor_takes_its_slots_in_order(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(cls.__slots__)
    assert {p.name: p.default for p in params if p.default is not p.empty} == {
        f: OPTIONAL[f] for f in cls.__slots__ if f in OPTIONAL}
    values = [f"value of {f}" for f in cls.__slots__]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, f) for f in cls.__slots__] == values
    for f in cls.__slots__:
        if f not in OPTIONAL:
            with pytest.raises(TypeError):
                cls(**{g: v for g, v in zip(cls.__slots__, values) if g != f})
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
