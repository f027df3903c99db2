import random

import pytest

from corpus import random_program
from mwpflow.analysis import analyze_program
from mwpflow.frontend import (
    Assign,
    BinOp,
    Call,
    Compare,
    If,
    Loop,
    ParseError,
    Var,
    While,
    parse,
    render,
    variable_order,
)


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
