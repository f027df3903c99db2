import random

import pytest

from corpus import random_call_pair
from mwpflow import analysis
from mwpflow.analysis import FunctionSummary, analyze_program
from mwpflow.delta_graph import DeltaGraph
from mwpflow.frontend import parse, render
from mwpflow.inline import build_inlined, check_call_theorem
from mwpflow.frontend import Program
from mwpflow.semiring import INF

INLINE_PAIR = """
function f(X1){
    loop X1 { X2 = X2 + X3; }
    return X2;
}
function main(){
    X3 = X1 + X2;
    X2 = X3 + X1;
    X1 = f(X2);
}
"""


def test_build_inlined_golden():
    prog = parse(INLINE_PAIR)
    inlined = build_inlined(prog.function("main"), prog.function("f"))
    assert render(Program((inlined,))) == (
        "function main() {\n"
        "    X3 = X1 + X2;\n"
        "    X2 = X3 + X1;\n"
        "    __y1 = X2;\n"
        "    __v1 = X3;\n"
        "    loop __y1 {\n"
        "        __r1 = __r1 + __v1;\n"
        "    }\n"
        "    X1 = __r1;\n"
        "}\n"
    )


def test_build_inlined_identity_callee():
    src = "function f(X1){ X2 = X1; return X2; } function main(){ X3 = f(X4); }"
    prog = parse(src)
    inlined = build_inlined(prog.function("main"), prog.function("f"))
    assert render(Program((inlined,))) == (
        "function main() {\n"
        "    __y1 = X4;\n"
        "    __r1 = __y1;\n"
        "    X3 = __r1;\n"
        "}\n"
    )


def test_build_inlined_param_returning_callee_collapses_names():
    # when the return variable is itself a parameter, one fresh name
    # serves both roles so the flow through the copies is preserved
    src = "function f(X1){ return X1; } function main(){ X2 = f(X3); }"
    prog = parse(src)
    inlined = build_inlined(prog.function("main"), prog.function("f"))
    assert render(Program((inlined,))) == (
        "function main() {\n"
        "    __r1 = X3;\n"
        "    X2 = __r1;\n"
        "}\n"
    )


def test_build_inlined_copies_callee_variables_in():
    # every callee variable other than the parameters and the return
    # gets a fresh name, copied in from the caller variable of the same
    # name, whether the caller uses that name (X4) or not (X9)
    src = (
        "function f(X1){ X4 = X1 * X9; X2 = X4 + X9; return X2; }"
        " function main(){ X4 = X1 * X1; X5 = f(X4); }"
    )
    prog = parse(src)
    inlined = build_inlined(prog.function("main"), prog.function("f"))
    assert render(Program((inlined,))) == (
        "function main() {\n"
        "    X4 = X1 * X1;\n"
        "    __y1 = X4;\n"
        "    __v1 = X9;\n"
        "    __v2 = X4;\n"
        "    __v2 = __y1 * __v1;\n"
        "    __r1 = __v2 + __v1;\n"
        "    X5 = __r1;\n"
        "}\n"
    )


def test_build_inlined_requires_unique_call():
    src = (
        "function f(X1){ return X1; }"
        " function main(){ X2 = f(X1); X3 = f(X2); }"
    )
    prog = parse(src)
    with pytest.raises(ValueError):
        build_inlined(prog.function("main"), prog.function("f"))


def test_inlined_output_reanalyzes_cleanly():
    prog = parse(INLINE_PAIR)
    inlined = build_inlined(prog.function("main"), prog.function("f"))
    reparsed = parse(render(Program((inlined,))).replace("__", "Z"))
    assert reparsed.functions[0].name == "main"
    res = analyze_program(Program((inlined,)))
    r = res.functions["main"]
    assert set(r.variables) == {"X1", "X2", "X3", "__y1", "__r1", "__v1"}


def test_theorem_on_inline_pair():
    prog = parse(INLINE_PAIR)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert report.ok, report.failure
    assert report.checked_images == 9
    assert report.checked_poisoned == 18
    assert report.checked_merged == 0


def test_theorem_identity_callee():
    src = "function f(X1){ return X1; } function main(){ X2 = f(X3); }"
    prog = parse(src)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert report.ok, report.failure
    assert report.checked_poisoned == 0


def test_theorem_three_behavior_callee():
    src = (
        "function f(X1, X2){ X3 = X1 + X2; return X3; }"
        " function main(){ X4 = X1 - X2; X3 = f(X1, X4); }"
    )
    prog = parse(src)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert report.ok, report.failure
    # the three call-rule behaviors match the three inlined choices
    assert report.checked_images == 9
    assert report.checked_poisoned == 0
    assert report.checked_merged == 0


def test_theorem_call_nested_in_branch():
    src = """
    function f(X1){ X2 = X1 + X1; return X2; }
    function main(){
        X3 = X1 + X2;
        if (X1 < X2) { X4 = f(X3); } else { X4 = X3 * X1; }
        X1 = X4 - X2;
    }
    """
    prog = parse(src)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert report.ok, report.failure
    assert report.checked_merged > 0


def test_theorem_merged_behaviors():
    # X1 + X1 merges two of its three choices into one behavior
    src = (
        "function f(X1){ X2 = X1 + X1; return X2; }"
        " function main(){ X3 = f(X4); }"
    )
    prog = parse(src)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert report.ok, report.failure
    assert report.checked_merged == 1


def test_theorem_budget_refusal():
    # 3 caller and 3**9 inlined assignments: more than the budget.
    prog = parse(
        "function f(X1, X2){ " + "X3 = X1 + X2; " * 9 + "return X3; }"
        " function main(){ X3 = f(X1, X2); }"
    )
    with pytest.raises(ValueError, match="enumeration budget exceeded: 3 [+] 19683"):
        check_call_theorem(prog.function("main"), prog.function("f"))


def test_theorem_unbounded_callee_reports_failure():
    src = (
        "function f(X1){ while (X1 < X1) { X2 = X2 + X2; } return X2; }"
        " function main(){ X1 = f(X3); }"
    )
    prog = parse(src)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert not report.ok
    assert "summary" in report.failure


def test_empty_blame_verdict_matches_inlined_program():
    # The infinity sits only on the callee's own value, which main never
    # names, so main's blame is empty; inlining agrees on the verdict.
    src = (
        "function f() { while (X5 < X5) { X5 = X5 + X5; } return X5; }"
        " function main() { X1 = f(); }"
    )
    prog = parse(src)
    main = analyze_program(prog).functions["main"]
    inlined = build_inlined(prog.function("main"), prog.function("f"))
    expected = analyze_program(Program((inlined,))).functions["main"]
    assert main.blame == ()
    assert main.verdict == expected.verdict
    # The matrix has no cell to hold this infinity, yet the graph
    # covers every assignment.
    assert not any(m[0] == INF for row in main.matrix.entries for p in row for m in p.monomials)
    assert main.graph.sweep().count == 0


# A callee write to a local that the caller also names (X4), and a
# shared input the caller writes before the call (X5).
LOCAL_AND_SHARED_PAIRS = (
    "function f(X1, X2) { X3 = X1 + X2; X4 = X2 + X1; return X3; }"
    " function main() { X3 = f(X1, X2); }",
    "function f(X1) { X3 = X1 + X5; return X3; }"
    " function main() { X5 = X2 * X2; X3 = f(X1); }",
)


def test_theorem_random_pairs():
    for src in LOCAL_AND_SHARED_PAIRS:
        prog = parse(src)
        report = check_call_theorem(prog.function("main"), prog.function("f"))
        assert report.ok, f"{src}\n{report.failure}"
    rng = random.Random(301)
    checked = 0
    while checked < 25:
        src = random_call_pair(rng)
        prog = parse(src)
        try:
            report = check_call_theorem(prog.function("main"), prog.function("f"))
        except ValueError:
            continue
        if not report.ok and "summary" in (report.failure or ""):
            continue
        assert report.ok, f"{src}\n{report.failure}"
        checked += 1


# --- fault injection: each failure the check reports ----------------------

THREE_BEHAVIORS = (
    "function f(X1, X2){ X3 = X1 + X2; return X3; }"
    " function main(){ X4 = X1 - X2; X3 = f(X1, X4); }"
)


def _check_with_callee_summary(monkeypatch, edit):
    """Check THREE_BEHAVIORS with the summary of f passed through edit."""
    build = analysis._FunctionRun._build_summary

    def faulty(self, *args):
        found, summary = build(self, *args)
        return found, (edit(summary) if self.decl.name == "f" else summary)

    monkeypatch.setattr(analysis._FunctionRun, "_build_summary", faulty)
    prog = parse(THREE_BEHAVIORS)
    return check_call_theorem(prog.function("main"), prog.function("f"))


def test_theorem_catches_summary_missing_a_behavior(monkeypatch):
    report = _check_with_callee_summary(
        monkeypatch, lambda s: FunctionSummary(s.name, s.param_count, s.rows, s.behaviors[:-1])
    )
    assert not report.ok
    assert "unknown behavior" in report.failure


def test_theorem_catches_summary_with_mislabeled_rows(monkeypatch):
    # With the two parameter rows swapped, every clean block reads as
    # the mirrored behavior, which the caller matrix does not produce.
    report = _check_with_callee_summary(
        monkeypatch, lambda s: FunctionSummary(s.name, s.param_count, s.rows[::-1], s.behaviors)
    )
    assert not report.ok
    assert "disagrees with behavior" in report.failure


def test_theorem_catches_graph_poisoning_clean_blocks(monkeypatch):
    # The analysis never asks covered(); only the check reads it.
    monkeypatch.setattr(DeltaGraph, "covered", lambda self, assignment: True)
    prog = parse(THREE_BEHAVIORS)
    report = check_call_theorem(prog.function("main"), prog.function("f"))
    assert not report.ok
    assert "no infinity in projection" in report.failure
