import itertools
import random

import pytest

from corpus import random_call_pair, random_program
from mwpflow.analysis import (
    BOUNDED,
    CONDITIONALLY_BOUNDED,
    UNBOUNDED,
    analyze_program,
)
from mwpflow.frontend import parse
from mwpflow.polynomial import ChoiceMatrix, Monomial, Polynomial, delta
from mwpflow.semiring import INF, M, P, W, ZERO, FlowMatrix


def poly(*monos):
    return Polynomial.of(Monomial(s, tuple(sorted(ds))) for s, ds in monos)


def analyze_main(src):
    return analyze_program(parse(src)).functions["main"]


# --- expression vectors, observed through assignment columns -----------

def column(result, target):
    j = result.matrix.index(target)
    return [result.matrix.entry(i, j) for i in range(len(result.variables))]


def test_additive_expression_vector():
    r = analyze_main("function main(){ X3 = X1 + X2; }")
    assert r.variables == ("X1", "X2", "X3")
    x1, x2, x3 = column(r, "X3")
    assert x1 == poly((M, [delta(0, 0)]), (P, [delta(1, 0)]), (W, [delta(2, 0)]))
    assert x2 == poly((P, [delta(0, 0)]), (M, [delta(1, 0)]), (W, [delta(2, 0)]))
    assert x3.is_zero
    # choice 0 keeps the left operand at m, choice 1 the right, choice 2
    # pays w on both; exactly the three derivations of the plain rules
    images = {a: r.matrix.evaluate(a) for a in r.registry.assignments()}
    assert images[(0,)].rows[0][2] == M and images[(0,)].rows[1][2] == P
    assert images[(1,)].rows[0][2] == P and images[(1,)].rows[1][2] == M
    assert images[(2,)].rows[0][2] == W and images[(2,)].rows[1][2] == W


def test_multiplicative_expression_vector():
    r = analyze_main("function main(){ X3 = X1 * X2; }")
    assert len(r.registry) == 0
    x1, x2, _ = column(r, "X3")
    assert x1 == Polynomial.const(W)
    assert x2 == Polynomial.const(W)


def test_same_variable_addition_merges_components():
    r = analyze_main("function main(){ X2 = X1 + X1; }")
    x1, _ = column(r, "X2")
    assert x1 == poly((P, [delta(0, 0)]), (P, [delta(1, 0)]), (W, [delta(2, 0)]))


def test_compound_operands_recurse():
    r = analyze_main("function main(){ X4 = X1 + X2 + X3; }")
    assert len(r.registry) == 2
    assert r.verdict == BOUNDED
    # inner choice allocated before outer: depth-first, children first
    x3 = column(r, "X4")[2]
    assert x3.evaluate((0, 0)) == P  # outer pick 0 puts p on the right operand
    assert x3.evaluate((0, 1)) == M


# --- command matrices ---------------------------------------------------

def test_plain_copy_assignment_matrix():
    r = analyze_main("function main(){ X1 = X2; }")
    assert r.variables == ("X2", "X1")
    # row/column view over (X2, X1): copying kills X1's own flow
    assert r.matrix.evaluate(()) == FlowMatrix([[M, M], [ZERO, ZERO]])


def test_loop_golden_matrix():
    r = analyze_main("function main(){ loop X3 { X2 = X1 + X2; } }")
    assert r.variables == ("X1", "X2", "X3")
    m = r.matrix
    d0, d1, d2 = [delta(0, 0)], [delta(1, 0)], [delta(2, 0)]
    assert m.entry(0, 1) == poly((P, d0), (P, d1), (W, d2))
    assert m.entry(1, 1) == poly((M, []), (INF, d0), (INF, d2))
    assert m.entry(2, 1) == poly((P, d0), (P, d1))
    for i, j in itertools.product(range(3), range(3)):
        if j != 1:
            expected = Polynomial.const(M) if i == j else Polynomial.const(ZERO)
            assert m.entry(i, j) == expected
    assert r.verdict == CONDITIONALLY_BOUNDED
    assert r.sample == (1,)
    assert r.blame == (("X2", "X2"),)
    assert m.evaluate((1,)) == FlowMatrix(
        [[M, P, ZERO], [ZERO, M, ZERO], [ZERO, P, M]]
    )
    assert m.evaluate((0,)).entry(1, 1) == INF
    assert m.evaluate((2,)).entry(1, 1) == INF


def test_branching_golden_matrix():
    r = analyze_main(
        "function main(){ if (X1 < X2) { X1 = X1 + X2; } else { X1 = X1 - X3; } }"
    )
    m = r.matrix
    assert r.variables == ("X1", "X2", "X3")
    assert m.entry(1, 0) == poly(
        (P, [delta(0, 0)]), (M, [delta(1, 0)]), (W, [delta(2, 0)])
    )
    assert m.entry(2, 0) == poly(
        (P, [delta(0, 1)]), (M, [delta(1, 1)]), (W, [delta(2, 1)])
    )
    table = {
        (a, b): m.entry(0, 0).evaluate((a, b))
        for a in range(3) for b in range(3)
    }
    assert table == {
        (0, 0): M, (0, 1): P, (0, 2): W,
        (1, 0): P, (1, 1): P, (1, 2): P,
        (2, 0): W, (2, 1): P, (2, 2): W,
    }
    assert r.verdict == BOUNDED


def test_while_adds_inf_on_polynomial_flows():
    r = analyze_main("function main(){ while (X1 < X2) { X2 = X1 + X2; } }")
    assert r.verdict == UNBOUNDED
    assert r.graph.sweep().count == 0
    assert r.sample is None
    # every choice poisons either the diagonal or the polynomial cell
    for a in r.registry.assignments():
        assert r.matrix.evaluate(a).contains_inf()


def test_sequencing_composes_flows():
    r = analyze_main("function main(){ X2 = X1 * X1; X3 = X2 * X2; }")
    flow = r.matrix.evaluate(())
    i, j = r.matrix.index("X1"), r.matrix.index("X3")
    assert flow.entry(i, j) == W


# --- whole-program runs -------------------------------------------------

def test_straight_line_program_is_bounded():
    r = analyze_main(
        "function main(){ X1 = X1 + X2; X3 = X1 - X4; X2 = X3 + X3; }"
    )
    assert r.verdict == BOUNDED
    assert r.clean_count == r.total_assignments == 27
    assert r.sample == (0, 0, 0)
    assert r.blame == ()


def test_loop_program_is_conditionally_bounded():
    r = analyze_main("function main(){ loop X3 { X2 = X1 + X2; } }")
    assert r.verdict == CONDITIONALLY_BOUNDED
    assert r.clean_count == 1
    assert r.total_assignments == 3


def test_empty_main():
    r = analyze_main("function main(){ }")
    assert r.verdict == BOUNDED
    assert r.variables == ()
    assert r.sample == ()
    assert r.blame == ()


def test_evaluate_rejects_bad_assignments():
    r = analyze_main("function main(){ X2 = X1 + X2; }")
    with pytest.raises(ValueError):
        r.matrix.evaluate(())
    with pytest.raises(ValueError):
        r.matrix.evaluate((3,))


def test_determinism_bit_identical_reruns():
    src = """
    function f(X1){ loop X1 { X2 = X2 + X3; } return X2; }
    function main(){ X3 = X1 + X2; if (X1 < X2) { X2 = X3 + X1; } X1 = f(X2); }
    """
    runs = [analyze_program(parse(src)) for _ in range(2)]
    for name in ("f", "main"):
        a, b = runs[0].functions[name], runs[1].functions[name]
        assert a.variables == b.variables
        assert a.matrix.entries == b.matrix.entries
        assert a.registry.cardinalities == b.registry.cardinalities
        assert a.sample == b.sample
        assert a.blame == b.blame


def test_branch_order_changes_labels_not_images():
    # a choice-free prefix pins the variable order in both programs
    prefix = "X1 = X1 * X2; X3 = X3 * X3; "
    a = analyze_main(
        "function main(){ " + prefix
        + "if (X1 < X2) { X1 = X1 + X2; } else { X1 = X2 * X3; } }"
    )
    b = analyze_main(
        "function main(){ " + prefix
        + "if (X1 < X2) { X1 = X2 * X3; } else { X1 = X1 + X2; } }"
    )
    assert a.variables == b.variables
    images_a = {a.matrix.evaluate(al) for al in a.registry.assignments()}
    images_b = {b.matrix.evaluate(al) for al in b.registry.assignments()}
    assert images_a == images_b


def test_safe_loop_matches_unconditional_rule():
    # when the body closure stays m on the diagonal at every choice, the
    # INF corrections never fire and the plain loop rule's output shows
    r = analyze_main("function main(){ loop X3 { X2 = X1 * X1; } }")
    assert r.verdict == BOUNDED
    flow = r.matrix.evaluate(())
    x1, x2, x3 = (r.matrix.index(v) for v in ("X1", "X2", "X3"))
    assert flow.entry(x1, x2) == W
    assert flow.entry(x3, x2) == ZERO
    # the closure restores the overwritten diagonal to m
    assert flow.entry(x2, x2) == M


def test_loop_marks_counter_column_with_p():
    r = analyze_main("function main(){ loop X3 { X2 = X1; X1 = X2 + X4; } }")
    for a in r.registry.assignments():
        flow = r.matrix.evaluate(a)
        if not flow.contains_inf():
            star_cols_with_p = {
                j for i in range(flow.dim) for j in range(flow.dim)
                if flow.entry(i, j) == P
            }
            x3 = r.matrix.index("X3")
            for j in star_cols_with_p:
                assert flow.entry(x3, j) == P


def test_loop_counter_takes_p_of_topped_diagonal():
    # The counter's row reads the closure's p monomials, also those of a
    # diagonal cell that the same rule tops with INF.
    r = analyze_main("function main(){ loop X1 { X2 = X2 + X2; } }")
    x1, x2 = r.matrix.index("X1"), r.matrix.index("X2")
    picks = [delta(v, 0) for v in range(3)]
    assert r.matrix.entry(x2, x2) == poly((M, []), *((INF, [d]) for d in picks))
    assert r.matrix.entry(x1, x2) == poly(*((P, [d]) for d in picks[:2]))


# --- function summaries and calls ---------------------------------------

def test_summary_single_copy_behavior():
    src = "function f(X1){ X2 = X1; return X2; } function main(){ X3 = f(X4); }"
    res = analyze_program(parse(src))
    s = res.functions["f"].summary
    assert s.rows == ("X1",)
    assert s.behaviors == ((M,),)


def test_summary_three_behaviors():
    src = (
        "function f(X1, X2){ X3 = X1 + X2; return X3; }"
        " function main(){ X3 = f(X1, X2); }"
    )
    res = analyze_program(parse(src))
    s = res.functions["f"].summary
    assert s.rows == ("X1", "X2")
    assert set(s.behaviors) == {(M, P), (P, M), (W, W)}
    assert len(s.behaviors) == 3
    main = res.functions["main"]
    assert len(main.registry) == 1
    assert main.registry.cardinality(0) == 3
    assert main.verdict == BOUNDED


def test_summary_keeps_only_clean_choices():
    src = (
        "function f(X1){ loop X1 { X2 = X2 + X3; } return X2; }"
        " function main(){ X1 = f(X2); }"
    )
    res = analyze_program(parse(src))
    s = res.functions["f"].summary
    assert s.rows == ("X1", "X3")
    assert s.behaviors == ((P, P),)


def _scanned_behaviors(result, returns):
    """Behaviors of every clean assignment, in order of first occurrence."""
    ret = result.matrix.index(returns)
    rows = [result.matrix.index(v) for v in result.summary.rows]
    behaviors = {}
    for a in result.registry.assignments():
        if not result.matrix.evaluate(a).contains_inf():
            behaviors.setdefault(tuple(result.matrix.entry(i, ret).evaluate(a) for i in rows))
    return tuple(behaviors)


def test_summary_matches_full_scan_on_generated_callees():
    rng = random.Random(515)
    sources = [random_call_pair(rng) for _ in range(100)]
    # Bodies with loops and several sites, where the graph and the
    # return column mention different indices.
    for _ in range(100):
        body = random_program(rng, max_choices=6)
        sources.append(
            body.replace("function main() {", "function f(X1) {", 1)[:-2]
            + "    return X2;\n}\nfunction main() { X3 = f(X4); }\n"
        )
    # Returns that accumulate several additive sites, whose return
    # column holds many monomials per entry.
    for _ in range(30):
        sites = "".join(
            f"    X3 = X3 {rng.choice('+-')} X{rng.choice((1, 2, 4))};\n"
            for _ in range(rng.randint(3, 5))
        )
        sources.append(
            f"function f(X1, X2) {{\n{sites}    return X3;\n}}\n"
            "function main() { X3 = f(X1, X2); }\n"
        )
    for src in sources:
        prog = parse(src)
        f = analyze_program(prog).functions["f"]
        assert f.summary.behaviors == _scanned_behaviors(f, prog.function("f").returns), src


def test_call_maps_shared_variable_by_name():
    src = (
        "function f(X1){ X2 = X1 + X9; return X2; }"
        " function main(){ X5 = f(X4); }"
    )
    res = analyze_program(parse(src))
    main = res.functions["main"]
    assert "X9" in main.variables
    x9, x5 = main.matrix.index("X9"), main.matrix.index("X5")
    values = {main.matrix.entry(x9, x5).evaluate(a) for a in main.registry.assignments()}
    assert values == {M, P, W}


def test_call_with_repeated_argument_joins_flows():
    src = (
        "function f(X1, X2){ X3 = X1 + X2; return X3; }"
        " function main(){ X2 = f(X1, X1); }"
    )
    res = analyze_program(parse(src))
    main = res.functions["main"]
    x1, x2 = main.matrix.index("X1"), main.matrix.index("X2")
    values = {main.matrix.entry(x1, x2).evaluate(a) for a in main.registry.assignments()}
    assert values == {P, W}


def test_return_variable_untouched_by_body():
    # returning a variable the body never assigns means returning its
    # initial value; inlining renames it fresh, so the caller receives
    # no flow at all, and the call column stays empty
    src = """
    function f(X1){ X2 = X1 + X1; return X9; }
    function main(){ X3 = f(X4); X2 = X3 + X4; }
    """
    res = analyze_program(parse(src))
    f = res.functions["f"]
    assert f.variables == ("X1", "X2", "X9")
    assert f.summary.rows == ("X1", "X2")
    assert f.summary.behaviors == ((ZERO, ZERO),)
    main = res.functions["main"]
    x3 = main.matrix.index("X3")
    assert all(
        main.matrix.entry(i, x3).is_zero for i in range(len(main.variables))
    )


def test_unbounded_callee_poisons_caller():
    src = (
        "function f(X1){ while (X1 < X1) { X2 = X2 + X2; } return X2; }"
        " function main(){ X1 = f(X3); }"
    )
    res = analyze_program(parse(src))
    assert res.functions["f"].verdict == UNBOUNDED
    main = res.functions["main"]
    assert main.verdict == UNBOUNDED
    assert main.graph.sweep().count == 0
    x3, x1 = main.matrix.index("X3"), main.matrix.index("X1")
    assert main.matrix.entry(x3, x1) == Polynomial.of([Monomial(INF, ())])


def test_chained_summaries_compose():
    src = """
    function g(X1){ X2 = X1 + X1; return X2; }
    function f(X1){ X3 = g(X1); loop X1 { X3 = X3 + X4; } return X3; }
    function main(){ X5 = f(X2); }
    """
    res = analyze_program(parse(src))
    assert res.functions["g"].summary.behaviors == ((P,), (W,))
    f = res.functions["f"]
    assert f.verdict == CONDITIONALLY_BOUNDED
    # the counter's polynomial mark saturates both surviving g-choices
    # into a single behavior over (X1, X4)
    assert f.summary.rows == ("X1", "X4")
    assert f.summary.behaviors == ((P, P),)
    assert res.functions["main"].verdict == BOUNDED


def test_call_inside_loop_body():
    src = """
    function f(X1){ X2 = X1 + X1; return X2; }
    function main(){ loop X3 { X1 = f(X1); } }
    """
    r = analyze_program(parse(src)).functions["main"]
    assert r.verdict == UNBOUNDED
    assert ("X1", "X1") in r.blame
    assert all(
        r.matrix.evaluate(a).contains_inf() for a in r.registry.assignments()
    )


def test_analysis_matrices_are_canonical(monkeypatch):
    # Equality, the sum's shortcuts and the product's pass-through all
    # compare monomial tuples, so every entry of every matrix the
    # analysis builds must already be in Polynomial.of's form.
    built = []
    init = ChoiceMatrix.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(ChoiceMatrix, "__init__", recording_init)
    rng = random.Random(61)
    sources = [random_program(rng) for _ in range(60)]
    sources += [random_call_pair(rng) for _ in range(40)]
    x = [f"X{i + 1}" for i in range(5)]
    chains = (
        # counted loops feeding a rotating pool
        "".join(
            f"loop {x[(i + 2) % 5]} {{ {x[(i + 1) % 5]} = {x[i % 5]} + {x[(i + 1) % 5]}; }} "
            for i in range(6)
        ),
        # while loops, each feeding one variable into the next
        "".join(
            f"while ({x[i % 5]} < {x[(i + 1) % 5]}) {{ {x[(i + 1) % 5]} = {x[i % 5]} - {x[(i + 1) % 5]}; }} "
            for i in range(5)
        ),
        # one variable accumulating additive sites
        "".join(f"X5 = X5 + {x[i % 4]}; " for i in range(6)),
    )
    sources += [f"function main() {{ {body}}}" for body in chains]
    for src in sources:
        built.clear()
        analyze_program(parse(src))
        assert built, src
        for m in built:
            for row in m.entries:
                for p in row:
                    assert p == Polynomial.of(p.monomials), (src, p)
