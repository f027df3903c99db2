import itertools
import random

import pytest
from hypothesis import given, settings

from corpus import random_call_pair, random_program
from mwpflow.analysis import (
    BOUNDED,
    CONDITIONALLY_BOUNDED,
    UNBOUNDED,
    _FunctionRun,
    analyze_program,
)
from mwpflow.frontend import Call, parse, walk_commands
from mwpflow import exhaustive, polynomial
from mwpflow.polynomial import ChoiceMatrix, Polynomial, ZERO_POLY, delta
from mwpflow.semiring import INF, M, P, W, ZERO, FlowMatrix
from test_cli import WIDE_PROGRAMS
from test_properties import FIXED, NESTED_MAINS, PROGRAMS


def poly(*monos):
    return Polynomial.of((s, tuple(sorted(ds))) for s, ds in monos)


def analyze_main(src):
    return analyze_program(parse(src)).functions["main"]


# --- expression vectors, observed through assignment columns -----------

def column(result, target):
    j = result.matrix.variables.index(target)
    return [result.matrix.entries[i][j] for i in range(len(result.variables))]


def test_additive_expression_vector():
    r = analyze_main("function main(){ X3 = X1 + X2; }")
    assert r.variables == ("X1", "X2", "X3")
    x1, x2, x3 = column(r, "X3")
    assert x1 == poly((M, [delta(0, 0)]), (P, [delta(1, 0)]), (W, [delta(2, 0)]))
    assert x2 == poly((P, [delta(0, 0)]), (M, [delta(1, 0)]), (W, [delta(2, 0)]))
    assert not x3.monomials
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


@pytest.mark.parametrize("terms", [3, 10, 40])
def test_chained_sum_keeps_seven_monomials(terms):
    # Branch 2 of a site is the constant w (rule E2).  Scaled by p, the
    # nested operand's one-delta lists dominate its longer ones, so only
    # the last two sites show, however long the sum.
    r = analyze_main("function main(){ X1 = " + " + ".join(["X2"] * terms) + "; }")
    assert sum(len(p.monomials) for row in r.matrix.entries for p in row) == 7


def test_sum_sites_over_delta_free_cells_match_the_general_rule():
    # A +/- site whose two operand cells are delta-free (0, a variable's
    # m or a product's w) builds its cell from their scalars; that cell
    # must be the general rule's join over the site's index.
    operands = ("X1", "X2", "X1 * X2", "X2 * X3", "X3 * X3")
    w_poly = Polynomial.const(W)
    scalar = {ZERO_POLY: ZERO, Polynomial.const(M): M, w_poly: W}
    seen = set()
    for left, op, right in itertools.product(operands, "+-", operands):
        run = _FunctionRun(parse(f"function main(){{ X4 = {left} {op} {right}; }}").functions[0],
                           {})
        e = run.decl.body[0].value
        v1, v2 = run.vector_of(e.left), run.vector_of(e.right)
        cells = run.vector_of(e)
        j = len(run.registry) - 1
        assert all(p.monomials for v in (v1, v2, cells) for p in v.values()), e
        for k in range(len(run.variables)):
            a, b = v1.get(k, ZERO_POLY), v2.get(k, ZERO_POLY)
            seen.add((scalar[a], scalar[b]))
            if a.monomials or b.monomials:
                assert cells[k].monomials == Polynomial.join(
                    j, (a + b.scale(P), a.scale(P) + b, w_poly)).monomials, (e, a, b)
            else:
                assert k not in cells  # a zero cell is not stored
    assert seen == set(itertools.product((ZERO, M, W), repeat=2))


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
    assert m.entries[0][1] == poly((P, d0), (P, d1), (W, d2))
    assert m.entries[1][1] == poly((M, []), (INF, d0), (INF, d2))
    assert m.entries[2][1] == poly((P, d0), (P, d1))
    for i, j in itertools.product(range(3), range(3)):
        if j != 1:
            expected = Polynomial.const(M) if i == j else Polynomial.const(ZERO)
            assert m.entries[i][j] == expected
    assert r.verdict == CONDITIONALLY_BOUNDED
    assert r.sample == (1,)
    assert r.blame == (("X2", "X2"),)
    assert m.evaluate((1,)) == FlowMatrix(
        [[M, P, ZERO], [ZERO, M, ZERO], [ZERO, P, M]]
    )
    assert m.evaluate((0,)).rows[1][1] == INF
    assert m.evaluate((2,)).rows[1][1] == INF


def test_branching_golden_matrix():
    r = analyze_main(
        "function main(){ if (X1 < X2) { X1 = X1 + X2; } else { X1 = X1 - X3; } }"
    )
    m = r.matrix
    assert r.variables == ("X1", "X2", "X3")
    assert m.entries[1][0] == poly(
        (P, [delta(0, 0)]), (M, [delta(1, 0)]), (W, [delta(2, 0)])
    )
    assert m.entries[2][0] == poly(
        (P, [delta(0, 1)]), (M, [delta(1, 1)]), (W, [delta(2, 1)])
    )
    table = {
        (a, b): m.entries[0][0].evaluate((a, b))
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
    i, j = r.matrix.variables.index("X1"), r.matrix.variables.index("X3")
    assert flow.rows[i][j] == W


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
    x1, x2, x3 = (r.matrix.variables.index(v) for v in ("X1", "X2", "X3"))
    assert flow.rows[x1][x2] == W
    assert flow.rows[x3][x2] == ZERO
    # the closure restores the overwritten diagonal to m
    assert flow.rows[x2][x2] == M


def test_loop_marks_counter_column_with_p():
    r = analyze_main("function main(){ loop X3 { X2 = X1; X1 = X2 + X4; } }")
    for a in r.registry.assignments():
        flow = r.matrix.evaluate(a)
        if not flow.contains_inf():
            star_cols_with_p = {
                j for i in range(len(flow.rows)) for j in range(len(flow.rows))
                if flow.rows[i][j] == P
            }
            x3 = r.matrix.variables.index("X3")
            for j in star_cols_with_p:
                assert flow.rows[x3][j] == P


def test_loop_counter_takes_p_of_topped_diagonal():
    # The counter's row reads the closure's p monomials, also those of a
    # diagonal cell that the same rule tops with INF.
    r = analyze_main("function main(){ loop X1 { X2 = X2 + X2; } }")
    x1, x2 = r.matrix.variables.index("X1"), r.matrix.variables.index("X2")
    picks = [delta(v, 0) for v in range(3)]
    assert r.matrix.entries[x2][x2] == poly((M, []), *((INF, [d]) for d in picks))
    assert r.matrix.entries[x1][x2] == poly(*((P, [d]) for d in picks[:2]))


def _rule_on_entries(star, counter):
    """The iteration rule applied to the closure's entries, its INF list
    merged into every cell: the rows of the matrix it gives."""
    rows = [list(row) for row in star.entries]
    for j in star.columns:
        column = [row[j] for row in rows]
        for i in range(len(rows)) if counter is None else (j,):
            floor = M if i == j else W
            twins = [(INF, ds) for s, ds in column[i].monomials if floor < s < INF]
            rows[i][j] = Polynomial.of([*column[i].monomials, *twins])
        if counter is not None:
            hits = [m for p in column for m in p.monomials if m[0] == P]
            rows[counter][j] = Polynomial.of([*rows[counter][j].monomials, *hits])
    return tuple(map(tuple, rows))


def test_iteration_rule_pends_only_its_twins(monkeypatch):
    # ChoiceMatrix.iterate reads the closure's stored cells, which hold
    # no INF, and leaves the closure's one INF list in the row lists:
    # each row's pending list is exactly the INF twins that the rule put
    # in that row, and the entries are those of the rule on merged cells.
    calls = []
    iterate = ChoiceMatrix.iterate

    def recording(body, counter):
        out = iterate(body, counter)
        calls.append((body, counter, out))
        return out

    monkeypatch.setattr(ChoiceMatrix, "iterate", recording)
    rng = random.Random(2805)
    sources = [random_program(rng) for _ in range(300)]
    sources.append("function main(){ loop X3 { while (X1 < X2) { X1 = X1 + X2; } X2 = X2 + X4; } }")
    for src in sources:
        analyze_program(parse(src))
    carried = 0
    for body, counter, out in calls:
        star = body.closure()
        assert out.row_inf == star.row_inf
        twins = [[] for _ in star.variables]
        for j, column in star.columns.items():
            for i in range(len(star.variables)) if counter is None else (j,):
                floor = M if i == j else W
                twins[i] += [(INF, ds) for s, ds in column.get(i, ZERO_POLY).monomials if s > floor]
        assert out.pending == {i: Polynomial.of(t) for i, t in enumerate(twins) if t}, (body, counter)
        assert out.entries == _rule_on_entries(star, counter)
        carried += bool(0 in star.row_inf and any(twins))
    assert carried >= 30, carried


def test_iteration_rule_matches_the_reference_rule(monkeypatch):
    # ChoiceMatrix.iterate on its own: at every assignment of the indices
    # a loop or while body holds, it gives the reference rule applied to
    # the closure of the body's flow matrix, or INF somewhere where the
    # reference rule's side condition fails.
    bodies = []
    iterate = ChoiceMatrix.iterate

    def recording(body, counter):
        out = iterate(body, counter)
        bodies.append((body, counter, len(body.registry), out))
        return out

    monkeypatch.setattr(ChoiceMatrix, "iterate", recording)
    rng = random.Random(2901)
    for _ in range(400):
        analyze_program(parse(random_program(rng)))
    seen = {"loop": 0, "while": 0, "carried": 0}
    for body, counter, held, out in bodies:
        pad = (0,) * (len(body.registry) - held)
        for picks in itertools.product(*map(range, body.registry.cardinalities[:held])):
            a = picks + pad
            want = exhaustive._iterate(body.evaluate(a).closure(), counter)
            got = out.evaluate(a)
            if want is None:
                assert got.contains_inf(), (body, counter, a)
            else:
                assert got == want, (body, counter, a)
        seen["while" if counter is None else "loop"] += 1
        seen["carried"] += 0 in body.closure().row_inf
    assert seen["loop"] >= 180 and seen["while"] >= 120 and seen["carried"] >= 50, seen


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
    ret = result.matrix.variables.index(returns)
    rows = [result.matrix.variables.index(v) for v in result.summary.rows]
    behaviors = {}
    for a in result.registry.assignments():
        if not result.matrix.evaluate(a).contains_inf():
            behaviors.setdefault(tuple(result.matrix.entries[i][ret].evaluate(a) for i in rows))
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
    x9, x5 = main.matrix.variables.index("X9"), main.matrix.variables.index("X5")
    values = {main.matrix.entries[x9][x5].evaluate(a) for a in main.registry.assignments()}
    assert values == {M, P, W}


def test_call_with_repeated_argument_joins_flows():
    src = (
        "function f(X1, X2){ X3 = X1 + X2; return X3; }"
        " function main(){ X2 = f(X1, X1); }"
    )
    res = analyze_program(parse(src))
    main = res.functions["main"]
    x1, x2 = main.matrix.variables.index("X1"), main.matrix.variables.index("X2")
    values = {main.matrix.entries[x1][x2].evaluate(a) for a in main.registry.assignments()}
    assert values == {P, W}


def test_choice_sites_hold_only_calls():
    # The sums open choices 0 and 2 and the call opens 1, but only the
    # call's site is recorded: the inline check looks up nothing else.
    src = (
        "function f(X1){ X2 = X1 + X1; return X2; }"
        " function main(){ X3 = X1 + X2; X4 = f(X3); X5 = X4 - X3; }"
    )
    program = parse(src)
    main = analyze_program(program).functions["main"]
    calls = [c for c in walk_commands(program.function("main").body) if isinstance(c, Call)]
    assert len(main.registry) == 3
    assert main.choice_sites == {id(calls[0]): 1}


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
    x3 = main.matrix.variables.index("X3")
    assert all(
        not main.matrix.entries[i][x3].monomials for i in range(len(main.variables))
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
    x3, x1 = main.matrix.variables.index("X3"), main.matrix.variables.index("X1")
    assert main.matrix.entries[x3][x1] == Polynomial.of([(INF, ())])


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


def _stored_cells(m):
    """The stored cells of a matrix, column by column."""
    return [p for col in m.columns.values() for p in col.values()]


def _dense_inf_cells(m):
    """The cells of m's entries that hold INF, in row order, each with
    its INF monomials."""
    return {(i, j): Polynomial(infs) for i, row in enumerate(m.entries) for j, p in enumerate(row)
            if (infs := tuple(x for x in p.monomials if x[0] == INF))}


def _record_matrices(monkeypatch):
    """The list that every matrix built by _stored or identity joins,
    each checked for the sparse stored form as it is built: a stored
    column, row list or pending list holds only nonzero cells, at rows
    inside the matrix, size counts the monomials of the stored cells,
    and inf_cells reads the cells and the canonical INF of the dense
    entries."""
    built = []
    stored, identity = ChoiceMatrix._stored, ChoiceMatrix.identity.__func__

    def record(m):
        n = len(m.variables)
        assert all(p.monomials for p in _stored_cells(m)), m.columns
        assert all(p.monomials for p in m.row_inf.values()), m.row_inf
        assert all(p.monomials for p in m.pending.values()), m.pending
        assert all(0 <= i < n for col in (*m.columns.values(), m.row_inf, m.pending) for i in col)
        assert m.size == sum(len(p.monomials) for p in _stored_cells(m))
        sparse = [(k, Polynomial.of(infs)) for k, infs in m.inf_cells().items()]
        assert sparse == list(_dense_inf_cells(m).items())
        built.append(m)
        return m

    def recording_stored(self, *args):
        return record(stored(self, *args))

    def recording_identity(cls, *args):
        return record(identity(cls, *args))

    monkeypatch.setattr(ChoiceMatrix, "_stored", recording_stored)
    monkeypatch.setattr(ChoiceMatrix, "identity", classmethod(recording_identity))
    return built


def test_engine_cells_hold_no_zero_scalar(monkeypatch):
    # _multiply takes the max of two scalars, which is their product
    # only when neither is ZERO or INF.  It relies on every cell that the
    # engine builds being canonical, since Polynomial.of keeps no ZERO
    # scalar, on its callers passing finite right factors only, and on
    # its own skip of the rows' INF monomials.
    built = _record_matrices(monkeypatch)
    factors = 0
    plain_multiply = polynomial._multiply

    def checked_multiply(acc, rows, qs):
        nonlocal factors
        rows = [(i, list(monos)) for i, monos in rows]
        finite = [a for _, monos in rows for a in monos if a[0] != INF]
        for m in (*finite, *qs):
            assert M <= m[0] <= P, (m, qs)
        factors += len(finite) * len(qs)
        return plain_multiply(acc, rows, qs)

    monkeypatch.setattr(polynomial, "_multiply", checked_multiply)
    rng = random.Random(67)
    sources = [random_program(rng) for _ in range(80)]
    sources += [random_call_pair(rng) for _ in range(40)]
    for src in sources:
        built.clear()
        analyze_program(parse(src))
        for m in built:
            for row in (*m.entries, _stored_cells(m), m.row_inf.values(), m.pending.values()):
                for p in row:
                    assert p == Polynomial.of(p.monomials), (src, p)
                    assert all(s != ZERO for s, _ in p.monomials), (src, p)
    assert factors > 1000


def test_analysis_matrices_are_canonical(monkeypatch):
    # Equality, the sum's shortcuts and the product's pass-through all
    # compare monomial tuples, so every entry of every matrix the
    # analysis builds must already be in Polynomial.of's form.  So must
    # every stored cell, which products read before any INF is merged,
    # and every row list.  The analysis builds its matrices from stored
    # columns only, never from rows.  _stored recounts a matrix's size
    # from the columns an operation replaced; it must count every stored
    # cell.
    built = _record_matrices(monkeypatch)

    def no_rows(self, *args, **kwargs):
        raise AssertionError("the analysis built a matrix from rows")

    monkeypatch.setattr(ChoiceMatrix, "__init__", no_rows)
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
    sources += [
        # X2 never flows to f's return: the row of X6 at each call is
        # zero in every behavior, first in a replaced column, then in an
        # updated one.
        "function f(X1, X2) { X3 = X1; return X3; }"
        " function main() { X4 = f(X5, X6); X5 = f(X4, X6); }",
        # g has no behavior: its call writes a column of INF, which
        # spreads to every row's pending list.
        "function g(X1) { while (X1 < X2) { X2 = X1 + X2; } return X2; }"
        " function main() { X3 = X4; X5 = g(X3); X6 = X5 + X3; loop X6 { X4 = X3; } }",
    ]
    for src in sources:
        built.clear()
        analyze_program(parse(src))
        assert built, src
        for m in built:
            assert m.size == sum(len(p.monomials) for p in _stored_cells(m))
            cells = (*m.entries, _stored_cells(m), m.row_inf.values(), m.pending.values())
            for row in cells:
                for p in row:
                    assert p == Polynomial.of(p.monomials), (src, p)


def test_a_copy_costs_its_footprint_not_the_variable_count(monkeypatch):
    # Folding Xa = Xb multiplies by column b's stored cells only, and so
    # does sequencing with a loop, a while or an if whose matrix holds no
    # INF: no row list is built, summed or read.  The same 400 copies
    # among X1..X50, folded over 50 variables and over 512 (the rest
    # parameters that no line reads), make the same number of sums and
    # canonical forms, and each copied column stores one cell.  So does
    # the whole analysis of those copies followed by 100 one-copy loops,
    # a while and an if, whose cover and blame come from stored cells.
    # No analysis here or of the generated and wide programs reads the
    # dense entries.
    def refuse(self):
        raise AssertionError("the analysis read ChoiceMatrix.entries")

    monkeypatch.setattr(ChoiceMatrix, "entries", property(refuse))
    for wide, _, _ in WIDE_PROGRAMS.values():
        analyze_program(parse(f"function main() {{\n{wide}}}\n"))

    @settings(FIXED, max_examples=100)
    @given(source=PROGRAMS | NESTED_MAINS)
    def generated(source):
        analyze_program(parse(source))

    generated()
    rng = random.Random(5)
    body = " ".join("X{} = X{};".format(*rng.sample(range(1, 51), 2)) for _ in range(400))
    body += "".join(" loop X{} {{ X{} = X{}; }}".format(*rng.sample(range(1, 51), 3))
                    for _ in range(100))
    body += " while (X1 < X2) { X3 = X4; } if (X5 < X6) { X7 = X8; } else { X9 = X10; }"
    add, of = Polynomial.__add__, Polynomial.of.__func__
    calls = {"add": 0, "of": 0}

    def counting_add(p, q):
        calls["add"] += 1
        return add(p, q)

    def counting_of(cls, monomials):
        calls["of"] += 1
        return of(cls, monomials)

    monkeypatch.setattr(Polynomial, "__add__", counting_add)
    monkeypatch.setattr(Polynomial, "of", classmethod(counting_of))
    counts, folds = [], []
    for width in (50, 512):
        params = ", ".join(f"X{i}" for i in range(1, width + 1))
        decl = parse(f"function f({params}) {{ {body} }} function main() {{ }}").functions[0]
        run = _FunctionRun(decl, {})
        assert len(run.variables) == width
        calls.update(add=0, of=0)
        folds.append(run.matrix_of_body(decl.body[:400]))
        counts.append(dict(calls))
        calls.update(add=0, of=0)
        result = _FunctionRun(decl, {}).finish()
        counts.append(dict(calls))
        assert result.verdict == BOUNDED and not result.blame
    assert counts[:2] == counts[2:], counts
    for folded in folds:
        assert folded.columns and all(len(col) == 1 for col in folded.columns.values())
