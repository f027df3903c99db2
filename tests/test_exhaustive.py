import random

import pytest

from corpus import random_program
from mwpflow.analysis import analyze_program
from mwpflow.cli import run
from mwpflow.exhaustive import derivable_matrices, derive_with_picks
from mwpflow.frontend import parse
from mwpflow.semiring import M, P, W, ZERO, FlowMatrix


def main_decl(src):
    return parse(src).functions[-1]


def test_additive_assignment_has_three_derivations():
    decl = main_decl("function main(){ X3 = X1 + X2; }")
    out = derivable_matrices(decl)
    cols = {tuple(m.rows[i][2] for i in range(3)) for m in out}
    assert cols == {(M, P, ZERO), (P, M, ZERO), (W, W, ZERO)}


def test_copy_assignment_single_derivation():
    # the all-w vector on a bare variable is pointwise dominated and
    # deliberately not explored
    decl = main_decl("function main(){ X1 = X2; }")
    out = derivable_matrices(decl)
    assert out == {FlowMatrix([[M, M], [ZERO, ZERO]])}


def test_multiplication_single_derivation():
    decl = main_decl("function main(){ X3 = X1 * X2; }")
    out = derivable_matrices(decl)
    assert len(out) == 1
    (m,) = out
    assert m.rows[0][2] == W and m.rows[1][2] == W


def test_loop_admits_single_completion():
    decl = main_decl("function main(){ loop X3 { X2 = X1 + X2; } }")
    out = derivable_matrices(decl)
    assert out == {
        FlowMatrix([[M, P, ZERO], [ZERO, M, ZERO], [ZERO, P, M]])
    }


def test_while_over_additive_body_has_no_derivation():
    decl = main_decl("function main(){ while (X1 < X2) { X2 = X1 + X2; } }")
    assert derivable_matrices(decl) == frozenset()


def test_replay_respects_side_conditions():
    decl = main_decl("function main(){ loop X3 { X2 = X1 + X2; } }")
    good = derive_with_picks(decl, (1,))
    assert good == FlowMatrix([[M, P, ZERO], [ZERO, M, ZERO], [ZERO, P, M]])
    assert derive_with_picks(decl, (0,)) is None
    assert derive_with_picks(decl, (2,)) is None


def test_replay_rejects_calls():
    src = "function f(X1){ return X1; } function main(){ X2 = f(X1); }"
    decl = parse(src).functions[1]
    with pytest.raises(ValueError):
        derive_with_picks(decl, (0,))
    with pytest.raises(ValueError):
        derivable_matrices(decl)


def assert_equivalence(src):
    """Slice set == derivable set, and per-pick success == INF-freeness."""
    decl = main_decl(src)
    result = analyze_program(parse(src)).functions["main"]
    clean_images = set()
    for a in result.registry.assignments():
        flow = result.matrix.evaluate(a)
        replay = derive_with_picks(decl, a)
        if flow.contains_inf():
            assert replay is None, f"{src} at {a}"
        else:
            assert replay == flow, f"{src} at {a}"
            clean_images.add(flow)
    assert clean_images == derivable_matrices(decl), src


def test_equivalence_hand_cases():
    for src in [
        "function main(){ X3 = X1 + X2; }",
        "function main(){ X1 = X2; }",
        "function main(){ X2 = X1 + X1; }",
        "function main(){ loop X3 { X2 = X1 + X2; } }",
        "function main(){ while (X1 < X2) { X2 = X1 + X2; } }",
        "function main(){ while (X1 < X2) { X2 = X1 * X2; } }",
        "function main(){ loop X1 { loop X2 { X3 = X3 + X4; } } }",
        "function main(){ if (X1 < X2) { X1 = X1 + X2; } else { X1 = X1 - X3; } }",
        "function main(){ if (X1 < X2) { X1 = X1 + X2; } }",
        "function main(){ X2 = X1 + X2; while (X2 < X1) { X3 = X3 * X1; } }",
    ]:
        assert_equivalence(src)


def test_equivalence_random_programs():
    rng = random.Random(97)
    for _ in range(60):
        assert_equivalence(random_program(rng, max_choices=5))


@pytest.mark.parametrize("picks", [(3,), (7,), (-1,), (0, 5, 9), (0, 1), ()])
def test_replay_rejects_bad_picks(picks):
    decl = main_decl("function main(){ X3 = X1 + X2; }")
    with pytest.raises(ValueError):
        derive_with_picks(decl, picks)


def test_replay_setup_follows_the_declaration():
    # The replay keeps the setup of the last declaration it saw; replays
    # that alternate between declarations, equal ones included, must
    # give what a first replay of each gives, and a call still raises
    # every time.
    srcs = ["function main(){ X3 = X1 + X2; }", "function main(){ X1 = X2 + X1; X4 = X3; }",
            "function main(){ X3 = X1 + X2; }"]
    decls = [main_decl(src) for src in srcs]
    first = [[derive_with_picks(main_decl(src), (p,)) for p in range(3)] for src in srcs]
    for _ in range(2):
        for d, expected in zip(decls, first):
            assert [derive_with_picks(d, (p,)) for p in range(3)] == expected
    assert first[0] != first[1]
    call = parse("function f(X1){ X2 = X1; return X2; }\n"
                 "function main(){ X3 = f(X1); }").functions[-1]
    for _ in range(2):
        with pytest.raises(ValueError, match="calls"):
            derive_with_picks(call, ())


def test_product_over_a_sum_opens_no_choice(tmp_path, capsys):
    # Rule E2 gives a product the all-w vector over its variables, so the
    # sum under it is never a choice point, in the engine or the replay.
    src = "function main(){ X2 = (X1 + X3) * X4; }"
    path = tmp_path / "product.imp"
    path.write_text(src)
    assert run([str(path)]) == 0
    report = capsys.readouterr().out
    assert "  choices: none\n" in report
    assert "  infinity-free assignments: 1 of 1\n" in report
    decl = main_decl(src)  # variables X1 X3 X4 X2
    assert [row[3] for row in derive_with_picks(decl, ()).rows] == [W, W, W, ZERO]
    with pytest.raises(ValueError):
        derive_with_picks(decl, (0,))


@pytest.mark.parametrize("src", [
    # the while fails unless its body picks the all-w vector
    "function main(){ if (X1 < X2) { while (X1 < X2) { X3 = X1 + X2; } }"
    " else { X4 = X1 + X3; } X1 = X2 + X4; }",
    "function main(){ if (X1 < X2) { X4 = X1 + X3; }"
    " else { while (X1 < X2) { X3 = X1 + X2; } } X1 = X2 + X4; }",
    # the loop fails unless its body picks p on X1
    "function main(){ loop X3 { X2 = X1 + X2; } X4 = X1 + X2; }",
], ids=["then-while", "else-while", "loop"])
def test_equivalence_past_a_failed_side_condition(src):
    decl = main_decl(src)
    result = analyze_program(parse(src)).functions["main"]
    replays = [derive_with_picks(decl, a) for a in result.registry.assignments()]
    assert None in replays and any(r is not None for r in replays)
    assert_equivalence(src)


@pytest.mark.parametrize("src", [
    "function main(){ X2 = (X1 + X3) * X4; }",
    "function main(){ X4 = X1 + X2 + X3; }",
], ids=["sum-under-product", "chained-sum"])
def test_clean_images_equal_derivable_matrices(src):
    result = analyze_program(parse(src)).functions["main"]
    clean_images = {
        flow for flow in map(result.matrix.evaluate, result.registry.assignments())
        if not flow.contains_inf()
    }
    assert clean_images == derivable_matrices(main_decl(src))
