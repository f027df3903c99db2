import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from corpus import random_call_pair, random_program
from mwpflow.cli import emit_json, run
from mwpflow.analysis import analyze_program
from mwpflow.frontend import parse
from mwpflow.semiring import INF, value_char

LOOP_SRC = "function main(){ loop X3 { X2 = X1 + X2; } }\n"
WHILE_SRC = "function main(){ while (X1 < X2) { X2 = X1 + X2; } }\n"
PAIR_SRC = (
    "function f(X1){ loop X1 { X2 = X2 + X3; } return X2; }\n"
    "function main(){ X3 = X1 + X2; X2 = X3 + X1; X1 = f(X2); }\n"
)
ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "programs").glob("*.imp"))


@pytest.fixture
def loop_file(tmp_path):
    p = tmp_path / "loop.imp"
    p.write_text(LOOP_SRC)
    return str(p)


def test_analyze_conditionally_bounded(loop_file, capsys):
    code = run(["analyze", loop_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: conditionally-bounded" in out
    assert "sample assignment: 1" in out
    assert "blame: X2 -> X2" in out
    assert "infinity-free assignments: 1 of 3" in out


def test_analyze_command_word_is_optional(loop_file, capsys):
    assert run([loop_file]) == 0
    assert "verdict" in capsys.readouterr().out


def test_unbounded_program_exits_one(tmp_path, capsys):
    p = tmp_path / "w.imp"
    p.write_text(WHILE_SRC)
    assert run([str(p)]) == 1
    assert "verdict: unbounded" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    p = tmp_path / "bad.imp"
    p.write_text("function main(){ X1 = 3; }")
    assert run([str(p)]) == 2
    err = capsys.readouterr().err
    assert "lexical-error" in err and "1:23" in err


def test_missing_file_exits_two(tmp_path, capsys):
    assert run([str(tmp_path / "absent.imp")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_eval_assignment(loop_file, capsys):
    code = run([loop_file, "--eval", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l.strip() for l in out.splitlines()]
    assert "variables: X1 X2 X3" in lines
    assert "0 i 0" in lines  # the poisoned cell sits at row X2, column X2
    run([loop_file, "--eval", "1"])
    out_good = capsys.readouterr().out
    assert "i" not in out_good.replace("variables", "").splitlines()[2]


def test_eval_validation(loop_file, capsys):
    assert run([loop_file, "--eval", "0,1"]) == 2
    assert run([loop_file, "--eval", "7"]) == 2
    assert run([loop_file, "--eval", "zero"]) == 2
    # An empty field is an error, not a field to drop: "0," and ",0"
    # would otherwise evaluate [0], and "0,,1" would evaluate [0,1].
    # A field is ASCII digits: int() alone would read "1_0" as 10 and
    # accept a sign and non-ASCII digits.  Spaces around a field are fine.
    assert run([loop_file, "--eval", " 1 "]) == 0
    capsys.readouterr()
    for picks in ("0,", ",0", "0,,1", "1_0", "+1", "-0", "١", "0x1", "1 0"):
        assert run([loop_file, "--eval", picks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mwpflow: bad assignment {picks!r}\n"


def test_json_output_schema(loop_file, capsys):
    assert run([loop_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["functions"]
    f = doc["functions"][0]
    assert list(f) == [
        "name", "variables", "choices", "matrix", "verdict",
        "sample_assignment", "blame", "behaviors",
    ]
    assert f["name"] == "main"
    assert f["variables"] == ["X1", "X2", "X3"]
    assert f["choices"] == [{"index": 0, "domain": 3}]
    assert f["verdict"] == "conditionally_bounded"
    assert f["sample_assignment"] == [1]
    assert f["blame"] == [["X2", "X2"]]
    cell = f["matrix"][1][1]
    assert cell["monomials"] == [
        {"scalar": "m", "deltas": []},
        {"scalar": "inf", "deltas": [[0, 0]]},
        {"scalar": "inf", "deltas": [[2, 0]]},
    ]


def test_json_empty_main(tmp_path, capsys):
    p = tmp_path / "empty.imp"
    p.write_text("function main(){ }")
    assert run([str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    f = doc["functions"][0]
    assert f["verdict"] == "bounded"
    assert f["blame"] == []
    assert f["sample_assignment"] == []


def test_json_behaviors_of_called_function(tmp_path, capsys):
    p = tmp_path / "three.imp"
    p.write_text(
        "function f(X1, X2){ X3 = X1 + X2; return X3; }\n"
        "function main(){ X3 = f(X1, X2); }\n"
    )
    assert run([str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    f = doc["functions"][0]
    assert f["name"] == "f"
    assert len(f["behaviors"]) == 3
    assert {"X1": "m", "X2": "p"} in f["behaviors"]


def test_json_matches_library_emit(loop_file, capsys):
    assert run([loop_file, "--json"]) == 0
    cli_text = capsys.readouterr().out
    results = list(analyze_program(parse(LOOP_SRC)))
    assert cli_text == emit_json(results)


def _reference_json(results):
    """The report built as a dict and printed by json.dumps(indent=2)."""
    def scalar(f):
        return "inf" if f == INF else value_char(f)

    return json.dumps({"functions": [
        {
            "name": r.name,
            "variables": list(r.variables),
            "choices": [
                {"index": i, "domain": c} for i, c in enumerate(r.registry.cardinalities)
            ],
            "matrix": [
                [
                    {"monomials": [
                        {"scalar": scalar(m.scalar), "deltas": [[v, i] for i, v in m.deltas]}
                        for m in p.monomials
                    ]}
                    for p in row
                ]
                for row in r.matrix.entries
            ],
            "verdict": r.verdict,
            "sample_assignment": list(r.sample) if r.sample is not None else None,
            "blame": [list(pair) for pair in r.blame],
            "behaviors": [
                {v: scalar(f) for v, f in zip(r.summary.rows, vec) if f}
                for vec in (r.summary.behaviors if r.summary is not None else ())
            ],
        }
        for r in results
    ]}, indent=2) + "\n"


def test_json_writer_matches_json_dumps_layout():
    rng = random.Random(43)
    sources = [path.read_text(encoding="utf-8") for path in EXAMPLES]
    sources += [random_program(rng) for _ in range(80)]
    sources += [random_call_pair(rng) for _ in range(60)]
    sources += ["function main(){ }", LOOP_SRC, WHILE_SRC, PAIR_SRC]
    seen = {"inf": 0, "behaviors": 0, "unbounded": 0}
    for src in sources:
        results = list(analyze_program(parse(src)))
        assert emit_json(results) == _reference_json(results), src
        seen["inf"] += any(r.matrix.inf_cells() for r in results)
        seen["behaviors"] += any(r.summary and r.summary.behaviors for r in results)
        seen["unbounded"] += any(r.sample is None for r in results)
    assert min(seen.values()) >= 10


@pytest.mark.parametrize("modes, message", [
    (["--eval", "1", "--json"], "argument --json: not allowed with argument --eval"),
    (["--json", "--eval", "1"], "argument --eval: not allowed with argument --json"),
    (["--dump-ast", "--json"], "argument --json: not allowed with argument --dump-ast"),
    (["--check-inline", "main", "main", "--json"],
     "argument --json: not allowed with argument --check-inline"),
    (["--eval", "1", "--dump-ast"], "argument --dump-ast: not allowed with argument --eval"),
])
def test_output_modes_are_exclusive(loop_file, capsys, modes, message):
    # Each of these modes would silently drop the other's output.
    assert run([loop_file, *modes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"mwpflow: error: {message}\n" in captured.err


def test_json_is_deterministic_across_runs(loop_file, capsys):
    run([loop_file, "--json"])
    first = capsys.readouterr().out
    run([loop_file, "--json"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_json_report_bytes_match_golden(path, capsys):
    # Golden reports pin the exact bytes across engine changes.
    run([str(path), "--json"])
    golden = ROOT / "tests" / "golden" / f"{path.stem}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


WIDE_PROGRAMS = {
    # A 40-variable product chain: every assignment updates one column.
    "chain-40": (
        "".join(f"    X{i + 2} = X{i + 1} * X{i + 2};\n" for i in range(40)),
        0,
        "b87027d8da4c1278735c3e7ce303eb3a3528679bdd0ae40c9216ba25f0dfa263",
    ),
    # Twelve loops whose INF rows spread along a 14-variable chain.
    "loops-12": (
        "".join(f"    loop X{i + 1} {{ X{i + 3} = X{i + 2} * X{i + 3}; }}\n" for i in range(12)),
        1,
        "980f49324a035539609b1fdc1fda4b0531bc91ca9e9a0a4e3a2cd71badc02f5b",
    ),
    # Twelve while loops over six variables: the iteration rule tops
    # every cell, 1134 INF monomials in all.
    "while-12": (
        "".join(
            f"    while (X{i % 6 + 1} < X{(i + 1) % 6 + 1}) {{"
            f" X{(i + 2) % 6 + 1} = X{i % 6 + 1} + X{(i + 2) % 6 + 1};"
            f" X{(i + 4) % 6 + 1} = X{(i + 2) % 6 + 1} * X{(i + 1) % 6 + 1}; }}\n"
            for i in range(12)
        ),
        1,
        "3148a87f88cc237a52a8c74a32279568aece455d4e32b2f80d94e88208e85b0b",
    ),
    # Twenty counted loops over five variables: conditional INF in
    # every cell, and p monomials added to each counter's row.
    "loops-20": (
        "".join(
            f"    loop X{i % 5 + 1} {{"
            f" X{(i + 3) % 5 + 1} = X{(i + 1) % 5 + 1} + X{(i + 3) % 5 + 1}; }}\n"
            for i in range(20)
        ),
        0,
        "c3774105905d7a2fc9abc0db829b12419ff32a23b37d7430f0a5264d173caf76",
    ),
}


@pytest.mark.parametrize("name", sorted(WIDE_PROGRAMS))
def test_wide_program_json_digest(name, tmp_path, capsys):
    # Wider than any golden example, so the column-update fold and INF
    # spreading along long rows are pinned byte for byte.
    body, exit_code, digest = WIDE_PROGRAMS[name]
    p = tmp_path / f"{name}.imp"
    p.write_text("function main() {\n" + body + "}\n")
    assert run([str(p), "--json"]) == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_function_filter(tmp_path, capsys):
    p = tmp_path / "pair.imp"
    p.write_text(PAIR_SRC)
    assert run([str(p), "--function", "f", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [f["name"] for f in doc["functions"]] == ["f"]
    assert run([str(p), "--function", "nope"]) == 2


@pytest.mark.parametrize("mode", [[], ["--json"], ["--eval", "0"], ["--dump-ast"]])
def test_unknown_function_exits_two_in_every_mode(tmp_path, capsys, mode):
    p = tmp_path / "pair.imp"
    p.write_text(PAIR_SRC)
    assert run([str(p), "--function", "nosuch", *mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mwpflow: no function named nosuch\n"


def test_dump_ast_prints_only_the_named_function(tmp_path, capsys):
    p = tmp_path / "pair.imp"
    p.write_text(PAIR_SRC)
    assert run([str(p), "--dump-ast"]) == 0
    f_block, _ = capsys.readouterr().out.split("\n\n")
    assert run([str(p), "--function", "f", "--dump-ast"]) == 0
    assert capsys.readouterr().out == f_block + "\n"
    assert f_block.startswith("function f(X1) {") and "main" not in f_block


def test_check_inline_rejects_function_filter(tmp_path, capsys):
    # The check names its own caller and callee.
    p = tmp_path / "pair.imp"
    p.write_text(PAIR_SRC)
    for name in ("main", "nosuch"):
        assert run([str(p), "--check-inline", "main", "f", "--function", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "mwpflow: error: argument --function: not allowed with argument --check-inline\n"
        )


def test_fast_flag_matches_default_verdict(tmp_path, capsys):
    for src in (LOOP_SRC, WHILE_SRC, PAIR_SRC):
        p = tmp_path / "prog.imp"
        p.write_text(src)
        code_fast = run([str(p), "--fast", "--json"])
        fast_doc = json.loads(capsys.readouterr().out)
        code_full = run([str(p), "--json"])
        full_doc = json.loads(capsys.readouterr().out)
        assert code_fast == code_full
        for ff, fd in zip(fast_doc["functions"], full_doc["functions"]):
            assert ff["verdict"] == fd["verdict"]
            assert ff["sample_assignment"] == fd["sample_assignment"]


def test_dump_ast_round_trips(loop_file, capsys):
    assert run([loop_file, "--dump-ast"]) == 0
    dumped = capsys.readouterr().out
    assert parse(dumped).functions == parse(LOOP_SRC).functions


def test_check_inline_flag(tmp_path, capsys):
    p = tmp_path / "pair.imp"
    p.write_text(PAIR_SRC)
    assert run([str(p), "--check-inline", "main", "f"]) == 0
    out = capsys.readouterr().out
    assert "call composition holds" in out
    assert run([str(p), "--check-inline", "main", "nope"]) == 2


def test_check_inline_names_what_it_cannot_check(tmp_path, capsys):
    p = tmp_path / "three.imp"
    p.write_text(
        "function g(X1){ return X1; }\n"
        "function f(X1){ X2 = X1 + X1; return X2; }\n"
        "function main(){ X1 = g(X2); X3 = f(X1); }\n"
    )
    assert run([str(p), "--check-inline", "main", "f"]) == 2
    assert capsys.readouterr().err == (
        "mwpflow: main calls g, which the inline check of main -> f cannot follow\n"
    )
    assert run([str(p), "--check-inline", "nosuch", "f"]) == 2
    assert capsys.readouterr().err == "mwpflow: no function named nosuch\n"
    p.write_text(
        "function g(X1){ return X1; }\n"
        "function f(X1){ X2 = g(X1); return X2; }\n"
        "function main(){ X3 = f(X1); }\n"
    )
    assert run([str(p), "--check-inline", "main", "f"]) == 2
    assert capsys.readouterr().err.startswith("mwpflow: f calls g, ")
    p.write_text(
        "function f(X1, X2){ " + "X3 = X1 + X2; " * 9 + "return X3; }\n"
        "function main(){ X3 = f(X1, X2); }\n"
    )
    assert run([str(p), "--check-inline", "main", "f"]) == 2
    assert capsys.readouterr() == (
        "", "mwpflow: enumeration budget exceeded: 3 + 19683 assignments > 19683\n"
    )


def test_text_report_has_no_trailing_spaces(tmp_path, capsys):
    empty = tmp_path / "empty.imp"
    empty.write_text("function main(){ }\n")
    for path in EXAMPLES + [empty]:
        run([str(path)])
        out = capsys.readouterr().out
        assert "verdict: " in out
        assert [line for line in out.splitlines() if line.endswith(" ")] == [], path
    for path, picks in ((empty, ""), (EXAMPLES[0], "2,1")):
        run([str(path), "--function", "main", "--eval", picks])
        out = capsys.readouterr().out
        assert "  variables:" in out
        assert [line for line in out.splitlines() if line.endswith(" ")] == [], path


def test_undecodable_source_exits_two(tmp_path, capsys):
    p = tmp_path / "latin1.imp"
    p.write_bytes(b"function main() { X1 = X2 \xff; }\n")
    assert run([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mwpflow: cannot read {p}: ")
    assert "can't decode byte 0xff" in captured.err


@pytest.mark.parametrize("source, pair, message", [
    ("function g(X1){ while (X1 < X1) { X2 = X2 + X2; } return X2; }\n"
     "function main(){ X3 = X1; }\n",
     ("main", "g"), "expected exactly one call to g in main, found 0"),
    ("function g(X1){ X2 = X1 + X1; }\nfunction main(){ X3 = X1; }\n",
     ("main", "g"), "expected exactly one call to g in main, found 0"),
    ("function main(){ X3 = X1 + X2; }\n",
     ("main", "main"), "expected exactly one call to main in main, found 0"),
    ("function g(X1){ X2 = X1 + X1; }\nfunction f(X1){ X2 = X1; return X2; }\n"
     "function main(){ X3 = f(X1); }\n",
     ("f", "g"), "expected exactly one call to g in f, found 0"),
])
def test_check_inline_usage_errors_exit_two(tmp_path, capsys, source, pair, message):
    p = tmp_path / "pair.imp"
    p.write_text(source)
    assert run([str(p), "--check-inline", *pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mwpflow: {message}\n"


def test_warning_printed_to_stderr(tmp_path, capsys):
    p = tmp_path / "warn.imp"
    p.write_text("function main(){ loop X1 { X1 = X1 + X2; } }")
    run([str(p)])
    assert "loop-counter-assigned" in capsys.readouterr().err


def _timed_run(argv):
    t0 = time.perf_counter()
    code = run(argv)
    return code, time.perf_counter() - t0


def test_independent_additions_report_without_enumeration(tmp_path, capsys):
    p = tmp_path / "additions.imp"
    p.write_text(
        "function main() {\n"
        + "".join(f"    X{2 * i + 1} = X{2 * i + 1} + X{2 * i + 2};\n" for i in range(13))
        + "}\n"
    )
    code, elapsed = _timed_run([str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: bounded" in out
    assert "infinity-free assignments: 1594323 of 1594323" in out
    assert elapsed < 1.0


def test_callee_with_many_sites_summarized_without_enumeration(tmp_path, capsys):
    p = tmp_path / "callee.imp"
    p.write_text(
        "function f(X1, X2) {\n"
        + "".join(f"    X3 = X{1 + i % 2} + X{2 - i % 2};\n" for i in range(11))
        + "    return X3;\n}\nfunction main() {\n    X3 = f(X1, X2);\n}\n"
    )
    code, elapsed = _timed_run([str(p), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [f["verdict"] for f in doc["functions"]] == ["bounded", "bounded"]
    assert len(doc["functions"][0]["behaviors"]) == 3
    assert elapsed < 1.0


def test_deeply_nested_expression_exits_two(tmp_path, capsys):
    p = tmp_path / "deep.imp"
    terms = " + ".join(f"X{i % 7 + 1}" for i in range(1200))
    p.write_text(f"function main() {{ X1 = {terms}; }}\n")
    assert run([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mwpflow: ")


def test_feedback_chain_48_decided(tmp_path, capsys):
    # 48 counted loops over a rotating pool of five variables.
    pool = [f"X{i + 1}" for i in range(5)]
    p = tmp_path / "feedback.imp"
    p.write_text("function main() {\n" + "".join(
        f"    loop {pool[(i + 2) % 5]} {{ {pool[(i + 1) % 5]} = {pool[i % 5]} + {pool[(i + 1) % 5]}; }}\n"
        for i in range(48)
    ) + "}\n")
    code, elapsed = _timed_run([str(p), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [f["verdict"] for f in doc["functions"]] == ["conditionally_bounded"]
    assert elapsed < 6.0


def test_accumulating_callee_keeps_four_behaviors(tmp_path, capsys):
    p = tmp_path / "accumulate.imp"
    p.write_text(
        "function f(X1, X2) {\n"
        + "".join(f"    X3 = X3 + X{1 + i % 2};\n" for i in range(8))
        + "    return X3;\n}\nfunction main() {\n    X3 = f(X1, X2);\n}\n"
    )
    code, elapsed = _timed_run([str(p), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    f = doc["functions"][0]
    assert f["name"] == "f"
    assert f["behaviors"] == [
        {"X1": "p", "X2": "p"},
        {"X1": "p", "X2": "w"},
        {"X1": "w", "X2": "p"},
        {"X1": "w", "X2": "w"},
    ]
    assert elapsed < 6.0
