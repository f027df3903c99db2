import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from corpus import random_call_pair, random_program
from mwpflow.cli import USAGE, emit_json, run
from mwpflow.analysis import analyze_program
from mwpflow.frontend import ParseError, parse
from mwpflow.polynomial import MASK, SHIFT
from mwpflow.semiring import INF, value_char
from test_properties import FIXED, NESTED_MAINS, PROGRAMS

LOOP_SRC = "function main(){ loop X3 { X2 = X1 + X2; } }\n"
WHILE_SRC = "function main(){ while (X1 < X2) { X2 = X1 + X2; } }\n"
PAIR_SRC = (
    "function f(X1){ loop X1 { X2 = X2 + X3; } return X2; }\n"
    "function main(){ X3 = X1 + X2; X2 = X3 + X1; X1 = f(X2); }\n"
)
# Non-ASCII names in a function name, its parameters, the shared rows of
# its behaviors and main's blame pairs; g has no variables, h no choices.
UNICODE_SRC = (
    "function 一二(Xé, a²) { ª = Xé + a²; return ª; }\n"
    "function main() { while (Xé < ª) { ª = Xé + ª; } Xé = 一二(a², ª); }\n"
    "function g() { }\n"
    "function h(X1) { X2 = X1 * X1; return X2; }\n"
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
                        {"scalar": scalar(m[0]), "deltas": [[d & MASK, d >> SHIFT] for d in m[1]]}
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
    sources += ["function main(){ }", LOOP_SRC, WHILE_SRC, PAIR_SRC, UNICODE_SRC]
    seen = {"inf": 0, "behaviors": 0, "unbounded": 0}
    for src in sources:
        results = list(analyze_program(parse(src)))
        assert emit_json(results) == _reference_json(results), src
        seen["inf"] += any(r.blame for r in results)
        seen["behaviors"] += any(r.summary and r.summary.behaviors for r in results)
        seen["unbounded"] += any(r.sample is None for r in results)
    assert min(seen.values()) >= 10

    # Nested expressions, and callees called from nested commands.
    @settings(FIXED, max_examples=60)
    @given(source=NESTED_MAINS | PROGRAMS)
    def generated(source):
        results = list(analyze_program(parse(source)))
        assert emit_json(results) == _reference_json(results), source

    generated()

    # UNICODE_SRC reaches every field it is meant to.
    doc = json.loads(emit_json(list(analyze_program(parse(UNICODE_SRC)))))
    callee, main, g, h = doc["functions"]
    assert (callee["name"], callee["variables"]) == ("一二", ["Xé", "a²", "ª"])
    assert {"Xé": "m", "a²": "p"} in callee["behaviors"] and ["ª", "a²"] in main["blame"]
    assert g["variables"] == g["choices"] == []
    assert h["variables"] and h["choices"] == []


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


def test_json_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # The engine keeps sets and dicts on its hot paths.  One process per
    # hash seed writes the reports of 30 generated programs, nested mains
    # and call pairs; every byte must equal this process's reports.
    sources = []

    @settings(FIXED, max_examples=15)
    @given(source=NESTED_MAINS)
    def draw(source):
        sources.append(source)

    draw()
    rng = random.Random(23)
    sources += [random_call_pair(rng) for _ in range(30 - len(sources))]
    paths = []
    for i, src in enumerate(sources):
        paths.append(tmp_path / f"{i}.imp")
        paths[-1].write_text(src, encoding="utf-8")
    expected = "".join(emit_json(list(analyze_program(parse(src)))) for src in sources)
    script = "import sys; from mwpflow.cli import run; [run([p, '--json']) for p in sys.argv[1:]]"
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", script, *map(str, paths)], env=env,
                             capture_output=True, check=True, timeout=60).stdout
        assert out.decode("ascii") == expected, seed


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_json_report_bytes_match_golden(path, capsys):
    # Golden reports pin the exact bytes across engine changes.
    run([str(path), "--json"])
    golden = ROOT / "tests" / "golden" / f"{path.stem}.json"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


# sha256 of each example's text report without its elapsed: lines.
TEXT_DIGESTS = {
    "branching_assignments": "131b8bb40b1934008e6fb3db221780f154884c470d27af8854d45467806e7736",
    "inline_pair": "ec1357ca147bfa7aa3e21728ba32e96ae330b966116f87ec07668d658c6b0e74",
    "iteration_dependent_loop":
        "5b3dcd879a87f2b3d955041eb8e711a56a65eb65dd5d87fb82748004b5bbd471",
    "nested_expressions": "c8f1adea02ab5428dcc3e006e04d75f5b20c173a6af876b4355d423dadf93682",
    "straightline": "2eff66e194154c2ca2b19ecf8a1ca53fe8980dfd89a57f2b1ced0218da38a4b9",
    "three_behaviors": "cddaad5a4177bcf5a83cc099ac820d4598ede8a85de6b1865c39b916d5b58850",
    "while_feedback": "ac335f6cc1efdbd8060b40b36c22fd3cc6c72cc8016c1a84c17e462fa6c75c64",
}


def _text_digest(report):
    kept = "".join(line for line in report.splitlines(True)
                   if not line.lstrip().startswith("elapsed:"))
    return hashlib.sha256(kept.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_text_report_bytes_match_digest(path, capsys):
    run([str(path)])
    assert _text_digest(capsys.readouterr().out) == TEXT_DIGESTS[path.stem]


def test_calls_in_one_process_share_no_state(capsys):
    # The argument parser is built once per process and the JSON writer
    # memoizes within a call; neither may carry anything into the next
    # call, whatever mode or outcome it had.
    for path in EXAMPLES + EXAMPLES[::-1]:
        golden = (ROOT / "tests" / "golden" / f"{path.stem}.json").read_text(encoding="utf-8")
        code = 1 if '"verdict": "unbounded"' in golden else 0
        errors = sys.stdout.errors
        assert run([str(path), "--json", "--eval", "0"]) == 2
        assert sys.stdout.errors == errors
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --eval: not allowed with argument --json" in captured.err
        assert run([str(path), "--json"]) == code
        assert sys.stdout.errors == errors
        assert capsys.readouterr().out == golden
        doc = json.loads(golden)
        main_only = {"functions": [f for f in doc["functions"] if f["name"] == "main"]}
        run([str(path), "--function", "main", "--json"])
        assert sys.stdout.errors == errors
        assert capsys.readouterr().out == json.dumps(main_only, indent=2) + "\n"
        assert run([str(path)]) == code
        assert sys.stdout.errors == errors
        assert _text_digest(capsys.readouterr().out) == TEXT_DIGESTS[path.stem]


def test_unencodable_output_is_replaced_in_the_call_only(tmp_path, monkeypatch):
    # The text report prints a name the stream cannot encode as "?" (JSON
    # escapes it), and the stream keeps its own error handler afterwards.
    p = tmp_path / "accent.imp"
    p.write_text("function main(){ Xé = X1 + X2; }\n", encoding="utf-8")
    out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", out)
    assert run([str(p), "--json"]) == 0
    assert run([str(p)]) == 0
    assert out.errors == "strict"
    out.flush()
    text = out.buffer.getvalue().decode("ascii")
    assert '"X\\u00e9"' in text and "variables: X1 X2 X?" in text


def _rotated(line, pool=6, copies=8):
    """copies lines: line i is line with every Xk renamed to X((k-1+i) mod pool + 1)."""
    return "".join(
        "    " + re.sub(r"X(\d+)", lambda m: f"X{(int(m.group(1)) - 1 + i) % pool + 1}", line) + "\n"
        for i in range(copies)
    )


def _copies(v, n):
    """n lines Xa = Xb, with a and b drawn from 1..v by random.Random(1)."""
    rng = random.Random(1)
    return "".join(
        "    X{} = X{};\n".format(rng.randrange(v) + 1, rng.randrange(v) + 1) for _ in range(n))


def _row_lists(v):
    """v // 3 one-copy loops over X1..Xv shuffled by random.Random(2),
    with a loop around an INF-topping while and an if with a while in
    one branch between their two halves."""
    xs = list(range(1, v + 1))
    random.Random(2).shuffle(xs)
    loops = v // 3
    copy_loops = ["    loop X{} {{ X{} = X{}; }}\n".format(*xs[3 * i:3 * i + 3])
                  for i in range(loops)]
    return "".join([
        *copy_loops[:loops // 2],
        "    loop X5 { while (X1 < X2) { X3 = X3 + X4; } }\n",
        "    if (X6 < X7) { X8 = X9; } else { while (X10 < X11) { X12 = X12 + X13; } }\n",
        *copy_loops[loops // 2:],
    ])


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
    # A 160-variable product chain: long rows, no INF anywhere.
    "chain-160": (
        "".join(f"    X{i + 2} = X{i + 1} * X{i + 2};\n" for i in range(160)),
        0,
        "85b01a371aa59b9fa36d220aa0dcdb2f02efc1a55b4752c120ef2c617067e215",
    ),
    # Twelve additive loops along a 14-variable chain: each loop's INF
    # list reaches every later row, and the sums multiply the monomials.
    "loop-add-12": (
        "".join(f"    loop X{i + 1} {{ X{i + 3} = X{i + 2} + X{i + 3}; }}\n" for i in range(12)),
        0,
        "fc570186dc4fe10ba55ac1f53540d9ecb30bfa19159e472151d7ead48fa86e3f",
    ),
    # Thirty counted loops feeding a rotating pool of five variables.
    "feedback-30": (
        "".join(
            f"    loop X{(i + 2) % 5 + 1} {{"
            f" X{(i + 1) % 5 + 1} = X{i % 5 + 1} + X{(i + 1) % 5 + 1}; }}\n"
            for i in range(30)
        ),
        0,
        "9a4c350038664ae2a3062c5d09d2bcd5bec5a13dfc633a76580b83e1d1043121",
    ),
    # Branches whose then-body is a loop: the sum of the two bodies holds
    # INF in some rows only, and each row keeps its own list.
    "branch-loop-8": (
        _rotated("if (X1 < X2) { loop X4 { X2 = X1 + X2; } } else { X3 = X3 * X5; } X5 = X6 * X5;"),
        0,
        "8c92e78fd4d27d8b7215682b76b56c1262d81fda496079d260e0d804a116001f",
    ),
    # A loop followed by an assignment inside a branch: the product with
    # the branch matrix carries that matrix's row INF lists.
    "branch-loop-tail-8": (
        _rotated("X5 = X6 * X5; if (X1 < X2) { loop X4 { X2 = X1 + X2; } X6 = X3 * X6; }"),
        0,
        "c95cf29ff99cf5b90d4d3f14fa0b82f660925fad0f21a81ede29b338f43397bf",
    ),
    # Eighty loops along an 82-variable chain.
    "loops-80": (
        "".join(f"    loop X{i + 1} {{ X{i + 3} = X{i + 2} * X{i + 3}; }}\n" for i in range(80)),
        1,
        "b4958972780ac8ab631a03cd7d1c477ffedf6614618d33c5658d36aff6edd206",
    ),
    # A 40-term sum of one variable: 39 additive sites in one
    # expression, each summing a nested left operand with a leaf.
    "sum-40": (
        "    X1 = " + " + ".join(["X2"] * 40) + ";\n",
        0,
        "3771b50ec8d8ce700293bc016f12e3a99af1547202341ffcd092d12c211727b1",
    ),
    # A 10-term sum rotating over three variables: each row's cell
    # collects its own mix of picks.
    "sum-rotate-10": (
        "    X1 = " + " + ".join(f"X{i % 3 + 2}" for i in range(10)) + ";\n",
        0,
        "ea7d1e8e27f506301ba779ef2ebc9d95bc56fa76b24dc7a179d8f0d30a067174",
    ),
    # Sums under products and a product beside a sum: both operators
    # nest on both sides.  Each product takes the all-w vector (rule
    # E2), so only the outer sum opens a choice.
    "nested-expr": (
        "    X1 = (X2 + X3) * (X4 - X2 + X3) + X1 * (X2 + X2);\n",
        0,
        "39bfd6af899132e4a5ac2bc0d98e2c07bf507d1fb46a408a8753689d65c34239",
    ),
    # 300 copies among 60 variables: every stored column holds one cell.
    "copies-60": (
        _copies(60, 300),
        0,
        "c3a997b221ac3a7e16796a614cc532983fbc992744d53e1c6f09c82cdbb87d7c",
    ),
    # Twenty one-copy loops over 60 variables around a loop whose
    # closure gives every row one INF list, which later products carry,
    # and an if whose sum holds pending INF on one side only.
    "row-lists-60": (
        _row_lists(60),
        1,
        "43671a7337538205de25d481ee4d4a1ac956d34de9bc530b2c80976f4c3f4aba",
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


CALL_PROGRAMS = {
    # Six additive sites accumulating into a callee's return value: main's
    # call opens one choice per behavior of f.
    "accumulating-callee-6": (
        "function f(X1, X2) {\n"
        + "".join(f"    X3 = X3 + X{1 + i % 2};\n" for i in range(6))
        + "    return X3;\n}\nfunction main() {\n    X3 = f(X1, X2);\n}\n",
        0,
        "45213b63bc8c2ed16a7d45c628bda29e65172d095d64ef6725c2064f79aded24",
    ),
    # Twenty functions, each calling the one before it and then adding.
    "call-chain-20": (
        "function f0(X1, X2) {\n    X3 = X1 + X2;\n    return X3;\n}\n"
        + "".join(
            f"function f{i}(X1, X2) {{\n    X3 = f{i - 1}(X1, X2);\n"
            f"    X3 = X3 + X1;\n    return X3;\n}}\n"
            for i in range(1, 20)
        )
        + "function main() {\n    X3 = f19(X1, X2);\n}\n",
        0,
        "87457b3d6581ca1ee2587012f4e7d72f94352a8a190db3534faea313b0a54d76",
    ),
    # A call to a callee with no behavior amid a 40-variable product
    # chain: its column of INF pends in every row, and the next update
    # carries it into every row list.
    "poisoned-call-40": (
        "function g(X1) {\n    while (X1 < X2) { X2 = X1 + X2; }\n    return X2;\n}\n"
        "function main() {\n"
        + "".join(f"    X{i + 2} = X{i + 1} * X{i + 2};\n" for i in range(28))
        + "    X30 = g(X7);\n"
        + "".join(f"    X{i + 2} = X{i + 1} * X{i + 2};\n" for i in range(29, 39))
        + "    loop X3 { X4 = X3 + X4; }\n}\n",
        1,
        "3061ee93d606c83f7935ba90682e3343b206c88f3a1dbfeef9b79ef369e1657d",
    ),
}


@pytest.mark.parametrize("name", sorted(CALL_PROGRAMS))
def test_call_program_json_digest(name, tmp_path, capsys):
    # Callee summaries and the choices that calls open, byte for byte.
    source, exit_code, digest = CALL_PROGRAMS[name]
    p = tmp_path / f"{name}.imp"
    p.write_text(source)
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


def test_function_analyzes_only_its_call_tree(tmp_path, capsys, monkeypatch):
    # --function NAME analyzes NAME and the functions it calls, so a
    # refusal outside that tree refuses only a run that reports it.  g,
    # declared first and called by no one, holds eight rotating additions
    # whose matrices pass 100 monomials (345 at most); f and main stay
    # under 100.
    rotating = "".join(f" X{i % 5 + 1} = X{(i + 1) % 5 + 1} + X{(i + 2) % 5 + 1};"
                       for i in range(8))
    src = f"function g() {{{rotating} }}\n" + PAIR_SRC
    p = tmp_path / "uncalled.imp"
    p.write_text(src)
    full = {r.name: emit_json([r]) for r in analyze_program(parse(src))}
    monkeypatch.setattr("mwpflow.polynomial.BUDGET", 100)
    for name in ("main", "f"):
        assert run([str(p), "--function", name, "--json"]) == 0
        assert capsys.readouterr().out == full[name]
    for args in (["--function", "g"], []):
        assert run([str(p), *args]) == 2
        assert capsys.readouterr() == (
            "", f"mwpflow: {p}: function g: monomial budget exceeded: "
                "105 monomials in one matrix > 100\n")


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


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_leading_byte_order_mark_is_skipped(path, tmp_path, capsys):
    copy = tmp_path / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    code = run([str(path), "--json"])
    expected = capsys.readouterr().out
    assert run([str(copy), "--json"]) == code
    assert capsys.readouterr().out == expected


def test_byte_order_mark_past_the_start_is_a_lexical_error(tmp_path, capsys):
    p = tmp_path / "bom.imp"
    p.write_bytes(b"\xef\xbb\xbffunction main() {\n\xef\xbb\xbf    X1 = X2;\n}\n")
    assert run([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{p}:2:1: [lexical-error] unexpected character '\\ufeff'\n"
    with pytest.raises(ParseError, match="unexpected character"):
        parse("\ufefffunction main() { X1 = X2; }\n")


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


def test_out_of_memory_exits_two(loop_file, monkeypatch, capsys):
    # Exit code 1 means only "unbounded": an analysis that runs out of
    # memory ends in a one-line diagnostic, not a traceback.
    def exhausted(program):
        raise MemoryError

    monkeypatch.setattr("mwpflow.cli.analyze_program", exhausted)
    assert run([loop_file, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mwpflow: ") and captured.err.count("\n") == 1


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_real_memory_exhaustion_exits_two_with_one_line(tmp_path):
    # Thirty rotating additions over five variables: a bounded
    # straight-line program whose matrix outgrows 150 MB of address
    # space, set in the child only, before it passes the monomial budget
    # at about 280 MB.  Nothing may print but the one line: no
    # traceback, fatal-error dump or "Exception ignored in: ".
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (150 << 20, 150 << 20))

    p = tmp_path / "FILE"
    p.write_text("function main() {\n" + "".join(
        f"    X{i % 5 + 1} = X{(i + 1) % 5 + 1} + X{(i + 2) % 5 + 1};\n" for i in range(30)
    ) + "}\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "mwpflow.cli", "FILE"], cwd=tmp_path, env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "mwpflow: FILE: out of memory\n")


def _rotating_adds(n: int) -> str:
    return "function main() {\n" + "".join(
        f"    X{i % 5 + 1} = X{(i + 1) % 5 + 1} + X{(i + 2) % 5 + 1};\n" for i in range(n)
    ) + "}\n"


def _branch_chain(k: int) -> str:
    # bench/workloads.py's branch_chain(k, n_vars=5) for an even k: k / 2
    # conditional blocks rotating over X1..X5, two choices each.
    return "function main() {\n" + "".join(
        f"    if (X{(s + 1) % 5 + 1} < X{(s + 2) % 5 + 1}) {{"
        f" X{s % 5 + 1} = X{(s + 1) % 5 + 1} + X{(s + 2) % 5 + 1}; }}"
        f" else {{ X{s % 5 + 1} = X{(s + 2) % 5 + 1} - X{(s + 1) % 5 + 1}; }}\n"
        for s in range(k // 2)
    ) + "}\n"


def _out_of_memory(program):
    raise MemoryError


# Every refusal, as (source of FILE or None for no file, arguments,
# patch or None, stderr): each exits 2, prints nothing on stdout and
# only its line on stderr, the usage error after the usage line.
REFUSALS = {
    "usage": (None, [], None,
              USAGE + "mwpflow: error: the following arguments are required: file\n"),
    "unreadable": (None, ["FILE"], None,
                   "mwpflow: cannot read FILE: [Errno 2] No such file or directory: 'FILE'\n"),
    "parse": ("function main(){ X1 = 3; }", ["FILE"], None,
              "FILE:1:23: [lexical-error] numeric literals are not part of the language\n"),
    "function": (LOOP_SRC, ["FILE", "--function", "nosuch"], None,
                 "mwpflow: no function named nosuch\n"),
    "inline-function": (PAIR_SRC, ["FILE", "--check-inline", "nosuch", "f"], None,
                        "mwpflow: no function named nosuch\n"),
    "inline-pair": ("function g(X1){ return X1; }\nfunction f(X1){ X2 = X1 + X1; return X2; }\n"
                    "function main(){ X1 = g(X2); X3 = f(X1); }\n",
                    ["FILE", "--check-inline", "main", "f"], None,
                    "mwpflow: main calls g, which the inline check of main -> f cannot follow\n"),
    "eval-field": (LOOP_SRC, ["FILE", "--eval", "zero"], None,
                   "mwpflow: bad assignment 'zero'\n"),
    "eval-pick": (LOOP_SRC, ["FILE", "--eval", "7"], None,
                  "mwpflow: main: pick 7 out of range for choice 0 (domain 3)\n"),
    "nesting": ("function main() { X1 = " + " + ".join(f"X{i % 7 + 1}" for i in range(1200))
                + "; }\n", ["FILE"], None, "mwpflow: FILE: program nested too deeply to analyze\n"),
    "memory": (LOOP_SRC, ["FILE", "--json"], ("mwpflow.cli.analyze_program", _out_of_memory),
               "mwpflow: FILE: out of memory\n"),
    "budget": (PAIR_SRC, ["FILE"], ("mwpflow.polynomial.BUDGET", 4),
               "mwpflow: FILE: function f: monomial budget exceeded: "
               "6 monomials in one matrix > 4\n"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_every_refusal_exits_two_with_one_line(case, tmp_path, monkeypatch, capsys):
    source, args, patch, err = REFUSALS[case]
    monkeypatch.chdir(tmp_path)
    if source is not None:
        (tmp_path / "FILE").write_text(source)
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert run(args) == 2
    assert capsys.readouterr() == ("", err)


def test_budget_names_the_function_and_the_count(monkeypatch):
    from mwpflow.polynomial import BudgetExceeded

    monkeypatch.setattr("mwpflow.polynomial.BUDGET", 4)
    with pytest.raises(BudgetExceeded) as refused:
        analyze_program(parse(PAIR_SRC))
    assert (refused.value.function, refused.value.args) == ("f", (6,))
    # The largest matrix of the run, in main, holds 31 monomials.
    monkeypatch.setattr("mwpflow.polynomial.BUDGET", 31)
    assert [r.name for r in analyze_program(parse(PAIR_SRC))] == ["f", "main"]
    monkeypatch.setattr("mwpflow.polynomial.BUDGET", 30)
    with pytest.raises(BudgetExceeded, match="^function main: .* 31 monomials in one matrix > 30$"):
        analyze_program(parse(PAIR_SRC))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("source", [_branch_chain(48), _rotating_adds(30)],
                         ids=["branch-chain-48", "rotating-adds-30"])
def test_blow_up_is_refused_by_the_monomial_budget(source, tmp_path):
    # Both exhausted 3 GB before the budget.  The child's own limits only
    # stop a run that the budget would miss.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    (tmp_path / "FILE").write_text(source)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "mwpflow.cli", "FILE"], cwd=tmp_path,
                                 env=env, stdout=out, stderr=err, preexec_fn=limit)
        _, status, usage = os.wait4(child.pid, 0)  # the rusage of this child alone
        elapsed = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0), err.seek(0)
        printed = out.read(), err.read()
    assert child.returncode == 2 and printed[0] == ""
    assert re.fullmatch(r"mwpflow: FILE: function main: monomial budget exceeded: "
                        r"\d+ monomials in one matrix > 1000000\n", printed[1])
    assert elapsed < 15 and usage.ru_maxrss < 500 << 10  # kB


def test_branch_chain_32_answers_under_the_budget():
    # Its largest matrix holds 643,032 monomials.  The report is left
    # out: --json would print all of them for 10 s.
    result = analyze_program(parse(_branch_chain(32))).functions["main"]
    assert result.verdict == "bounded" and result.matrix.size == 643032


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
