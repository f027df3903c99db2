import random
from collections import Counter

import pytest

from mwpflow.analysis import analyze_program
from mwpflow.frontend import parse
from mwpflow.polynomial import (
    INF_POLY,
    MASK,
    SHIFT,
    ChoiceMatrix,
    ChoiceRegistry,
    Polynomial,
    UNIT_POLY,
    ZERO_POLY,
    covered_by,
    delta,
    row_merger,
    _multiply,
)
from mwpflow.semiring import INF, M, P, W, ZERO, FlowMatrix, add, mul_inf


def poly(*monos):
    return Polynomial.of((s, tuple(sorted(ds))) for s, ds in monos)


def matches(m, assignment):
    """Whether a monomial's cylinder holds the assignment."""
    return all(assignment[d >> SHIFT] == d & MASK for d in m[1])


def assignments(registry):
    return list(registry.assignments())


def assert_pointwise(result, expected_fn, registry):
    for a in assignments(registry):
        assert result.evaluate(a) == expected_fn(a), f"at {a}"


# --- monomial products -------------------------------------------------

def _product(a, b):
    """The product of two finite monomials by _multiply, or None when
    their deltas conflict."""
    acc = {}
    _multiply(acc, [(0, [a])], [b])
    return acc[0][0] if acc[0] else None


def test_multiply_same_delta():
    reg = ChoiceRegistry([1, 3])
    a = (M, (delta(0, 1),))
    b = (P, (delta(0, 1),))
    out = _product(a, b)
    assert out == (P, (delta(0, 1),))
    for al in assignments(reg):
        lhs = out[0] if matches(out, al) else ZERO
        rhs = mul_inf(
            a[0] if matches(a, al) else ZERO, b[0] if matches(b, al) else ZERO
        )
        assert lhs == rhs


def test_multiply_conflict_is_zero():
    a = (M, (delta(0, 1),))
    b = (M, (delta(1, 1),))
    assert _product(a, b) is None
    assert _product(b, a) is None


def test_multiply_disjoint_union():
    reg = ChoiceRegistry([1, 3, 3])
    a = (W, (delta(0, 1),))
    b = (M, (delta(2, 2),))
    out = _product(a, b)
    assert out == (W, (delta(0, 1), delta(2, 2)))
    assert _product(b, a) == out  # older indices on the right: the merged path
    for al in assignments(reg):
        lhs = out[0] if matches(out, al) else ZERO
        rhs = mul_inf(
            a[0] if matches(a, al) else ZERO, b[0] if matches(b, al) else ZERO
        )
        assert lhs == rhs


def _pairwise(a, b):
    """The product of two finite monomials, pair by pair: None when a
    shared index holds different picks, else the larger scalar on the
    sorted union of their deltas."""
    picks = {}
    for d in (*a[1], *b[1]):
        if picks.setdefault(d >> SHIFT, d) != d:
            return None
    return (max(a[0], b[0]), tuple(sorted(picks.values())))


def _kind(da, db):
    """The case of _multiply that a pair of delta lists exercises."""
    if not da or not db:
        return "empty"
    if da == db:
        return "equal"
    pa, pb = {d >> SHIFT: d for d in da}, {d >> SHIFT: d for d in db}
    shared = sorted(pa.keys() & pb.keys())
    if not shared:
        return "disjoint"
    if pa[shared[0]] != pb[shared[0]]:
        return "conflict first"
    if any(pa[k] != pb[k] for k in shared):
        return "conflict later"
    if set(da) < set(db):
        return "left sub-list"
    if set(db) < set(da):
        return "right sub-list"
    return "union"


def test_multiply_matches_a_pairwise_product():
    # Rows and right factors drawn to share indices: each row monomial
    # is often derived from a right factor, by copying it, changing a
    # pick at its first or a later shared index, dropping or adding
    # deltas.  acc must gain, row by row, exactly the pairwise products.
    rng = random.Random(2803)
    picks = (0, 1, 2, MASK)

    def fresh():
        idx = sorted(rng.sample(range(7), rng.randint(0, 4)))
        return tuple(delta(rng.choice(picks), i) for i in idx)

    def derived(dq):
        ds = dict((d >> SHIFT, d) for d in dq)
        move = rng.randrange(6)
        keys = sorted(ds)
        if move in (1, 2) and len(keys) >= move:  # another pick at q's first or a later index
            k = keys[0] if move == 1 else rng.choice(keys[1:])
            ds[k] = delta(((ds[k] & MASK) + 1) % 3, k)
        elif move == 3 and keys:  # a sub-list
            del ds[rng.choice(keys)]
        elif move == 4:  # a longer list
            for k in rng.sample(range(7), rng.randint(1, 2)):
                ds.setdefault(k, delta(rng.choice(picks), k))
        elif move == 5:
            return fresh()
        return tuple(sorted(ds.values()))

    seen = Counter()
    for _ in range(600):
        qs = [(rng.choice((M, W, P)), fresh()) for _ in range(rng.randint(0, 4))]
        rows = []
        for i in range(rng.randint(1, 4)):
            monos = []
            for _ in range(rng.randint(0, 4)):
                base = rng.choice(qs)[1] if qs and rng.random() < 0.8 else fresh()
                monos.append((rng.choice((M, W, P, INF)), derived(base)))
            rows.append((i, monos))
            seen["INF rows"] += any(s == INF for s, _ in monos)
        acc = {0: [(W, ())]}
        _multiply(acc, iter(rows), qs)
        expected = {i: [r for a in monos if a[0] != INF for q in qs
                        if (r := _pairwise(a, q)) is not None] for i, monos in rows}
        expected[0] = [(W, ())] + expected[0]
        assert acc == expected, (rows, qs)
        for _, monos in rows:
            for a in monos:
                if a[0] != INF:
                    seen.update(_kind(a[1], q[1]) for q in qs)
    for kind in ("equal", "conflict first", "conflict later", "left sub-list",
                 "right sub-list", "empty", "union", "disjoint", "INF rows"):
        assert seen[kind] >= 100, seen


# --- addition ----------------------------------------------------------

def test_add_identity():
    p = poly((M, [delta(0, 0)]), (P, [delta(1, 0)]))
    assert p + ZERO_POLY == p
    assert ZERO_POLY + p == p


def test_add_pointwise_max():
    reg = ChoiceRegistry([3, 3])
    p = poly((M, [delta(0, 1)]))
    q = poly((P, [delta(0, 1)]))
    out = p + q
    assert out == poly((P, [delta(0, 1)]))
    assert_pointwise(out, lambda a: add(p.evaluate(a), q.evaluate(a)), reg)


def test_add_scalar_with_delta():
    reg = ChoiceRegistry([3])
    p = Polynomial.const(M)
    q = poly((P, [delta(1, 0)]))
    out = p + q
    assert out == poly((M, []), (P, [delta(1, 0)]))
    assert_pointwise(out, lambda a: P if a[0] == 1 else M, reg)


# --- multiplication ----------------------------------------------------

def test_mul_identity():
    p = poly((M, [delta(0, 0)]), (W, [delta(2, 1)]))
    assert p * UNIT_POLY == p
    assert UNIT_POLY * p == p


def test_mul_pointwise():
    reg = ChoiceRegistry([3, 3])
    p = poly((M, [delta(0, 1)]), (M, [delta(1, 1)]))
    q = poly((P, [delta(0, 1)]))
    out = p * q
    assert out == poly((P, [delta(0, 1)]))
    assert_pointwise(out, lambda a: mul_inf(p.evaluate(a), q.evaluate(a)), reg)


def test_mul_inf_survives_zero():
    reg = ChoiceRegistry([3])
    p = poly((INF, [delta(1, 0)]))
    out = p * ZERO_POLY
    assert out == p
    assert ZERO_POLY * p == p
    assert_pointwise(out, lambda a: INF if a[0] == 1 else ZERO, reg)


def test_mul_inf_mixed_with_finite():
    reg = ChoiceRegistry([3])
    p = poly((P, [delta(0, 0)]))
    q = poly((INF, [delta(1, 0)]), (M, [delta(0, 0)]))
    out = p * q
    assert_pointwise(out, lambda a: mul_inf(p.evaluate(a), q.evaluate(a)), reg)


# --- evaluation --------------------------------------------------------

def test_eval_inf_entry():
    p = poly((M, [delta(0, 0)]), (INF, [delta(1, 0)]), (INF, [delta(2, 0)]))
    assert p.evaluate((1,)) == INF
    assert p.evaluate((0,)) == M


def test_eval_scalar():
    assert Polynomial.const(M).evaluate((0, 2)) == M
    assert Polynomial.const(M).evaluate(()) == M


def test_eval_picks_matching_monomial():
    p = poly((M, [delta(0, 1)]), (P, [delta(2, 1)]))
    assert p.evaluate((0, 2)) == P
    assert p.evaluate((0, 0)) == M
    assert p.evaluate((0, 1)) == ZERO


def test_eval_rejects_missing_index():
    p = poly((M, [delta(0, 1)]))
    with pytest.raises(ValueError):
        p.evaluate(())


# --- simplification ----------------------------------------------------

def test_simplify_duplicate_merge():
    out = Polynomial.of([
        (M, (delta(0, 1),)),
        (M, (delta(0, 1),)),
    ])
    assert out == poly((M, [delta(0, 1)]))


def test_simplify_subsumption_by_scalar():
    reg = ChoiceRegistry([3, 3])
    out = poly((P, []), (M, [delta(0, 1)]))
    assert out == Polynomial.const(P)
    assert_pointwise(out, lambda a: P, reg)


def test_simplify_extension_subsumed():
    reg = ChoiceRegistry([3, 3, 3])
    out = poly((M, [delta(0, 1), delta(0, 2)]), (P, [delta(0, 1)]))
    assert out == poly((P, [delta(0, 1)]))
    naive = [
        (M, (delta(0, 1), delta(0, 2))),
        (P, (delta(0, 1),)),
    ]
    for a in assignments(reg):
        naive_val = max(
            (s for s, ds in naive if matches((s, ds), a)), default=ZERO
        )
        assert out.evaluate(a) == naive_val


def test_equal_functions_can_differ_as_compact_lists():
    # Simplification never consults domain cardinalities, so a complete
    # equal-scalar fan does not collapse to its scalar: the two lists
    # below denote the same function but stay distinct.  The table
    # normal form (from_tables) maps both to the same matrix entry.
    reg = ChoiceRegistry([3])
    fan = poly((M, [delta(0, 0)]), (M, [delta(1, 0)]), (M, [delta(2, 0)]))
    scalar = Polynomial.const(M)
    assert fan != scalar
    for a in assignments(reg):
        assert fan.evaluate(a) == scalar.evaluate(a)
    names = ("V",)
    as_tables = [
        ChoiceMatrix.from_tables(names, reg, ChoiceMatrix(names, [[p]], reg).expand())
        for p in (fan, scalar)
    ]
    assert as_tables[0].entries[0][0] == as_tables[1].entries[0][0] == scalar


def test_simplify_is_idempotent_and_eval_preserving():
    rng = random.Random(5)
    reg = ChoiceRegistry([3, 2, 3])
    for _ in range(200):
        monos = [
            (
                rng.choice((ZERO, M, W, P, INF)),
                tuple(sorted(
                    delta(rng.randrange(reg.cardinality(i)), i)
                    for i in rng.sample(range(3), rng.randint(0, 3))
                )),
            )
            for _ in range(rng.randint(0, 5))
        ]
        canon = Polynomial.of(monos)
        assert Polynomial.of(canon.monomials) == canon
        for a in assignments(reg):
            raw = max((m[0] for m in monos if matches(m, a)), default=ZERO)
            assert canon.evaluate(a) == raw


def _all_pairs_subsume(monos):
    """The definition: drop m when a shorter sub-list has scalar >= m's."""
    return [
        (s, ds) for s, ds in monos
        if not any(
            len(o_ds) < len(ds) and o_s >= s and set(o_ds) <= set(ds)
            for o_s, o_ds in monos
        )
    ]


def _merged(raw):
    """The best scalar for each delta list, sorted by delta list."""
    best = {}
    for s, ds in raw:
        best[ds] = max(best.get(ds, ZERO), s)
    return sorted(((s, ds) for ds, s in best.items()), key=lambda m: m[1])


def test_subsume_matches_all_pairs_definition():
    # Duplicate-free sorted lists, as Polynomial.of merges them first.
    # Short lists of long monomials take the scan, long lists of short
    # ones the sub-tuple lookup; both must give the definition's answer.
    rng = random.Random(23)
    lookups = scans = skips = 0
    paths = Counter()  # the paths Polynomial.of takes, walked as it walks them
    for _ in range(600):
        width = rng.choice((3, 6, 10))
        cards = [rng.choice((1, 2, 3)) for _ in range(width)]
        monos = [
            (
                rng.choice((M, W, P, INF, P, INF)),
                tuple(sorted(
                    delta(rng.randrange(cards[i]), i)
                    for i in rng.sample(range(width), rng.randint(0, min(width, 7)))
                )),
            )
            for _ in range(rng.choice((2, 5, 20, 80)))
        ]
        monos = _merged(monos)
        for _, ds in monos:
            if 1 << len(ds) <= len(monos):
                lookups += 1
            else:
                scans += 1
        expected = _all_pairs_subsume(monos)
        assert Polynomial.of(monos).monomials == tuple(expected)
        paths.update(_of_paths(monos, expected))
        # A monomial whose scalar beats every one kept before it, shorter
        # lists first, is kept without a test: nothing can dominate it.
        kept, top = set(expected), ZERO
        for s, ds in sorted(monos, key=lambda m: len(m[1])):
            if s > top:
                assert (s, ds) in kept
                skips += 1
            if (s, ds) in kept:
                top = max(top, s)
    assert lookups > 1000 and scans > 1000 and skips > 400

    # Polynomial.of on raw lists of the shapes products hand it: one
    # length throughout (nothing to drop), many INF monomials beside a
    # few finite ones, and a delta-free INF that covers everything.
    def deltas(width, cards, k):
        return tuple(sorted(delta(rng.randrange(cards[i]), i) for i in rng.sample(range(width), k)))

    finite_dropped = finite_kept = 0
    for shape in ("one length", "inf heavy", "delta-free inf"):
        for _ in range(200):
            width = rng.choice((3, 6, 10))
            cards = [rng.choice((1, 2, 3)) for _ in range(width)]
            size = rng.choice((2, 5, 20, 80))
            if shape == "one length":
                k = rng.randint(0, min(width, 7))
                raw = [(rng.choice((M, W, P, INF)), deltas(width, cards, k))
                       for _ in range(size)]
            else:
                raw = [(INF, deltas(width, cards, rng.randint(1, min(width, 4))))
                       for _ in range(size)]
                raw += [(rng.choice((M, W, P)),
                                 deltas(width, cards, rng.randint(0, min(width, 7))))
                        for _ in range(rng.randint(1, 3))]
                if shape == "delta-free inf":
                    raw.append((INF, ()))
            rng.shuffle(raw)
            merged = _merged(raw)
            expected = _all_pairs_subsume(merged)
            assert Polynomial.of(raw).monomials == tuple(expected), shape
            paths.update(_of_paths(raw, expected))
            if shape == "one length":
                assert expected == merged
            elif shape == "delta-free inf":
                assert expected == [(INF, ())]
            else:
                finite = sum(s != INF for s, _ in merged)
                kept = sum(s != INF for s, _ in expected)
                finite_kept += kept
                finite_dropped += finite - kept
    assert finite_kept > 100 and finite_dropped > 100
    assert paths["one length"] > 150 and paths["top scalar"] > 1000, paths
    assert paths["lookup"] > 10000 and paths["scan"] > 2000, paths
    assert paths["drops"] > 700 and paths["no drop"] > 100, paths


def _of_paths(raw, expected):
    """The paths Polynomial.of takes on raw, walked in its order (by
    length, then by first appearance): one length throughout, or per
    list the top-scalar shortcut or a dominance test by lookup or by
    scan; and whether a list drops, which is when best loses it."""
    best = {}
    for s, ds in raw:
        if s > best.get(ds, ZERO):
            best[ds] = s
    if len(best) < 2:
        return []
    if len(set(map(len, best))) < 2:
        return ["one length"]
    out, top = [], ZERO
    for ds, s in sorted(best.items(), key=lambda item: len(item[0])):
        if s > top:
            out.append("top scalar")
            top = s
        else:
            out.append("lookup" if 1 << len(ds) <= len(best) else "scan")
    out.append("drops" if len(expected) < len(best) else "no drop")
    return out


def test_row_merger_matches_of_over_the_union():
    # entries and the iteration rule merge a row's canonical INF list R
    # into each cell of the row through one cover test built per row.  On
    # canonical pairs it must give Polynomial.of over their union, and
    # the cover test must be the definition: some list of R is a
    # sub-list of the monomial's, or the same list.
    rng = random.Random(53)
    seen = Counter()
    for _ in range(500):
        width = rng.choice((3, 6, 10))
        cards = [rng.choice((1, 2, 3)) for _ in range(width)]

        def deltas(k):
            return tuple(sorted(delta(rng.randrange(cards[i]), i) for i in rng.sample(range(width), k)))

        row = Polynomial.of((INF, deltas(0 if rng.random() < 0.01 else rng.randint(1, 3)))
                            for _ in range(rng.choice((1, 2, 5, 20))))
        lists = [ds for _, ds in row.monomials]
        merge, covered = row_merger(row), covered_by(row)
        for _ in range(6):  # cells of one row share the row's merger
            kind = rng.choice(("zero", "unit", "fresh inf", "row inf", "covered", "mixed"))
            if kind == "zero":
                cell = ZERO_POLY
            elif kind == "unit":
                cell = UNIT_POLY
            else:
                raw = [(rng.choice((M, W, P)), deltas(rng.randint(0, min(width, 7))))
                       for _ in range(rng.randint(0, 6))]
                if kind in ("covered", "mixed"):  # finite extensions of R's lists
                    for _, ds in rng.sample(row.monomials, min(3, len(lists))):
                        extra = deltas(rng.randint(0, min(width, 3)))
                        picks = {d >> SHIFT: d for d in ds}
                        picks.update((d >> SHIFT, d) for d in extra if d >> SHIFT not in picks)
                        raw.append((rng.choice((M, W, P)), tuple(sorted(picks.values()))))
                    if kind == "covered":
                        raw = raw[-min(3, len(lists)):]
                if kind in ("row inf", "mixed"):
                    raw += rng.sample(row.monomials, rng.randint(1, len(lists)))
                if kind in ("fresh inf", "mixed") and rng.random() < 0.7:
                    raw.append((INF, deltas(rng.randint(1, min(width, 4)))))
                cell = Polynomial.of(raw)
            expected = Polynomial.of(cell.monomials + row.monomials)
            assert merge(cell) == expected == cell + row
            infs = {m for m in cell.monomials if m[0] == INF}
            finite = [ds for s, ds in cell.monomials if s != INF]
            for ds in finite:
                assert covered(ds) == any(set(e) <= set(ds) for e in lists)
            if cell in (ZERO_POLY, UNIT_POLY):
                seen["zero or unit"] += 1
            if infs and not infs <= set(row.monomials):
                seen["INF not in R"] += 1
                continue
            seen["INF all in R"] += bool(infs)
            for ds in finite:
                seen["lookup" if 1 << len(ds) <= len(lists) else "scan"] += 1
            seen["all finite dropped"] += bool(finite) and not any(
                s != INF for s, _ in expected.monomials)
    assert seen["zero or unit"] > 800 and seen["all finite dropped"] > 450, seen
    assert seen["INF all in R"] > 600 and seen["INF not in R"] > 400, seen
    assert seen["lookup"] > 1200 and seen["scan"] > 1100, seen


# --- canonical order and the merge-based product ------------------------

def test_product_with_fixed_monomial_is_monotone_on_equal_index_sets():
    # Multiplying by a fixed monomial preserves the canonical order of
    # monomials drawn from the same index set (nonzero products only).
    singles = [tuple([delta(v, i)]) for i in range(2) for v in range(3)]
    pairs = [
        tuple(sorted((delta(v0, 0), delta(v1, 1))))
        for v0 in range(3) for v1 in range(3)
    ]
    all_deltas = [()] + singles + pairs
    monos = [(s, ds) for s in (M, W, P) for ds in all_deltas]
    for n in monos:
        for a in monos:
            for b in monos:
                (_, da), (_, db) = a, b
                same_domain = {d >> SHIFT for d in da} == {d >> SHIFT for d in db}
                if same_domain and da <= db:
                    pa, pb = _product(a, n), _product(b, n)
                    if pa is not None and pb is not None:
                        assert pa[1] <= pb[1]


def test_monotonicity_fails_across_index_sets():
    # No total order can be multiplication-monotone across index sets;
    # this pair shows why the product re-canonicalizes its merged
    # stream instead of trusting stream order.
    a = (M, (delta(0, 0), delta(1, 1)))
    b = (M, (delta(0, 1),))
    n = (M, (delta(0, 0),))
    assert a[1] <= b[1]
    pa, pb = _product(a, n), _product(b, n)
    assert pa is not None and pb is not None
    assert not pa[1] <= pb[1]


def _has_inf(p):
    return any(s == INF for s, _ in p.monomials)


def _random_poly(rng, reg, allow_inf=False):
    scalars = (M, W, P, INF) if allow_inf else (M, W, P)
    monos = []
    for _ in range(rng.randint(0, 4)):
        idx = rng.sample(range(len(reg)), rng.randint(0, len(reg)))
        monos.append((
            rng.choice(scalars),
            tuple(sorted(delta(rng.randrange(reg.cardinality(i)), i) for i in idx)),
        ))
    return Polynomial.of(monos)


def test_attach_returns_canonical_order():
    # Polynomial.join attaches each branch's delta at a fresh index.  A
    # delta-free monomial sorts first, but not once it gains a delta.
    p = Polynomial.of([(M, ()), (P, (delta(0, 0),))])
    attached = Polynomial.join(1, (p,))
    assert attached == Polynomial.of(attached.monomials)
    assert [ds for _, ds in attached.monomials] == [
        (delta(0, 0), delta(0, 1)), (delta(0, 1),),
    ]
    rng = random.Random(29)
    for _ in range(300):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(0, 3))])
        q = _random_poly(rng, reg, allow_inf=True)
        j = reg.fresh(3)
        v = rng.randrange(3)
        assert Polynomial.join(j, (ZERO_POLY,) * v + (q,)) == Polynomial.of(
            (s, ds + (delta(v, j),)) for s, ds in q.monomials
        )


def test_branch_join_matches_plain_sum():
    # Three branches joined at a fresh index must give the + chain of the
    # branches, each multiplied by its own delta there.
    rng = random.Random(53)
    seen = {"constants": 0, "joined": 0}

    def random_poly(cards):
        width = len(cards)
        monos = [
            (rng.choice((M, W, P, INF)), tuple(sorted(
                delta(rng.randrange(cards[i]), i) for i in rng.sample(range(width), rng.randint(1, width))
            )))
            for _ in range(rng.randint(0, 6))
        ]
        if rng.random() < 0.7:
            monos.append((rng.choice((M, W, P, INF)), ()))
        return Polynomial.of(monos)

    for _ in range(600):
        width = rng.randint(2, 6)
        cards = [rng.choice((1, 2, 3)) for _ in range(width)]
        branches = [random_poly(cards) for _ in range(3)]
        chain = ZERO_POLY
        for v, b in enumerate(branches):
            chain = chain + Polynomial.of(
                (s, ds + (delta(v, width),)) for s, ds in b.monomials)
        assert Polynomial.join(width, branches).monomials == chain.monomials
        seen["constants"] += sum(b.monomials[:1] != () and not b.monomials[0][1]
                                 for b in branches) >= 2
        seen["joined"] += sum(bool(b.monomials) for b in branches) >= 2
    assert min(seen.values()) >= 150, seen


def test_restrict_is_the_canonical_cofactor_at_the_lowest_index():
    # Fixing the pick at index 0 gives a canonical polynomial with no
    # delta there, equal to this one wherever index 0 takes that pick.
    # It is self when no delta list holds index 0, and INF_POLY as soon
    # as an INF monomial loses its last delta; otherwise Polynomial.of
    # makes it canonical.
    rng = random.Random(61)
    seen = {"self": 0, "inf": 0, "of": 0}
    for _ in range(3000):
        reg = ChoiceRegistry([rng.choice((1, 2, 3)) for _ in range(rng.randint(1, 4))])
        monos = [
            (rng.choice((M, W, P, INF, INF)), tuple(sorted(
                delta(rng.randrange(reg.cardinality(i)), i)
                for i in rng.sample(range(len(reg)), rng.randint(1, len(reg)))
            )))
            for _ in range(rng.randint(0, 5))
        ]
        if rng.random() < 0.4:
            monos.append((rng.choice((M, W, P)), ()))
        p = Polynomial.of(monos)
        for pick in range(reg.cardinality(0)):
            r = p.restrict(0, pick)
            seen["self" if r is p else "inf" if r is INF_POLY else "of"] += 1
            assert r == Polynomial.of(r.monomials), (p, pick)
            assert all(d >> SHIFT > 0 for _, ds in r.monomials for d in ds), (p, pick)
            for a in assignments(reg):
                if a[0] == pick:
                    assert r.evaluate(a) == p.evaluate(a), (p, pick, a)
    assert min(seen.values()) >= 400, seen


def test_analysis_joins_at_fresh_indices(monkeypatch):
    # join does not check that its index is larger than any its branches
    # hold; the caller owns that.  Every join the analysis makes, at the
    # additive sites of nested expressions and at calls, must meet it.
    join = Polynomial.join
    seen = {"joins": 0, "branches with indices": 0}

    def recorded_join(index, branches):
        held = {d >> SHIFT for b in branches for _, ds in b.monomials for d in ds}
        assert all(i < index for i in held)
        seen["joins"] += 1
        seen["branches with indices"] += bool(held)
        return join(index, branches)

    monkeypatch.setattr(Polynomial, "join", staticmethod(recorded_join))
    rng = random.Random(67)

    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(("X1", "X2", "X3", "X4"))
        return f"({expr(depth - 1)} {rng.choice('+-*')} {expr(depth - 1)})"

    for _ in range(40):
        lines = [f"X{rng.randint(1, 4)} = {expr(3)};" for _ in range(rng.randint(1, 3))]
        lines.insert(rng.randint(0, len(lines)), f"loop X{rng.randint(1, 4)} {{ {lines.pop()} }}")
        analyze_program(parse(_pool_main(lines)))
    analyze_program(parse(
        "function f(X1, X2) { if (X1 < X2) { X2 = X1 + X2; } else { X2 = X2 * X1; } return X2; }\n"
        "function main() { X3 = (X1 + X2) * X3; X4 = f(X3, X1); X1 = X4 - X2; }\n"
    ))
    assert min(seen.values()) >= 100, seen


def test_eval_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(200):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 3))])
        p = _random_poly(rng, reg, allow_inf=True)
        q = _random_poly(rng, reg, allow_inf=True)
        for a in assignments(reg):
            assert (p + q).evaluate(a) == add(p.evaluate(a), q.evaluate(a))
            assert (p * q).evaluate(a) == mul_inf(p.evaluate(a), q.evaluate(a))


def test_function_semiring_laws_inf_free():
    rng = random.Random(17)
    for _ in range(120):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 2))])
        p, q, r = (_random_poly(rng, reg) for _ in range(3))
        for a in assignments(reg):
            al = a
            assert (p + q).evaluate(al) == (q + p).evaluate(al)
            assert ((p + q) + r).evaluate(al) == (p + (q + r)).evaluate(al)
            assert (p + ZERO_POLY).evaluate(al) == p.evaluate(al)
            assert ((p * q) * r).evaluate(al) == (p * (q * r)).evaluate(al)
            assert (p * UNIT_POLY).evaluate(al) == p.evaluate(al)
            assert (p * ZERO_POLY).evaluate(al) == ZERO
            assert (p * (q + r)).evaluate(al) == ((p * q) + (p * r)).evaluate(al)
            assert ((p + q) * r).evaluate(al) == ((p * r) + (q * r)).evaluate(al)


# --- registry ----------------------------------------------------------

def test_registry_allocation_and_validation():
    reg = ChoiceRegistry()
    assert reg.fresh(3) == 0
    assert reg.fresh(2) == 1
    assert reg.cardinalities == (3, 2)
    assert reg.count_assignments() == 6
    assert len(assignments(reg)) == 6
    reg.validate((2, 1))
    with pytest.raises(ValueError):
        reg.validate((3, 0))
    with pytest.raises(ValueError):
        reg.validate((0,))
    with pytest.raises(ValueError):
        ChoiceRegistry([0])


def test_registry_cardinality_must_fit_the_pick_field():
    # A delta keeps its pick below SHIFT bits, so a domain of 1 << SHIFT
    # picks is the largest one a registry takes.
    reg = ChoiceRegistry([1 << SHIFT])
    assert reg.fresh(1 << SHIFT) == 1
    reg.validate((MASK, MASK))
    for bad in ((1 << SHIFT) + 1, 0):
        with pytest.raises(ValueError):
            reg.fresh(bad)
        with pytest.raises(ValueError):
            ChoiceRegistry([3, bad])
    assert reg.cardinalities == (1 << SHIFT, 1 << SHIFT)
    assert delta(MASK, 0) < delta(0, 1)
    for value, index in ((1 << SHIFT, 0), (-1, 1), (0, -1)):  # 1 << SHIFT would read as d(0, 1)
        with pytest.raises(ValueError):
            delta(value, index)


# --- the delta encoding ------------------------------------------------

def test_encoded_delta_lists_sort_as_their_pairs():
    # Sorting encoded deltas, and encoded delta lists, gives the encoding
    # of the sorted (index, value) pairs and pair lists, also with picks
    # at the top of the field and indices past 2**10.
    rng = random.Random(73)

    def pair():
        return (rng.choice((0, 1, 2, 1023, 1024, 1025, rng.randrange(1 << 14))),
                rng.choice((0, 1, 2, MASK - 1, MASK, rng.randrange(1 << SHIFT))))

    def encoded(pairs):
        return tuple(delta(v, i) for i, v in pairs)

    for _ in range(300):
        lists = [tuple(pair() for _ in range(rng.randint(0, 4))) for _ in range(rng.randint(0, 8))]
        for pairs in lists:
            assert tuple(sorted(encoded(pairs))) == encoded(sorted(pairs))
            assert [(d >> SHIFT, d & MASK) for d in encoded(pairs)] == list(pairs)
        assert sorted(map(encoded, lists)) == [encoded(pairs) for pairs in sorted(lists)]


def test_index_tests_read_the_index_not_the_whole_delta():
    # Equal indices with different picks: _multiply must reach the
    # conflict check, not append because the second code is larger.
    # restrict and evaluate read the index and the pick apart, also for
    # a pick at the top of the field.
    low, high = delta(0, 1), delta(MASK, 1)
    assert _product((M, (low,)), (P, (high,))) is None
    assert _product((M, (delta(5, 0),)), (P, (high,))) == (P, (delta(5, 0), high))
    assert _product((M, (low, delta(2, 2))), (P, (high,))) is None
    acc = {}
    _multiply(acc, [(0, [(M, (low,))]), (1, [(W, (delta(3, 0),))])], [(P, (high,))])
    assert acc == {0: [], 1: [(P, (delta(3, 0), high))]}
    p = Polynomial.of([(W, (high, delta(2, 2))), (INF, (low,)), (M, (delta(1, 2),))])
    assert p.restrict(1, MASK) == Polynomial.of([(W, (delta(2, 2),)), (M, (delta(1, 2),))])
    assert p.restrict(1, 0) == INF_POLY
    assert p.restrict(1, 7) == Polynomial.of([(M, (delta(1, 2),))])
    assert p.evaluate((0, MASK, 2)) == W
    assert p.evaluate((0, MASK - 1, 1)) == M
    assert p.evaluate((0, 0, 2)) == INF
    assert str(p) == f"i.δ(0,1)+w.δ({MASK},1).δ(2,2)+m.δ(1,2)"


# --- the matrix view and the isomorphism --------------------------------

def _loop_example_matrix():
    reg = ChoiceRegistry([3])
    x1x2 = poly((P, [delta(0, 0)]), (P, [delta(1, 0)]), (W, [delta(2, 0)]))
    x2x2 = poly((M, []), (INF, [delta(0, 0)]), (INF, [delta(2, 0)]))
    x3x2 = poly((P, [delta(0, 0)]), (P, [delta(1, 0)]))
    rows = [
        [UNIT_POLY, x1x2, ZERO_POLY],
        [ZERO_POLY, x2x2, ZERO_POLY],
        [ZERO_POLY, x3x2, UNIT_POLY],
    ]
    return ChoiceMatrix(("X1", "X2", "X3"), rows, reg)


def test_expand_constant_matrix():
    reg = ChoiceRegistry([3])
    m = ChoiceMatrix.identity(("A", "B"), reg)
    table = m.expand()
    assert len(table) == 3
    assert set(table.values()) == {FlowMatrix.identity(2)}


def test_matrix_input_checks():
    # Sums and products need one variable order and one registry, a
    # replaced column rows inside the matrix, and the rows constructor a
    # square of cells.
    reg = ChoiceRegistry([3])
    m = _loop_example_matrix()
    for other in (ChoiceMatrix.identity(("X2", "X1", "X3"), m.registry),
                  ChoiceMatrix.identity(("X1", "X2"), m.registry)):
        for op in (ChoiceMatrix.__add__, ChoiceMatrix.__mul__):
            with pytest.raises(ValueError, match="variable orders differ"):
                op(m, other)
    other = ChoiceMatrix.identity(m.variables, reg)
    for op in (ChoiceMatrix.__add__, ChoiceMatrix.__mul__):
        with pytest.raises(ValueError, match="matrices belong to different analyses"):
            op(m, other)
    for column in ({0: UNIT_POLY, 3: UNIT_POLY}, {-1: UNIT_POLY}):
        with pytest.raises(ValueError, match="column row out of range"):
            m.replace_column(1, column)
    for rows in ([[UNIT_POLY, ZERO_POLY], [ZERO_POLY]],
                 [[UNIT_POLY, ZERO_POLY]],
                 [[UNIT_POLY], [ZERO_POLY]],
                 [[UNIT_POLY, ZERO_POLY, ZERO_POLY], [ZERO_POLY, UNIT_POLY, ZERO_POLY]]):
        with pytest.raises(ValueError, match="matrix shape must match the variable list"):
            ChoiceMatrix(("A", "B"), rows, reg)


def test_expand_loop_example_images():
    m = _loop_example_matrix()
    table = m.expand()
    assert len(table) == 3
    assert len(set(table.values())) == 3
    clean = FlowMatrix([[M, P, ZERO], [ZERO, M, ZERO], [ZERO, P, M]])
    assert table[(1,)] == clean
    assert table[(0,)].rows[1][1] == INF
    assert table[(2,)].rows[1][1] == INF


def test_from_tables_round_trips_as_functions():
    rng = random.Random(23)
    for _ in range(120):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 3))])
        n = rng.randint(1, 3)
        names = tuple(f"V{i}" for i in range(n))
        rows = [
            [_random_poly(rng, reg, allow_inf=True) for _ in range(n)]
            for _ in range(n)
        ]
        m = ChoiceMatrix(names, rows, reg)
        rebuilt = ChoiceMatrix.from_tables(names, reg, m.expand())
        assert rebuilt.expand() == m.expand()


def test_from_tables_fuses_constant_fans():
    reg = ChoiceRegistry([3])
    table = {(a,): FlowMatrix([[W]]) for a in range(3)}
    rebuilt = ChoiceMatrix.from_tables(("V",), reg, table)
    assert rebuilt.entries[0][0] == Polynomial.const(W)


def test_matrix_ops_commute_with_expansion():
    rng = random.Random(29)
    for _ in range(60):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 2))])
        n = rng.randint(1, 3)
        names = tuple(f"V{i}" for i in range(n))
        a = ChoiceMatrix(
            names,
            [[_random_poly(rng, reg) for _ in range(n)] for _ in range(n)],
            reg,
        )
        b = ChoiceMatrix(
            names,
            [[_random_poly(rng, reg) for _ in range(n)] for _ in range(n)],
            reg,
        )
        for al in assignments(reg):
            assert (a + b).evaluate(al) == a.evaluate(al) + b.evaluate(al)
            assert (a * b).evaluate(al) == a.evaluate(al) * b.evaluate(al)


def _cellwise_product(a, b):
    """The product by its definition: cell (i, c) is the sum over k of A[i][k] * B[k][c]."""
    n = len(a.variables)
    entries = []
    for i in range(n):
        row = []
        for c in range(n):
            acc = ZERO_POLY
            for k in range(n):
                acc = acc + a.entries[i][k] * b.entries[k][c]
            row.append(acc)
        entries.append(row)
    return ChoiceMatrix(a.variables, entries, a.registry)


def _unit_outside_columns(rng, n, entry):
    """The identity outside one or two columns, as a command matrix is."""
    written = rng.sample(range(n), min(n, rng.randint(1, 2)))
    return [
        [entry() if c in written else UNIT_POLY if r == c else ZERO_POLY for c in range(n)]
        for r in range(n)
    ]


def _rows_repeating_inf(rng, reg, n, entry):
    """Rows that carry one INF monomial in several of their cells."""
    rows = []
    for _ in range(n):
        row = [entry() for _ in range(n)]
        idx = rng.sample(range(len(reg)), rng.randint(0, len(reg)))
        inf = Polynomial.of([(
            INF, tuple(sorted(delta(rng.randrange(reg.cardinality(i)), i) for i in idx))
        )])
        for c in rng.sample(range(n), rng.randint(min(2, n), n)):
            row[c] = row[c] + inf
        rows.append(row)
    return rows


def _unit_column_rows(a, b):
    """For each cell (i, c) where column c of b is the unit vector e_c:
    whether row i of a holds INF."""
    n = len(a.variables)
    return [
        any(_has_inf(p) for p in a.entries[i])
        for c in range(n)
        if all(b.entries[k][c] == (UNIT_POLY if k == c else ZERO_POLY) for k in range(n))
        for i in range(n)
    ]


def test_matrix_product_matches_cellwise_definition():
    # INF monomials sit opposite zero entries: 0·∞ = ∞ carries them into
    # every cell of their row (left factor) or column (right factor).
    # Right factors that are the identity outside a few columns pass
    # cells of the left factor through, with or without row INF.
    rng = random.Random(31)
    for shape in ("dense", "unit columns", "repeated INF rows"):
        inf_opposite_zero = 0
        unit_cells = {False: 0, True: 0}  # by whether the left row holds INF
        for _ in range(150):
            reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 3))])
            n = rng.randint(1, 4)
            names = tuple(f"V{i}" for i in range(n))

            def entry():
                return ZERO_POLY if rng.random() < 0.4 else _random_poly(rng, reg, allow_inf=True)

            def dense():
                return [[entry() for _ in range(n)] for _ in range(n)]

            a = ChoiceMatrix(names, (
                _rows_repeating_inf(rng, reg, n, entry) if shape == "repeated INF rows"
                else dense()
            ), reg)
            b = ChoiceMatrix(names, (
                _unit_outside_columns(rng, n, entry) if shape == "unit columns" else dense()
            ), reg)
            inf_opposite_zero += sum(
                (_has_inf(a.entries[i][k]) and not b.entries[k][c].monomials)
                or (not a.entries[i][k].monomials and _has_inf(b.entries[k][c]))
                for i in range(n) for k in range(n) for c in range(n)
            )
            for row_has_inf in _unit_column_rows(a, b):
                unit_cells[row_has_inf] += 1
            assert a * b == _cellwise_product(a, b), shape
        assert inf_opposite_zero > 100, shape
        if shape == "unit columns":
            assert min(unit_cells.values()) > 100


def _product_checker(monkeypatch):
    """Check every product the analysis takes against the definition.

    The fold updates columns without a right factor, so each column
    update is also checked against the product with the matrix it
    stands for: the identity with those columns replaced.  __mul__
    calls the update itself, so only the outermost call is checked.
    The closure takes no product: each is checked against the
    definition's fixpoint and counted as 1 + M times itself, the
    product its first step stands for.
    """
    product = ChoiceMatrix.__mul__
    update = ChoiceMatrix.update_columns
    closure = ChoiceMatrix.closure
    checked = []
    updates = []  # the pairs of column updates the fold takes directly
    busy = []

    def checked_product(a, b):
        if busy:
            return product(a, b)
        busy.append(True)
        try:
            out = product(a, b)
            assert out == _cellwise_product(a, b)
        finally:
            busy.pop()
        checked.append((a, b))
        return out

    def checked_columns(call, a, arg, columns):
        """call(a, arg), checked as a times the identity with columns()."""
        if busy:
            return call(a, arg)
        b = ChoiceMatrix.identity(a.variables, a.registry)
        for c, col in columns().items():
            b = b.replace_column(c, col)
        busy.append(True)
        try:
            out = call(a, arg)
            assert out == product(a, b) == _cellwise_product(a, b)
        finally:
            busy.pop()
        checked.append((a, b))
        return out

    def checked_update(a, columns):
        done = len(checked)
        out = checked_columns(update, a, columns, lambda: columns)
        updates.extend(checked[done:])
        return out

    def checked_closure(m):
        if busy:
            return closure(m)
        plain = ChoiceMatrix(m.variables, m.entries, m.registry)
        busy.append(True)
        try:
            out = closure(m)
            assert out.entries == _sum_fixpoint(plain).entries
        finally:
            busy.pop()
        first = ChoiceMatrix.identity(m.variables, m.registry) + plain
        checked.append((first, first))
        return out

    monkeypatch.setattr(ChoiceMatrix, "__mul__", checked_product)
    monkeypatch.setattr(ChoiceMatrix, "update_columns", checked_update)
    monkeypatch.setattr(ChoiceMatrix, "closure", checked_closure)
    return checked, updates


def _pool_main(lines):
    return "function main() {\n" + "".join(f"    {line}\n" for line in lines) + "}\n"


def _feedback_loops(k, n=5):
    x = [f"X{i + 1}" for i in range(n)]
    return _pool_main([
        f"loop {x[(i + 2) % n]} {{ {x[(i + 1) % n]} = {x[i % n]} + {x[(i + 1) % n]}; }}"
        for i in range(k)
    ])


def _while_loops(k, n=6):
    x = [f"X{i + 1}" for i in range(n)]
    return _pool_main([
        f"while ({x[i % n]} < {x[(i + 1) % n]}) {{ {x[(i + 1) % n]} = {x[i % n]} + {x[(i + 1) % n]}; }}"
        for i in range(k)
    ])


def _branch_blocks(k, n=6):
    x = [f"X{i + 1}" for i in range(n)]
    return _pool_main([
        f"if ({x[(s + 1) % n]} < {x[(s + 2) % n]}) {{ {x[s % n]} = {x[(s + 1) % n]} + {x[(s + 2) % n]}; }}"
        f" else {{ {x[s % n]} = {x[(s + 2) % n]} - {x[(s + 1) % n]}; }}"
        for s in range(k)
    ])


@pytest.mark.parametrize("src, inf_rows_met", [
    (_feedback_loops(6), 50), (_while_loops(6), 50), (_branch_blocks(12), 0),
], ids=["feedback", "while", "branch"])
def test_analysis_products_match_cellwise_definition(monkeypatch, src, inf_rows_met):
    # Loops leave INF in rows that later command matrices, the identity
    # outside the column they write, must carry along; branches are
    # INF-free, so their cells all pass through.
    checked, _ = _product_checker(monkeypatch)
    analyze_program(parse(src))
    unit_with_row_inf = sum(sum(_unit_column_rows(a, b)) for a, b in checked)
    assert len(checked) > 10
    assert unit_with_row_inf >= inf_rows_met


def test_analysis_closures_match_sum_fixpoint(monkeypatch):
    # Every closure the analysis takes must equal the definition's
    # fixpoint of its body's cells byte for byte, also where the body's
    # rows hold INF, where the fixpoint takes more rounds than the first
    # product, and in nested loops, which _product_checker's programs
    # do not hold.
    closure = ChoiceMatrix.closure
    seen = {"closures": 0, "inf rows": 0, "past first product": 0}

    def checked_closure(m):
        out = closure(m)
        plain = ChoiceMatrix(m.variables, m.entries, m.registry)
        assert out.entries == _sum_fixpoint(plain).entries
        first = ChoiceMatrix.identity(m.variables, m.registry) + plain
        seen["closures"] += 1
        seen["inf rows"] += sum(any(_has_inf(p) for p in row) for row in m.entries)
        seen["past first product"] += out != first * first
        return out

    monkeypatch.setattr(ChoiceMatrix, "closure", checked_closure)
    x = [f"X{i + 1}" for i in range(6)]
    nested = _pool_main([
        f"loop {x[(i + 5) % 6]} {{ while ({x[i % 6]} < {x[(i + 1) % 6]}) {{"
        f" {x[(i + 1) % 6]} = {x[(i + 1) % 6]} + {x[i % 6]}; }}"
        f" {x[i % 6]} = {x[(i + 2) % 6]} + {x[i % 6]};"
        f" {x[(i + 2) % 6]} = {x[(i + 3) % 6]} * {x[(i + 1) % 6]};"
        f" {x[(i + 3) % 6]} = {x[i % 6]} + {x[(i + 4) % 6]}; }}"
        for i in range(6)
    ])
    for src in (_feedback_loops(6), _while_loops(6), _branch_blocks(12), nested):
        analyze_program(parse(src))
    assert seen == {"closures": 24, "inf rows": 12, "past first product": 6}


def test_fold_column_updates_match_cellwise_definition(monkeypatch):
    # Assignments and calls after a body's first command update columns
    # without a product.  Here they meet rows that a loop left holding
    # INF, and a call to a callee with no behaviors writes INF into its
    # target's column.
    src = (
        "function f(X1) { while (X1 < X2) { X2 = X1 + X2; } return X2; }\n"
        "function main() {\n"
        "    loop X3 { X2 = X1 + X2; X1 = X2 * X1; }\n"
        "    X4 = X1 + X2;\n"
        "    X2 = f(X4);\n"
        "    while (X1 < X4) { X4 = X4 + X1; X3 = X4 * X2; }\n"
        "    X1 = X3 + X4;\n"
        "    X3 = f(X1);\n"
        "    X4 = X3 * X2;\n"
        "}\n"
    )
    _, updates = _product_checker(monkeypatch)
    analyze_program(parse(src))
    inf_rows = sum(any(_has_inf(p) for p in row) for a, _ in updates for row in a.entries)
    inf_columns = sum(
        any(_has_inf(b.entries[k][c]) for k in range(len(b.variables)))
        for _, b in updates for c in range(len(b.variables))
    )
    assert (len(updates), inf_rows, inf_columns) == (7, 16, 2)


def _product_skipping_zero_factors(a, b):
    """A wrong product: a zero factor drops the INF monomials it meets."""
    n = len(a.variables)
    return ChoiceMatrix(a.variables, [
        [
            sum((a.entries[i][k] * b.entries[k][c] for k in range(n)
                 if a.entries[i][k].monomials and b.entries[k][c].monomials), ZERO_POLY)
            for c in range(n)
        ]
        for i in range(n)
    ], a.registry)


def test_loop_chain_product_spreads_inf(monkeypatch):
    # 20 loops over a 22-variable chain: every product the analysis takes
    # equals the cellwise definition, and a product that lets a zero
    # factor drop INF monomials changes 274 cells of the final matrix.
    src = "function main() {\n" + "".join(
        f"    loop X{i + 1} {{ X{i + 3} = X{i + 2} * X{i + 3}; }}\n" for i in range(20)
    ) + "}\n"
    checked, _ = _product_checker(monkeypatch)
    main = analyze_program(parse(src)).functions["main"]
    assert len(checked) > 20
    monkeypatch.setattr(ChoiceMatrix, "__mul__", _product_skipping_zero_factors)
    wrong = analyze_program(parse(src)).functions["main"]
    changed = sum(
        p != q for rp, rq in zip(main.matrix.entries, wrong.matrix.entries) for p, q in zip(rp, rq)
    )
    assert changed == 274


def _sum_fixpoint(m):
    """The closure by its definition: s = 1 + M, then s + s·M until it stops."""
    s = ChoiceMatrix.identity(m.variables, m.registry) + m
    while (nxt := s + s * m) != s:
        s = nxt
    return s


def test_closure_matches_sum_fixpoint_and_flow_closure():
    # closure eliminates over the stored columns; it must give the cells
    # of the fixpoint of s + s·M byte for byte, and evaluate to the flow
    # closure at every assignment.
    rng = random.Random(37)
    seen = {"inf": 0, "rounds": 0, "zero": 0, "cells": 0}
    for _ in range(600):
        reg = ChoiceRegistry([rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
        n = rng.randint(1, 4)
        rows = [
            [
                ZERO_POLY if rng.random() < 0.45
                else _random_poly(rng, reg, allow_inf=rng.random() < 0.2)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = ChoiceMatrix(tuple(f"V{i}" for i in range(n)), rows, reg)
        star = m.closure()
        assert star == _sum_fixpoint(m)
        for a in assignments(reg):
            assert star.evaluate(a) == m.evaluate(a).closure(), a
        seen["inf"] += any(_has_inf(p) for row in m.entries for p in row)
        seen["rounds"] += star != ChoiceMatrix.identity(m.variables, reg) + m
        seen["zero"] += sum(not p.monomials for row in rows for p in row)
        seen["cells"] += n * n
    assert seen["inf"] >= 100 and seen["rounds"] >= 100
    assert seen["zero"] >= 0.4 * seen["cells"]

    # No finite monomial moves, yet row 1's INF, which s·M brings into
    # cell (0, 0), reaches the rest of row 0 through the row lists.
    reg = ChoiceRegistry([2])
    inf = poly((INF, [delta(0, 0)]))
    m = ChoiceMatrix(("V0", "V1"), [[UNIT_POLY, ZERO_POLY], [inf, UNIT_POLY]], reg)
    star = m.closure()
    assert star == _sum_fixpoint(m)
    assert star.entries[0][1] == inf
    for a in assignments(reg):
        assert star.evaluate(a) == m.evaluate(a).closure(), a


def _diagonal(rng, reg):
    """A diagonal cell: zero, one monomial (the unit, w, p, or one with
    deltas), INF alone or beside finite ones, or a random polynomial."""
    def cylinder():
        idx = rng.sample(range(len(reg)), rng.randint(1, len(reg))) if len(reg) else []
        return tuple(sorted(delta(rng.randrange(reg.cardinality(i)), i) for i in idx))
    kind = rng.randrange(7)
    if kind == 0:
        return ZERO_POLY
    if kind == 1:
        return Polynomial.of([(rng.choice((M, W, P)), ())])
    if kind == 2:
        return Polynomial.of([(rng.choice((M, W, P)), cylinder())])
    if kind == 3:
        return Polynomial.of([(INF, cylinder())])
    if kind == 4:
        return Polynomial.of([(INF, cylinder()), (rng.choice((W, P)), cylinder())])
    return _random_poly(rng, reg, allow_inf=kind == 5)


def _stored_columns_matrix(rng, reg, n, k):
    """A matrix that is the identity outside k stored columns, with some
    rows zero in all of them, and, half the time, carried row lists: it
    is then the product of such a matrix with another, whose row INF
    spreads over whole rows."""
    names = tuple(f"V{i}" for i in range(n))
    written = rng.sample(range(n), k)
    zero_rows = set(rng.sample(range(n), rng.randint(0, n - 1)))

    def cell(r, c):
        if r == c:
            return _diagonal(rng, reg)
        if r in zero_rows or rng.random() < 0.4:
            return ZERO_POLY
        return _random_poly(rng, reg, allow_inf=rng.random() < 0.2)

    def matrix():
        return ChoiceMatrix(names, [
            [cell(r, c) if c in written else UNIT_POLY if r == c else ZERO_POLY for c in range(n)]
            for r in range(n)
        ], reg)

    m = matrix()
    return m * matrix() if rng.random() < 0.5 else m


def _check_closure(m, reg):
    star = m.closure()
    assert star.entries == _sum_fixpoint(ChoiceMatrix(m.variables, m.entries, reg)).entries
    for a in assignments(reg):
        assert star.evaluate(a) == m.evaluate(a).closure(), a
    return star


def test_closure_eliminates_up_to_six_stored_columns():
    # The elimination pivots on each stored column once, in the order of
    # the columns dict.  It must give the definition's fixpoint and the
    # flow closure, for every diagonal shape a pivot can meet, and a
    # different pivot order must give the same cells.  As 0·∞ = ∞, the
    # star has one INF list, every INF monomial of m's, held by every
    # row: no list is pending and no stored cell holds INF.
    rng = random.Random(53)
    seen = Counter()
    for _ in range(300):
        reg = ChoiceRegistry([rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
        k = rng.randint(1, 6)
        m = _stored_columns_matrix(rng, reg, rng.randint(k, 7), k)
        star = _check_closure(m, reg)
        inf = Polynomial.of(x for row in m.entries for p in row for x in p.monomials if x[0] == INF)
        assert star.row_inf == (dict.fromkeys(range(len(m.variables)), inf) if inf.monomials else {})
        assert star.pending == {}
        assert all(p.monomials for col in star.columns.values() for p in col.values())
        assert all(x[0] != INF for col in star.columns.values() for p in col.values()
                   for x in p.monomials)
        seen["INF list"] += bool(inf.monomials)
        order = list(m.columns.items())
        rng.shuffle(order)
        # _stored merges written columns after the operand's: write them
        # all over the identity.
        other = ChoiceMatrix.identity(m.variables, reg)._stored(dict(order), m.row_inf, m.pending)
        assert other.closure().entries == star.entries
        seen[f"{len(m.columns)} stored"] += 1
        seen["reordered"] += [c for c, _ in order] != list(m.columns)
        seen["row lists"] += any(r.monomials for r in m.row_inf.values())
        for c, col in m.columns.items():
            diag = col.get(c, ZERO_POLY).monomials
            seen["one non-unit diagonal"] += len(diag) == 1 and diag[0] != (M, ())
            seen["INF diagonal"] += any(x[0] == INF for x in diag)
        seen["zero rows"] += sum(
            not any(i in col for col in m.columns.values()) for i in range(len(m.variables)))
    assert min(seen[f"{k} stored"] for k in range(1, 7)) >= 20, seen
    assert min(seen["reordered"], seen["row lists"], seen["one non-unit diagonal"],
               seen["INF diagonal"], seen["zero rows"], seen["INF list"]) >= 100, seen


def test_closure_of_one_stored_column():
    # One stored column: the elimination only scales it by its diagonal,
    # and skips that only when the diagonal is the unit alone.
    reg = ChoiceRegistry([2, 3])
    d0, d1 = delta(0, 0), delta(2, 1)
    names = ("V0", "V1", "V2")
    cells = [
        ZERO_POLY, UNIT_POLY, Polynomial.const(W), Polynomial.const(P),
        poly((W, [d0])), poly((P, [d0, d1])), poly((M, []), (P, [d1])),
        poly((INF, [d0])), poly((INF, [])), poly((INF, [d1]), (W, [d0])),
    ]
    for diag in cells:
        for other in cells:
            for c in range(3):
                rows = [[UNIT_POLY if r == k else ZERO_POLY for k in range(3)] for r in range(3)]
                rows[c][c] = diag
                rows[(c + 1) % 3][c] = other
                m = ChoiceMatrix(names, rows, reg)
                assert len(m.columns) <= 1
                _check_closure(m, reg)


def _eager_update(rows, columns):
    """A column update that merges each row's INF list into every cell of
    the row at once: written cells hold the finite products with the
    row's and the column's INF, the others their own cell with the row's."""
    out = []
    for row in rows:
        row_inf = [m for p in row for m in p.monomials if m[0] == INF]
        new_row = []
        for c, p in enumerate(row):
            if c not in columns:
                new_row.append(Polynomial.of(list(p.monomials) + row_inf))
                continue
            col = columns[c]
            monos = row_inf + [m for q in col for m in q.monomials if m[0] == INF]
            monos += [
                r
                for k, q in enumerate(col)
                for r in (_finite(row[k]) * _finite(q)).monomials
            ]
            new_row.append(Polynomial.of(monos))
        out.append(tuple(new_row))
    return tuple(out)


def _finite(p):
    return Polynomial(tuple(m for m in p.monomials if m[0] != INF))


def _stored_view(m):
    """The cells as stored: a stored column's or the unit vector's, with
    no row list merged in."""
    rows = [[UNIT_POLY if i == c else ZERO_POLY for c in range(len(m.variables))] for i in range(len(m.variables))]
    for c, col in m.columns.items():
        for i, row in enumerate(rows):
            row[c] = col.get(i, ZERO_POLY)
    return tuple(map(tuple, rows))


def _cells(column):
    """A dense column as the nonzero cells by row that operations take."""
    return {i: p for i, p in enumerate(column) if p.monomials}


def test_carried_row_inf_matches_eager_updates():
    # update_columns keeps each row's INF list beside the stored cells
    # and merges it in when entries is read.  Along chains of updates the
    # cells read must equal the eager update's byte for byte, evaluate to
    # the flow-matrix product, and equal a matrix built from those cells.
    rng = random.Random(43)
    seen = {"row lists": 0, "pending": 0, "merged": 0, "zero": 0, "cells": 0}
    for _ in range(400):
        reg = ChoiceRegistry([rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
        n = rng.randint(1, 4)
        names = tuple(f"V{i}" for i in range(n))

        def entry():
            seen["cells"] += 1
            p = ZERO_POLY if rng.random() < 0.45 else _random_poly(rng, reg, allow_inf=rng.random() < 0.3)
            seen["zero"] += not p.monomials
            return p

        m = ChoiceMatrix(names, [[entry() for _ in range(n)] for _ in range(n)], reg)
        eager = m.entries
        flows = {a: m.evaluate(a) for a in assignments(reg)}
        for _ in range(rng.randint(1, 6)):
            columns = {c: [entry() for _ in range(n)] for c in rng.sample(range(n), rng.randint(1, n))}
            m = m.update_columns({c: _cells(col) for c, col in columns.items()})
            eager = _eager_update(eager, columns)
            assert all(p.monomials for p in m.row_inf.values())
            assert all(p == Polynomial.of(p.monomials) for col in m.columns.values()
                       for p in col.values())
            assert m.entries == eager
            b = ChoiceMatrix.identity(names, reg)
            for c, col in columns.items():
                b = b.replace_column(c, _cells(col))
            for a in flows:
                flows[a] = flows[a] * b.evaluate(a)
                assert m.evaluate(a) == flows[a], a
            seen["row lists"] += any(r.monomials for r in m.row_inf.values())
            seen["pending"] += any(p.monomials for p in m.pending.values())
            seen["merged"] += _stored_view(m) != m.entries
        plain = ChoiceMatrix(names, m.entries, reg)
        assert m == plain and hash(m) == hash(plain)
    assert min(seen["row lists"], seen["pending"], seen["merged"]) >= 200, seen
    assert seen["zero"] >= 0.4 * seen["cells"]


def _unit_outside(names, reg, columns):
    """The plain matrix that is the identity outside the keys of columns."""
    n = len(names)
    return ChoiceMatrix(names, [
        [columns[c][k] if c in columns else UNIT_POLY if k == c else ZERO_POLY for c in range(n)]
        for k in range(n)
    ], reg)


def test_stored_form_matches_plain_operations():
    # Chains of operations on the stored form, each step checked against
    # the same operation on plain matrices rebuilt from the operands'
    # entries, and against the flow-matrix operation at every
    # assignment.  Row lists and pending INF build up along a chain;
    # replaced columns and sums leave pending INF in some rows only, as
    # the iteration rule's twins, a poisoned call and two branches do.
    rng = random.Random(47)
    seen = dict.fromkeys(("replace", "update", "mul", "add", "closure"), 0)
    seen.update({"row lists": 0, "uneven pending": 0, "zero": 0, "cells": 0, "inf cells": 0})

    def check(out, plain, flow, reg):
        # _stored recounts only the columns an operation replaced, and
        # no operation stores a zero cell or an empty row or pending list.
        assert out.size == sum(len(p.monomials) for col in out.columns.values()
                               for p in col.values())
        assert all(p.monomials for col in out.columns.values() for p in col.values())
        assert all(p.monomials for p in (*out.row_inf.values(), *out.pending.values()))
        assert out.entries == plain
        for a in assignments(reg):
            assert out.evaluate(a) == flow(a), a

    for _ in range(500):
        reg = ChoiceRegistry([rng.randint(1, 3) for _ in range(rng.randint(0, 3))])
        n = rng.randint(1, 4)
        names = tuple(f"V{i}" for i in range(n))

        def entry():
            seen["cells"] += 1
            p = ZERO_POLY if rng.random() < 0.45 else _random_poly(rng, reg, allow_inf=rng.random() < 0.3)
            seen["zero"] += not p.monomials
            return p

        def step(m):
            op = rng.choice(("replace", "update", "mul", "add", "closure"))
            seen[op] += 1
            seen["row lists"] += any(r.monomials for r in m.row_inf.values())
            seen["uneven pending"] += len({m.pending.get(i, ZERO_POLY) for i in range(n)}) > 1
            if op == "replace":
                # The new column keeps the INF of the entries it replaces.
                j = rng.randrange(n)
                col = [entry() + Polynomial.of(x for x in m.entries[i][j].monomials if x[0] == INF)
                       for i in range(n)]
                out = m.replace_column(j, _cells(col))
                seen["inf cells"] += sum(any(x[0] == INF for x in q.monomials) for q in col)
                rows = [list(r) for r in m.entries]
                for i in range(n):
                    rows[i][j] = col[i]
                check(out, tuple(map(tuple, rows)),
                      lambda a: FlowMatrix([[p.evaluate(a) for p in r] for r in rows]), reg)
            elif op == "update":
                columns = {c: [entry() for _ in range(n)] for c in rng.sample(range(n), rng.randint(1, n))}
                out = m.update_columns({c: _cells(col) for c, col in columns.items()})
                b = _unit_outside(names, reg, columns)
                check(out, _eager_update(m.entries, columns),
                      lambda a: m.evaluate(a) * b.evaluate(a), reg)
            elif op == "mul":
                b = chain(rng.randint(1, 2))
                out = m * b
                plain_a, plain_b = (ChoiceMatrix(names, x.entries, reg) for x in (m, b))
                check(out, _cellwise_product(plain_a, plain_b).entries,
                      lambda a: m.evaluate(a) * b.evaluate(a), reg)
            elif op == "add":
                b = chain(rng.randint(1, 2))
                out = m + b
                check(out, tuple(tuple(p + q for p, q in zip(ra, rb))
                                 for ra, rb in zip(m.entries, b.entries)),
                      lambda a: m.evaluate(a) + b.evaluate(a), reg)
            else:
                out = m.closure()
                check(out, _sum_fixpoint(ChoiceMatrix(names, m.entries, reg)).entries,
                      lambda a: m.evaluate(a).closure(), reg)
            return out

        if rng.random() < 0.5:
            start = ChoiceMatrix.identity(names, reg)
        else:
            start = ChoiceMatrix(names, [[entry() for _ in range(n)] for _ in range(n)], reg)

        def chain(length):
            # A second chain from the same start gives the right operand
            # of a product or a sum.
            m = start
            for _ in range(length):
                m = step(m)
            return m

        chain(rng.randint(1, 6))
    assert min(seen[op] for op in ("replace", "update", "mul", "add", "closure")) >= 500, seen
    assert min(seen["row lists"], seen["uneven pending"]) >= 300, seen
    assert seen["zero"] >= 0.4 * seen["cells"]
    assert seen["inf cells"] >= 300, seen  # replace_column reads their INF monomials


def test_rendering():
    p = poly((M, []), (P, [delta(1, 0)]), (INF, [delta(0, 0), delta(2, 1)]))
    assert str(p) == "m+i.δ(0,0).δ(2,1)+p.δ(1,0)"
    assert str(ZERO_POLY) == "0"
