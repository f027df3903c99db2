import random

import pytest

from mwpflow.delta_graph import DeltaGraph
from mwpflow.polynomial import MASK, SHIFT, ChoiceRegistry, Polynomial, delta
from mwpflow.semiring import MWP_INF_VALUES


def covered_by_raw(raw, assignment):
    return any(all(assignment[d >> SHIFT] == d & MASK for d in ds) for ds in raw)


def complete(g):
    return g.sweep().count == 0


def test_insert_single_vertex():
    g = DeltaGraph(ChoiceRegistry([1, 3]))
    g.insert([delta(0, 1)])
    assert g.vertices() == [(delta(0, 1),)]
    assert not complete(g)


def test_full_fan_fuses_to_empty():
    g = DeltaGraph(ChoiceRegistry([1, 3]))
    g.insert([delta(0, 1)])
    g.insert([delta(1, 1)])
    assert not complete(g)
    g.insert([delta(2, 1)])
    assert complete(g)
    g.fuse()
    assert g.vertices() == [()]
    assert complete(g)


def test_fuse_three_siblings_into_shorter():
    g = DeltaGraph(ChoiceRegistry([1, 3, 3]))
    for k in range(3):
        g.insert([delta(k, 1), delta(0, 2)])
    g.fuse()
    assert g.vertices() == [(delta(0, 2),)]


def test_fuse_no_candidates_is_stable():
    g = DeltaGraph(ChoiceRegistry([1, 3, 3]))
    g.insert([delta(0, 1)])
    g.insert([delta(1, 2)])
    before = g.vertices()
    g.fuse()
    assert g.vertices() == before


def test_cascading_fusion_over_nine_vertices():
    reg = ChoiceRegistry([3, 3])
    g = DeltaGraph(reg)
    raw = []
    for a in range(3):
        for b in range(3):
            ds = (delta(a, 0), delta(b, 1))
            raw.append(ds)
            g.insert(ds)
    assert complete(g)
    for al in reg.assignments():
        assert g.covered(al) == covered_by_raw(raw, al) is True


def test_cardinality_one_domain_fuses_immediately():
    g = DeltaGraph(ChoiceRegistry([1, 3]))
    g.insert([delta(0, 0), delta(1, 1)])
    g.fuse()
    assert g.vertices() == [(delta(1, 1),)]


def test_is_complete_cases():
    empty = DeltaGraph(ChoiceRegistry([3]))
    assert not complete(empty)
    g = DeltaGraph(ChoiceRegistry([3]))
    g.insert([])
    assert complete(g)
    assert g.vertices() == [()]
    h = DeltaGraph(ChoiceRegistry([3, 3]))
    h.insert([delta(1, 1)])
    assert not complete(h)
    for al in h.registry.assignments():
        assert h.covered(al) == (al[1] == 1)


def test_empty_vertex_is_sole_content():
    g = DeltaGraph(ChoiceRegistry([3]))
    g.insert([delta(0, 0)])
    g.insert([])
    assert g.vertices() == [()]
    g.insert([delta(1, 0)])
    assert g.vertices() == [()]


def test_covered_cases():
    reg = ChoiceRegistry([3, 3])
    g = DeltaGraph(reg)
    for al in reg.assignments():
        assert not g.covered(al)
    g.insert([delta(1, 0)])
    assert g.covered((1, 0))
    assert not g.covered((0, 2))
    h = DeltaGraph(ChoiceRegistry([3, 3]))
    h.insert([delta(1, 0), delta(2, 1)])
    assert not h.covered((0, 2))
    assert h.covered((1, 2))


def test_covered_validates_assignment():
    g = DeltaGraph(ChoiceRegistry([3]))
    with pytest.raises(ValueError):
        g.covered((0, 1))


def test_insert_rejects_out_of_domain():
    g = DeltaGraph(ChoiceRegistry([2]))
    with pytest.raises(ValueError):
        g.insert([delta(2, 0)])


def test_dominated_insert_is_noop():
    g = DeltaGraph(ChoiceRegistry([3, 3]))
    g.insert([delta(0, 0)])
    g.insert([delta(0, 0), delta(1, 1)])
    assert g.vertices() == [(delta(0, 0),)]


def _random_inserts(rng, reg, count):
    raws = []
    for _ in range(count):
        idx = rng.sample(range(len(reg)), rng.randint(0, len(reg)))
        raws.append(tuple(sorted(
            delta(rng.randrange(reg.cardinality(i)), i) for i in idx
        )))
    return raws


def test_fusion_preserves_coverage_and_matches_oracle():
    rng = random.Random(37)
    for _ in range(300):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 3))])
        g = DeltaGraph(reg)
        raw = []
        for ds in _random_inserts(rng, reg, rng.randint(1, 7)):
            raw.append(ds)
            g.insert(ds)
            for al in reg.assignments():
                assert g.covered(al) == covered_by_raw(raw, al)
        assert complete(g) == all(g.covered(al) for al in reg.assignments())


def test_fan_absorbed_into_shorter_vertices_still_fuses():
    # the (2,0)(0,1) and (2,0)(2,1) fan members are absorbed by the
    # shorter index-1 vertices, yet the cover is complete and must fuse
    reg = ChoiceRegistry([3, 3])
    g = DeltaGraph(reg)
    g.insert([delta(0, 0)])
    g.insert([delta(1, 0)])
    g.insert([delta(0, 1)])
    g.insert([delta(2, 1)])
    assert not complete(g)
    g.insert([delta(2, 0), delta(1, 1)])
    assert complete(g)
    g.fuse()
    assert g.vertices() == [()]
    assert complete(g)


def _random_column(rng, reg):
    return [
        Polynomial.of(
            (rng.choice(MWP_INF_VALUES), ds)
            for ds in _random_inserts(rng, reg, rng.randint(0, 4))
        )
        for _ in range(rng.randint(0, 3))
    ]


def test_sweep_matches_enumeration():
    rng = random.Random(53)
    holding_empty = unheld_index = empty_cover = 0
    for _ in range(400):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(0, 5))])
        g = DeltaGraph(reg)
        raw = _random_inserts(rng, reg, rng.randint(0, 5))
        for ds in raw:
            g.insert(ds)
        column = _random_column(rng, reg)
        held = {d >> SHIFT for p in (g.cover, *column) for _, ds in p.monomials for d in ds}
        unheld_index += len(held) < len(reg)
        empty_cover += not g.cover.monomials and any(p.monomials for p in column)
        uncovered = [al for al in reg.assignments() if not covered_by_raw(raw, al)]
        found = g.sweep(column)
        g.fuse()
        holding_empty += g.vertices() == [()]
        assert g.sweep(column) == found
        assert found.count == len(uncovered)
        assert found.sample == (uncovered[0] if uncovered else None)
        assert found.behaviors == tuple(dict.fromkeys(
            tuple(p.evaluate(al) for p in column) for al in uncovered
        ))
    assert holding_empty >= 20
    # The sweep skips restriction at an index no list holds.
    assert unheld_index >= 50 and empty_cover >= 20, (unheld_index, empty_cover)


def test_insert_never_shrinks_coverage():
    rng = random.Random(41)
    for _ in range(100):
        reg = ChoiceRegistry([rng.choice((2, 3)) for _ in range(rng.randint(1, 3))])
        g = DeltaGraph(reg)
        prev: set = set()
        for ds in _random_inserts(rng, reg, 5):
            g.insert(ds)
            now = {al for al in reg.assignments() if g.covered(al)}
            assert prev <= now
            prev = now
        g.fuse()
        assert {al for al in reg.assignments() if g.covered(al)} == prev


def test_dump_format():
    g = DeltaGraph(ChoiceRegistry([3, 3]))
    g.insert([delta(0, 0), delta(1, 1)])
    out = g.dump()
    assert "layer=2 δ(0,0) δ(1,1)" in out
    assert out.endswith("complete: no")
    h = DeltaGraph(ChoiceRegistry([3]))
    h.insert([])
    assert h.dump().endswith("complete: yes")
