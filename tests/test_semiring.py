import random

import pytest

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
    value_char,
)


def test_add_examples():
    assert add(M, W) == W
    assert add(ZERO, P) == P
    assert add(W, W) == W


def test_mul_examples():
    assert mul(M, P) == P
    assert mul(ZERO, P) == ZERO
    assert mul(M, M) == M


def test_mul_inf_examples():
    assert mul_inf(ZERO, INF) == INF
    assert mul_inf(ZERO, P) == ZERO
    assert mul_inf(INF, M) == INF
    assert add(INF, M) == INF
    assert add(ZERO, ZERO) == ZERO
    assert add(W, P) == P


def test_mwp_inf_is_not_strong():
    # annihilation fails by design: a thrown-away infinite flow survives
    assert mul_inf(ZERO, INF) == INF
    assert mul_inf(INF, ZERO) == INF
    assert any(mul_inf(ZERO, a) != ZERO for a in MWP_INF_VALUES)


def test_chars_round_trip():
    assert [value_char(a) for a in MWP_INF_VALUES] == ["0", "m", "w", "p", "i"]


def _random_matrix(rng, n, values=MWP_VALUES):
    return FlowMatrix([[rng.choice(values) for _ in range(n)] for _ in range(n)])


def test_matrix_add_examples():
    b = FlowMatrix([[M, P], [ZERO, W]])
    assert FlowMatrix([[ZERO] * 2] * 2) + b == b
    assert b + b == b
    a = FlowMatrix([[M, P], [ZERO, M]])
    c = FlowMatrix([[M, ZERO], [W, M]])
    assert a + c == FlowMatrix([[M, P], [W, M]])


def test_matrix_mul_examples():
    b = FlowMatrix([[M, P], [W, M]])
    assert FlowMatrix.identity(2) * b == b
    assert b * FlowMatrix.identity(2) == b
    zero = FlowMatrix([[ZERO] * 2] * 2)
    assert zero * b == zero
    a = FlowMatrix([[M, M], [ZERO, P]])
    assert a * a == FlowMatrix([[M, P], [ZERO, P]])


def test_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        FlowMatrix.identity(2) + FlowMatrix.identity(3)
    with pytest.raises(ValueError):
        FlowMatrix.identity(2) * FlowMatrix.identity(3)
    with pytest.raises(ValueError):
        FlowMatrix([[M, P]])


def test_matrix_laws_random():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 4)
        a, b, c = (_random_matrix(rng, n) for _ in range(3))
        zero = FlowMatrix([[ZERO] * n] * n)
        one = FlowMatrix.identity(n)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert (a * b) * c == a * (b * c)
        assert a * one == a and one * a == a
        assert a * zero == zero and zero * a == zero
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def _brute_closure(m):
    acc = FlowMatrix.identity(len(m.rows))
    power = FlowMatrix.identity(len(m.rows))
    for _ in range(len(m.rows) * 4 + 2):
        power = power * m
        acc = acc + power
    return acc


def test_closure_examples():
    one = FlowMatrix.identity(3)
    assert one.closure() == one
    loop_body = FlowMatrix([[M, P, ZERO], [ZERO, M, ZERO], [ZERO, ZERO, M]])
    assert loop_body.closure() == loop_body
    m = FlowMatrix([[M, M, ZERO], [ZERO, P, ZERO], [ZERO, ZERO, M]])
    star = m.closure()
    assert star.rows[0][1] == P
    assert star.rows[1][1] == P
    assert star == _brute_closure(m)


def test_closure_properties_random():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        star = m.closure()
        assert star == _brute_closure(m)
        assert star + m == star
        assert star.closure() == star
        assert star + FlowMatrix.identity(n) == star


def test_inf_persists_through_identity_product():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(r) for r in m.rows]
        rows[i][j] = INF
        poisoned = FlowMatrix(rows)
        assert (poisoned * FlowMatrix.identity(n)).rows[i][j] == INF


def test_rendering():
    m = FlowMatrix([[M, P, ZERO], [ZERO, INF, W], [ZERO, ZERO, M]])
    assert str(m) == "m p 0\n0 i w\n0 0 m"
