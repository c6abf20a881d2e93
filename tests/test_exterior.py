import random

import pytest
from hypothesis import given, settings, strategies as st

from exterior_oracle import sigma
from kslab.exterior import ExtElement, r_poly


def x(i, n=4):
    return ExtElement.monomial((i,), n)


def one(n):
    return ExtElement.monomial((), n)


def zero(n):
    return ExtElement(n)


def random_element(rng, nvars, max_terms=5, max_coeff=9):
    out = zero(nvars)
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(nvars + 1)
        J = tuple(sorted(rng.sample(range(1, nvars + 1), k)))
        out = out + ExtElement.monomial(J, nvars, rng.randint(-max_coeff, max_coeff))
    return out


def test_mul_basic():
    assert x(1) * x(2) == ExtElement.monomial((1, 2), 4)
    assert x(1) * x(1) == zero(4)
    minus_x2 = ExtElement.monomial((2,), 4, -1)
    assert (x(1) + x(2)) * (x(1) + minus_x2) == zero(4)


def test_mul_ambient_mismatch():
    with pytest.raises(ValueError):
        one(2) * one(4)


def test_sigma_examples():
    assert sigma(0, (1, 2, 3), 4) == one(4)
    s2 = sigma(2, (1, 2, 3), 4)
    assert s2.terms == {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    assert sigma(4, (1, 2, 3), 4) == zero(4)


def test_r_poly_examples():
    r = r_poly((1, 2), 4, (1, 1))
    assert r[0] == one(4)
    assert r[1] == x(1) + x(2)
    assert r[2] == ExtElement.monomial((1, 2), 4)
    # the same variable with both signs multiplies to 1
    r2 = r_poly((1, 1), 4, (1, -1))
    assert r2[0] == one(4)
    assert r2[1] == zero(4) == r2[2]
    assert r_poly((1, 2, 3, 4), 4, (1,) * 4)[2] == sigma(2, (1, 2, 3, 4), 4)


def test_relabel_signed():
    a = ExtElement.monomial((1, 2), 4)
    # x_2 -> -x_1 collapses the monomial
    assert a.relabel_signed({2: (-1, 1)}) == zero(4)
    b = x(2) + x(3)
    img = b.relabel_signed({2: (-1, 1), 3: (1, 3)})
    assert img == ExtElement(4, {(1,): -1, (3,): 1})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_ring_axioms(seed, n):
    rng = random.Random(seed)
    nv = 2 * n
    a, b, c = (random_element(rng, nv) for _ in range(3))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a + zero(nv) == a


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_r_poly_splitting_identity(seed, n):
    """r_J(t) * r_{J^c}(t) = r_I(t) coefficientwise."""
    rng = random.Random(seed)
    nv = 2 * n
    J = sorted(rng.sample(range(1, nv + 1), rng.randrange(nv + 1)))
    Jc = [i for i in range(1, nv + 1) if i not in J]
    rj, rjc = r_poly(J, nv, [1] * len(J)), r_poly(Jc, nv, [1] * len(Jc))
    ri = r_poly(range(1, nv + 1), nv, [1] * nv)
    for k in range(nv + 1):
        conv = zero(nv)
        for a in range(k + 1):
            if a < len(rj) and k - a < len(rjc):
                conv = conv + rj[a] * rjc[k - a]
        assert conv == ri[k]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
def test_r_poly_inverse_identity(seed, n):
    """r_J(t) * r_J(-t) = 1."""
    rng = random.Random(seed)
    nv = 2 * n
    J = sorted(rng.sample(range(1, nv + 1), rng.randrange(nv + 1)))
    plus = r_poly(J, nv, [1] * len(J))
    minus = r_poly(J, nv, [-1] * len(J))
    for k in range(len(J) + 1):
        conv = zero(nv)
        for a in range(k + 1):
            conv = conv + plus[a] * minus[k - a]
        assert conv == (one(nv) if k == 0 else zero(nv))
