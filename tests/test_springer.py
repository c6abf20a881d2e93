import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from kslab import springer
from kslab.combinatorics import enumerate_sparse, is_sparse, sparse_closure
from kslab.exterior import ExtElement, sigma
from kslab.intlinalg import snf_invariants


def mono(J, two_n, c=1):
    return ExtElement.monomial(J, two_n, c)


def random_element(rng, nvars, max_terms=4, max_coeff=5):
    out = ExtElement.zero(nvars)
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(nvars + 1)
        J = tuple(sorted(rng.sample(range(1, nvars + 1), k)))
        out = out + mono(J, nvars, rng.randint(-max_coeff, max_coeff))
    return out


# ---------------------------------------------------------------------------
# rewriting and normal form
# ---------------------------------------------------------------------------

def test_rewrite_step_examples():
    assert springer.rewrite_step((2, 3), 4) == mono((1, 2), 4, -1) + mono((1, 3), 4, -1)
    assert springer.rewrite_step((4,), 4) == -(mono((1,), 4) + mono((2,), 4) + mono((3,), 4))
    with pytest.raises(ValueError):
        springer.rewrite_step((1, 3), 4)


def test_rewrite_step_strictly_lowers_everywhere():
    for two_n in range(2, 11, 2):
        for k in range(1, two_n + 1):
            for J in combinations(range(1, two_n + 1), k):
                if not is_sparse(J, two_n):
                    out = springer.rewrite_step(J, two_n)
                    assert all(T < J for T in out.terms)


def test_reduce_examples():
    assert springer.reduce(sigma(1, (1, 2, 3, 4), 4)).is_zero()
    assert springer.reduce(mono((2, 3), 4)) == mono((1, 2), 4, -1) + mono((1, 3), 4, -1)
    assert springer.reduce(mono((1, 3), 4)) == mono((1, 3), 4)


def test_r2_normal_form_basis():
    # reducing every monomial of E(I) for 2n=4 spans exactly BR(2)
    basis = set()
    for k in range(5):
        for J in combinations(range(1, 5), k):
            red = springer.reduce(mono(J, 4))
            basis.update(red.terms)
    assert basis == {(), (1,), (2,), (3,), (1, 2), (1, 3)}


def test_reduce_kills_ideal():
    """sigma_k(I)*m -> 0 and x_i^2*m -> 0 for every monomial m, 2n <= 8."""
    for two_n in (2, 4, 6, 8):
        monomials = [J for k in range(two_n + 1)
                     for J in combinations(range(1, two_n + 1), k)]
        for k in range(1, two_n + 1):
            sk = sigma(k, range(1, two_n + 1), two_n)
            for m in monomials:
                assert springer.reduce(sk * mono(m, two_n)).is_zero()
        # x_i^2 * m is literally zero in E(I) already
        for i in range(1, two_n + 1):
            xi = mono((i,), two_n)
            assert (xi * xi).is_zero()


def test_reduce_counts_basis_per_degree():
    for n in range(1, 7):
        two_n = 2 * n
        for k in range(n + 1):
            sparse_k = enumerate_sparse(two_n, k)
            assert len(sparse_k) == springer.hilbert_ranks(n)[k]
            for J in sparse_k:
                assert springer.reduce(mono(J, two_n)) == mono(J, two_n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=5))
def test_reduce_is_linear_and_multiplicative(seed, n):
    rng = random.Random(seed)
    two_n = 2 * n
    a = random_element(rng, two_n)
    b = random_element(rng, two_n)
    ra, rb = springer.reduce(a), springer.reduce(b)
    assert springer.reduce(a + b) == ra + rb
    assert springer.reduce(a * b) == springer.reduce(ra * rb)
    assert springer.reduce(ra) == ra  # idempotent


def test_reduce_in_relative_ambient():
    # ambient (2,5,6,9) behaves like {1,2,3,4}: position-(2,3) monomial rewrites
    a = ExtElement.monomial((5, 6), 10)
    out = springer.reduce_in(a, (2, 5, 6, 9))
    assert out == ExtElement.monomial((2, 5), 10, -1) + ExtElement.monomial((2, 6), 10, -1)


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def test_rho_examples():
    assert springer.rho_K(mono((2,), 4), (1, 3)) == mono((1,), 4, -1)
    assert springer.rho_K(mono((1, 2), 4), (1, 3)).is_zero()
    comps = springer.rho_all(mono((3,), 4))
    assert comps[(1, 2)] == mono((2,), 4, -1)
    assert comps[(1, 3)] == mono((3,), 4)
    ones = springer.rho_all(mono((), 4))
    assert all(v == mono((), 4) for v in ones.values())
    comps2 = springer.rho_all(mono((1, 2), 4))
    assert comps2[(1, 2)] == mono((1, 2), 4)
    assert comps2[(1, 3)].is_zero()


def test_rho_kills_relations():
    for n in range(1, 5):
        two_n = 2 * n
        for K in enumerate_sparse(two_n, n):
            for k in range(1, two_n + 1):
                assert springer.rho_K(sigma(k, range(1, two_n + 1), two_n), K).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=4))
def test_rho_factors_through_reduce(seed, n):
    rng = random.Random(seed)
    two_n = 2 * n
    a = random_element(rng, two_n)
    red = springer.reduce(a)
    for K in enumerate_sparse(two_n, n):
        assert springer.rho_K(a, K) == springer.rho_K(red, K)


def rho_divisors(n):
    """Invariant factors of the integer matrix of rho, sparse basis to
    the monomial basis of Q(I)."""
    col = {c: i for i, c in enumerate(springer.q_basis(n))}
    rows = [{col[(K, T)]: c for K, comp in springer.rho_all(
                ExtElement.monomial(J, 2 * n)).items()
             for T, c in comp.terms.items()}
            for J in enumerate_sparse(2 * n, "all")]
    return snf_invariants(rows, len(col))


def test_leading_check_small():
    # the SNF runs for n <= 3; the matrix of n = 4 is reduced here
    for n in range(1, 5):
        rep = springer.leading_check(n)
        assert rep["leading_failures"] == []
        assert rep["q_dimension"] == len(springer.q_basis(n))
        divisors = rho_divisors(n)
        assert divisors == [1] * rep["basis_size"]
        if n <= 3:
            assert rep["snf_divisors_all_one"]
            assert rep["snf_rank"] == len(divisors)
        else:
            assert "snf_divisors_all_one" not in rep
            assert "snf_rank" not in rep


def leading_oracle(n):
    """Per sparse J, the leading (T, K, coefficient) of rho(x_J) read off
    ``rho_all``, and the rows of the matrix of rho over ``q_basis(n)``."""
    col = {c: i for i, c in enumerate(springer.q_basis(n))}
    leads, rows = [], []
    for J in enumerate_sparse(2 * n, "all"):
        comps = springer.rho_all(mono(J, 2 * n))
        terms = [(T, tuple(-k for k in K), c)
                 for K, comp in comps.items() for T, c in comp.terms.items()]
        T, neg_K, c = max(terms)
        leads.append({"J": J, "leading": (T, tuple(-k for k in neg_K)),
                      "coefficient": c})
        rows.append({col[(K, T)]: c for K, comp in comps.items()
                     for T, c in comp.terms.items()})
    return leads, rows


def test_leading_check_matches_the_rho_all_oracle(monkeypatch):
    # a bar closure that no K equals turns every J into a failure, so the
    # report lists the leading term that leading_check found for each J
    seen = []

    def record(rows, ncols):
        seen.append(rows)
        return snf_invariants(rows, ncols)

    monkeypatch.setattr(springer, "sparse_closure", lambda J, two_n, k: None)
    monkeypatch.setattr(springer, "snf_invariants", record)
    for n in range(1, 6):
        leads, rows = leading_oracle(n)
        assert springer.leading_check(n)["leading_failures"] == leads
        assert seen == ([rows] if n <= 3 else [])
        seen.clear()


def test_leading_check_fails_a_wrong_matching(monkeypatch):
    # swap the partners of the two smallest elements of K: a crossing
    # matching, so rho_K is the wrong evaluation map
    right = springer.mu_of

    def wrong(K, two_n):
        tau = list(right(K, two_n))
        a, b = K[0], K[1]
        pa, pb = tau[a - 1], tau[b - 1]
        tau[a - 1], tau[b - 1], tau[pa - 1], tau[pb - 1] = pb, pa, b, a
        return tuple(tau)

    monkeypatch.setattr(springer, "mu_of", wrong)
    for n in range(2, 6):
        assert springer.leading_check(n)["leading_failures"], n


def test_rho_refuses_bad_K_on_every_call():
    x = mono((1,), 6)
    for _ in range(3):
        with pytest.raises(ValueError, match="not a size-n sparse subset"):
            springer.rho_K(x, (1, 3))          # wrong size
        with pytest.raises(ValueError, match="not a size-n sparse subset"):
            springer.rho_K(x, (1, 4, 5))       # size n, not sparse
    assert springer.rho_K(x, (1, 2, 3)) == mono((1,), 6)


def test_leading_term_value_example():
    # n=2, J={3}: highest term of rho(x_3) is +x_3 eps_{(1,3)}, and (1,3)=bar({3})
    assert sparse_closure((3,), 4, "bar") == (1, 3)
    comps = springer.rho_all(mono((3,), 4))
    assert comps[(1, 3)].coefficient((3,)) == 1


# ---------------------------------------------------------------------------
# ranks, dihedral action, sigma vanishing
# ---------------------------------------------------------------------------

def test_hilbert_ranks():
    assert springer.hilbert_ranks(1) == [1, 1]
    assert springer.hilbert_ranks(2) == [1, 3, 2]
    assert springer.hilbert_ranks(3) == [1, 5, 9, 5]
    assert sum(springer.hilbert_ranks(3)) == 20


def dihedral_act(a, g):
    """The dihedral element g = (reflect, k) on R(n) representatives: rotate
    k times (x_i -> x_{i+k}, indices mod 2n in 1..2n), then optionally
    reflect (x_i -> x_{1-i}), and reduce to normal form."""
    two_n = a.nvars
    reflect, k = g

    def wrap(i):
        return i % two_n or two_n

    mapping = {i: (1, wrap(1 - wrap(i + k)) if reflect else wrap(i + k))
               for i in range(1, two_n + 1)}
    return springer.reduce(a.relabel_signed(mapping))


def test_dihedral_examples():
    assert dihedral_act(mono((4,), 4), (False, 1)) \
        == springer.reduce(mono((1,), 4))


def test_dihedral_relations():
    """rot^{2n} = rfl^2 = (rfl rot)^2 = id on the sparse basis, n <= 4."""
    for n in range(1, 5):
        two_n = 2 * n
        for J in enumerate_sparse(two_n, "all"):
            a = mono(J, two_n)
            b = a
            for _ in range(two_n):
                b = dihedral_act(b, (False, 1))
            assert b == a, "rot^(2n) != id"
            c = dihedral_act(dihedral_act(a, (True, 0)), (True, 0))
            assert c == a, "rfl^2 != id"
            d = a
            for _ in range(2):
                d = dihedral_act(d, (False, 1))
                d = dihedral_act(d, (True, 0))
            assert d == a, "(rfl rot)^2 != id"


def test_dihedral_is_ring_morphism():
    rng = random.Random(3)
    for n in (2, 3):
        two_n = 2 * n
        for _ in range(20):
            a = springer.reduce(random_element(rng, two_n))
            b = springer.reduce(random_element(rng, two_n))
            g = (rng.random() < 0.5, rng.randrange(two_n))
            lhs = dihedral_act(springer.reduce(a * b), g)
            rhs = springer.reduce(
                dihedral_act(a, g) * dihedral_act(b, g))
            assert lhs == rhs


def test_sigma_vanishing():
    assert springer.sigma_vanishing((1, 2, 3), 2, 4)
    assert springer.sigma_vanishing(tuple(range(1, 5)), 1, 4)
    assert not springer.sigma_vanishing((1, 2), 1, 4)
    # exhaustive: k + |J| > 2n forces vanishing, 2n <= 6
    for two_n in (2, 4, 6):
        for sz in range(two_n + 1):
            for J in combinations(range(1, two_n + 1), sz):
                for k in range(two_n - sz + 1, two_n + 2):
                    assert springer.sigma_vanishing(J, k, two_n)
