import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import exterior_oracle as oracle
from exterior_oracle import sigma, to_ext, to_masks
from kslab import springer
from kslab.combinatorics import enumerate_sparse, is_sparse, sparse_closure
from kslab.exterior import ExtElement
from kslab.intlinalg import snf_invariants


def mono(J, two_n, c=1):
    return ExtElement.monomial(J, two_n, c)


def mask(J):
    return sum(1 << (j - 1) for j in J)


def reduce(a):
    """``springer.reduce`` on an ExtElement."""
    return to_ext(springer.reduce(to_masks(a), a.nvars), a.nvars)


def random_element(rng, nvars, max_terms=4, max_coeff=5):
    out = ExtElement(nvars)
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(nvars + 1)
        J = tuple(sorted(rng.sample(range(1, nvars + 1), k)))
        out = out + mono(J, nvars, rng.randint(-max_coeff, max_coeff))
    return out


# ---------------------------------------------------------------------------
# rewriting and normal form
# ---------------------------------------------------------------------------

def test_rewrite_step_examples():
    # the rewriting rule of the oracle
    assert oracle.rewrite_step((2, 3), 4) == mono((1, 2), 4, -1) + mono((1, 3), 4, -1)
    assert oracle.rewrite_step((4,), 4) == ExtElement(
        4, {(1,): -1, (2,): -1, (3,): -1})
    with pytest.raises(ValueError):
        oracle.rewrite_step((1, 3), 4)


def test_rewrite_step_strictly_lowers_everywhere():
    for two_n in range(2, 11, 2):
        for k in range(1, two_n + 1):
            for J in combinations(range(1, two_n + 1), k):
                if not is_sparse(J, two_n):
                    out = oracle.rewrite_step(J, two_n)
                    assert all(T < J for T in out.terms)


def test_reduce_examples():
    assert springer.reduce({0b0001: 1, 0b0010: 1, 0b0100: 1, 0b1000: 1},
                           4) == {}
    assert springer.reduce({0b0110: 1}, 4) == {0b0011: -1, 0b0101: -1}
    assert springer.reduce({0b0101: 1}, 4) == {0b0101: 1}


def test_reduce_matches_the_oracle_on_every_monomial():
    for two_n in (2, 4, 6, 8):
        for J in range(1 << two_n):
            a = to_ext({J: 1}, two_n)
            assert to_ext(springer.reduce({J: 1}, two_n), two_n) == \
                oracle.reduce(a), (two_n, J)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=5))
def test_reduce_matches_the_oracle_on_random_polynomials(seed, n):
    rng = random.Random(seed)
    a = random_element(rng, 2 * n, max_terms=8)
    assert reduce(a) == oracle.reduce(a)


def test_reduce_in_matches_the_oracle_on_relative_ambients():
    rng = random.Random(21)
    for m in (2, 4, 6):
        for _ in range(40):
            ambient = tuple(sorted(rng.sample(range(1, 11), m)))
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                J = rng.sample(ambient, rng.randrange(m + 1))
                terms[tuple(sorted(J))] = rng.randint(-3, 3)
            a = ExtElement(10, terms)
            assert to_ext(springer.reduce_in(to_masks(a), ambient), 10) == \
                oracle.reduce_in(a, ambient), (ambient, a)


def test_reduce_refuses_terms_outside_the_ring():
    with pytest.raises(ValueError, match="outside x_1..x_4"):
        springer.reduce({0b10000: 1}, 4)
    with pytest.raises(ValueError, match="outside"):
        springer.reduce_in({0b1: 1}, (2, 3))
    with pytest.raises(ValueError, match="even size"):
        springer.reduce_in({0b10: 1}, (2, 3, 4))


def test_r2_normal_form_basis():
    # reducing every monomial of E(I) for 2n=4 spans exactly BR(2)
    basis = set()
    for k in range(5):
        for J in combinations(range(1, 5), k):
            basis.update(springer.reduce({mask(J): 1}, 4))
    assert basis == {0, 0b1, 0b10, 0b100, 0b11, 0b101}


def test_reduce_kills_ideal():
    """sigma_k(I)*m -> 0 and x_i^2*m -> 0 for every monomial m, 2n <= 8."""
    for two_n in (2, 4, 6, 8):
        monomials = [J for k in range(two_n + 1)
                     for J in combinations(range(1, two_n + 1), k)]
        for k in range(1, two_n + 1):
            sk = sigma(k, range(1, two_n + 1), two_n)
            for m in monomials:
                assert reduce(sk * mono(m, two_n)) == ExtElement(two_n)
        # x_i^2 * m is literally zero in E(I) already
        for i in range(1, two_n + 1):
            xi = mono((i,), two_n)
            assert xi * xi == ExtElement(two_n)


def test_reduce_counts_basis_per_degree():
    for n in range(1, 7):
        two_n = 2 * n
        for k in range(n + 1):
            sparse_k = enumerate_sparse(two_n, k)
            assert len(sparse_k) == springer.hilbert_ranks(n)[k]
            for J in sparse_k:
                assert springer.reduce({mask(J): 1}, two_n) == {mask(J): 1}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=5))
def test_reduce_is_linear_and_multiplicative(seed, n):
    rng = random.Random(seed)
    two_n = 2 * n
    a = random_element(rng, two_n)
    b = random_element(rng, two_n)
    ra, rb = reduce(a), reduce(b)
    assert reduce(a + b) == ra + rb
    assert reduce(a * b) == reduce(ra * rb)
    assert reduce(ra) == ra  # idempotent


def test_reduce_in_relative_ambient():
    # ambient (2,5,6,9) behaves like {1,2,3,4}: position-(2,3) monomial rewrites
    out = springer.reduce_in({mask((5, 6)): 1}, (2, 5, 6, 9))
    assert out == {mask((2, 5)): -1, mask((2, 6)): -1}


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------

def test_rho_examples():
    assert springer.rho_K(mono((2,), 4), (1, 3)) == mono((1,), 4, -1)
    assert springer.rho_K(mono((1, 2), 4), (1, 3)) == ExtElement(4)
    comps = springer.rho_all(mono((3,), 4))
    assert comps[(1, 2)] == mono((2,), 4, -1)
    assert comps[(1, 3)] == mono((3,), 4)
    ones = springer.rho_all(mono((), 4))
    assert all(v == mono((), 4) for v in ones.values())
    comps2 = springer.rho_all(mono((1, 2), 4))
    assert comps2[(1, 2)] == mono((1, 2), 4)
    assert comps2[(1, 3)] == ExtElement(4)


def test_rho_kills_relations():
    for n in range(1, 5):
        two_n = 2 * n
        for K in enumerate_sparse(two_n, n):
            for k in range(1, two_n + 1):
                assert springer.rho_K(sigma(k, range(1, two_n + 1), two_n),
                                      K) == ExtElement(two_n)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=4))
def test_rho_factors_through_reduce(seed, n):
    rng = random.Random(seed)
    two_n = 2 * n
    a = random_element(rng, two_n)
    red = reduce(a)
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
    assert comps[(1, 3)].terms[(3,)] == 1


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
    return reduce(a.relabel_signed(mapping))


def test_dihedral_examples():
    assert dihedral_act(mono((4,), 4), (False, 1)) \
        == reduce(mono((1,), 4))


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
            a = reduce(random_element(rng, two_n))
            b = reduce(random_element(rng, two_n))
            g = (rng.random() < 0.5, rng.randrange(two_n))
            lhs = dihedral_act(reduce(a * b), g)
            rhs = reduce(
                dihedral_act(a, g) * dihedral_act(b, g))
            assert lhs == rhs


def sigma_vanishing(J, k, two_n):
    """Whether sigma_k(J) reduces to zero in R(I)."""
    return reduce(sigma(k, J, two_n)) == ExtElement(two_n)


def test_sigma_vanishing():
    assert sigma_vanishing((1, 2, 3), 2, 4)
    assert sigma_vanishing(tuple(range(1, 5)), 1, 4)
    assert not sigma_vanishing((1, 2), 1, 4)
    # exhaustive: k + |J| > 2n forces vanishing, 2n <= 6
    for two_n in (2, 4, 6):
        for sz in range(two_n + 1):
            for J in combinations(range(1, two_n + 1), sz):
                for k in range(two_n - sz + 1, two_n + 2):
                    assert sigma_vanishing(J, k, two_n)
