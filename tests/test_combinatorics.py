import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from kslab import combinatorics as comb


def all_subsets(two_n, k):
    return list(combinations(range(1, two_n + 1), k))


# ---------------------------------------------------------------------------
# sparsity predicates
# ---------------------------------------------------------------------------

def test_sparse_examples():
    assert comb.is_sparse((1, 3), 4)
    assert comb.is_sparse((), 4)
    assert not comb.is_sparse((2, 3), 4)


def test_sparse_sets_of_size_4():
    expected = [(), (1,), (1, 2), (1, 3), (2,), (3,)]
    assert list(comb.enumerate_sparse(4, "all")) == sorted(expected)


def test_sparse_sets_of_size_2():
    assert list(comb.enumerate_sparse(2, "all")) == [(), (1,)]


def test_sparsity_criteria_agree_exhaustively():
    # the three equivalent formulations agree on every subset, 2n <= 16
    # (sizes above 8 are all non-sparse and cheap, so cap k at n+2)
    for two_n in range(2, 17, 2):
        for k in range(0, two_n // 2 + 3):
            for J in all_subsets(two_n, k):
                a = comb.is_sparse(J, two_n)
                b = comb.is_sparse_tail_criterion(J, two_n)
                c = comb.is_sparse_halfcount_criterion(J, two_n)
                assert a == b == c, (J, two_n)


def _is_sparse_quadratic(J, two_n):
    """The old O(|J|^2) test: count J_{>j} afresh for every j in J."""
    comb.check_subset(J, two_n)
    for j in J:
        above_in = sum(1 for x in J if x > j)
        if (two_n - j) - above_in <= above_in:
            return False
    return True


def test_one_pass_sparsity_matches_quadratic_oracle():
    # every subset of {1..2n}, 2n <= 12, against the counting definition
    for two_n in range(0, 13, 2):
        for k in range(two_n + 1):
            for J in all_subsets(two_n, k):
                want = _is_sparse_quadratic(J, two_n)
                assert comb.is_sparse(J, two_n) == want, (J, two_n)
                assert comb.is_sparse_tail_criterion(J, two_n) == want
                assert comb.is_sparse_halfcount_criterion(J, two_n) == want


def test_mu_of_refuses_every_time():
    # lru_cache keeps no exceptions: a bad J raises on each call
    for _ in range(2):
        with pytest.raises(ValueError):
            comb.mu_of((2, 3), 4)
        with pytest.raises(ValueError):
            comb.mu_of((1,), 4)


def test_out_of_range_subset_rejected():
    with pytest.raises(ValueError):
        comb.is_sparse((5,), 4)
    with pytest.raises(ValueError):
        comb.is_sparse((2, 2), 4)


def is_sparse_in(J, ambient):
    """Sparsity of J relative to an arbitrary totally ordered ambient tuple,
    the oracle of the BTS enumeration (``tests/test_mvss.py``).

    The ambient is order-isomorphic to {1..len(ambient)}; J is transported
    along that isomorphism and tested there.
    """
    pos = {v: i + 1 for i, v in enumerate(ambient)}
    missing = [j for j in J if j not in pos]
    if missing:
        raise ValueError(f"elements {missing} not in ambient {ambient}")
    return comb.is_sparse(tuple(sorted(pos[j] for j in J)), len(ambient))


def test_is_sparse_in_relative_ambient():
    # {2,6} inside ambient (2,5,6,9) sits at positions {1,3}: sparse
    assert is_sparse_in((2, 6), (2, 5, 6, 9))
    # positions {2,3} of the same ambient are not sparse
    assert not is_sparse_in((5, 6), (2, 5, 6, 9))
    with pytest.raises(ValueError):
        is_sparse_in((3,), (2, 5, 6, 9))


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

def test_sparse_count_formula_vs_enumeration():
    for n in range(0, 9):
        total = 0
        for p in range(0, n + 2):
            found = len(comb.enumerate_sparse(2 * n, p)) if n else (1 if p == 0 else 0)
            assert comb.sparse_count(n, p) == found
            total += found
        assert total == math.comb(2 * n, n)


def test_sparse_count_examples():
    assert comb.sparse_count(2, 2) == 2
    assert comb.sparse_count(4, 4) == 14
    assert comb.sparse_count(5, 0) == 1
    assert comb.sparse_count(3, 4) == 0


def test_enumerate_sparse_is_lex_sorted():
    for two_n in (4, 8, 12):
        out = comb.enumerate_sparse(two_n, "all")
        assert list(out) == sorted(out)
        # the one-pass walk against a filter over every subset
        assert out == tuple(sorted(
            J for k in range(two_n + 1) for J in all_subsets(two_n, k)
            if comb.is_sparse(J, two_n)))
        for k in range(two_n + 2):
            assert comb.enumerate_sparse(two_n, k) == tuple(
                J for J in out if len(J) == k)


def test_size_n_sparse_count_is_catalan():
    for n in range(1, 9):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert comb.sparse_count(n, n) == catalan


# ---------------------------------------------------------------------------
# alpha / beta
# ---------------------------------------------------------------------------

def test_alpha_beta_hand_examples():
    assert comb.alpha_of((2, 3), 4) == (4,)
    assert comb.beta_of((4,), 4) == (2, 3)


def test_alpha_rejects_sparse_input():
    with pytest.raises(ValueError):
        comb.alpha_of((1, 3), 4)


def test_alpha_beta_mutually_inverse():
    for n in range(2, 6):
        two_n = 2 * n
        for p in range(2, n + 1):
            non_sparse = [J for J in all_subsets(two_n, p)
                          if not comb.is_sparse(J, two_n)]
            smaller = all_subsets(two_n, p - 1)
            image = set()
            for J in non_sparse:
                K = comb.alpha_of(J, two_n)
                assert len(K) == p - 1
                assert comb.beta_of(K, two_n) == J
                image.add(K)
            assert image == set(smaller)
            for K in smaller:
                J = comb.beta_of(K, two_n)
                assert not comb.is_sparse(J, two_n)
                assert comb.alpha_of(J, two_n) == K


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------

def test_gf_matches_counts_up_to_10():
    table = comb.gf_coefficients(10)
    for n in range(11):
        for k in range(n + 1):
            assert table[n][k] == comb.sparse_count(n, k)


def test_gf_corner_values():
    table = comb.gf_coefficients(3)
    assert table[0][0] == 1
    assert table[2][1] == 3


def rational_gf_coefficients(max_n):
    """Oracle: the series inverted over Q from the binomial series.

    sqrt(1-4st) = sum_m C(1/2, m) (-4)^m (st)^m, so the denominator over
    2t is the s-series D with D_0 = 1 and D_m = c_m (t^m + t^(m-1)) / 2,
    c_m = C(1/2, m) (-4)^m; the table is that of 1/D, which must come out
    integral.
    """
    def poly_mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    c = [Fraction(1)]
    for m in range(1, max_n + 1):
        c.append(c[-1] * (Fraction(1, 2) - (m - 1)) / m * (-4))
    D = [[Fraction(1)]] + [[Fraction(0)] * (m - 1) + [c[m] / 2, c[m] / 2]
                           for m in range(1, max_n + 1)]
    Q = [[Fraction(1)]]
    for n in range(1, max_n + 1):
        acc = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            for k, v in enumerate(poly_mul(D[m], Q[n - m])):
                acc[k] -= v
        Q.append(acc)
    assert all(v.denominator == 1 for row in Q for v in row)
    return [[int(v) for v in row] for row in Q]


def test_gf_matches_the_rational_expansion():
    for max_n in range(13):
        assert comb.gf_coefficients(max_n) == rational_gf_coefficients(max_n)


# ---------------------------------------------------------------------------
# matchings and lambda/mu
# ---------------------------------------------------------------------------

def test_matching_count_is_catalan():
    for n in range(1, 9):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(comb.enumerate_matchings(n)) == catalan


def test_matching_invariants():
    for n in range(1, 6):
        for tau in comb.enumerate_matchings(n):
            assert comb.is_noncrossing(tau)
            # partners always have odd distance
            assert all((tau[i - 1] - i) % 2 == 1 for i in range(1, 2 * n + 1))


def test_lambda_mu_paper_example():
    tau = comb.matching_from_pairs([(1, 2), (3, 8), (4, 5), (6, 7)], 8)
    assert comb.lambda_of(tau) == (1, 3, 4, 6)
    assert comb.mu_of((1, 3, 4, 6), 8) == tau


def test_lambda_mu_small_examples():
    assert comb.mu_of((1,), 2) == comb.matching_from_pairs([(1, 2)], 2)
    assert comb.mu_of((1, 3), 4) == comb.matching_from_pairs([(1, 2), (3, 4)], 4)
    assert comb.lambda_of(comb.matching_from_pairs([(1, 4), (2, 3)], 4)) == (1, 2)


def test_lambda_mu_inverse_bijections():
    for n in range(1, 7):
        two_n = 2 * n
        sparse_n = set(comb.enumerate_sparse(two_n, n))
        seen = set()
        for tau in comb.enumerate_matchings(n):
            J = comb.lambda_of(tau)
            assert J in sparse_n
            assert comb.mu_of(J, two_n) == tau
            seen.add(J)
        assert seen == sparse_n


def test_mu_rejects_bad_input():
    with pytest.raises(ValueError):
        comb.mu_of((2, 3), 8)  # wrong size
    with pytest.raises(ValueError):
        comb.mu_of((2, 3), 4)  # not sparse


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------

def test_closure_hand_examples():
    assert comb.sparse_closure((3,), 4, "plus") == (1, 3)
    assert comb.sparse_closure((), 4, "bar") == (1, 2)
    assert comb.sparse_closure((3,), 4, "star") == (1, 3)


def test_plus_stays_sparse():
    for n in range(1, 6):
        two_n = 2 * n
        for J in comb.enumerate_sparse(two_n, "all"):
            if len(J) < n:
                out = comb.sparse_closure(J, two_n, "plus")
                assert comb.is_sparse(out, two_n)
                assert set(J) < set(out)


def test_bar_and_star_are_extremal_supersets():
    for n in range(1, 6):
        two_n = 2 * n
        size_n = comb.enumerate_sparse(two_n, n)
        for J in comb.enumerate_sparse(two_n, "all"):
            supersets = [K for K in size_n if set(J) <= set(K)]
            assert comb.sparse_closure(J, two_n, "bar") == min(supersets)
            assert comb.sparse_closure(J, two_n, "star") == max(supersets)


# ---------------------------------------------------------------------------
# dotted matchings and the conjecture scan
# ---------------------------------------------------------------------------

def test_classify_dotted_examples():
    tau = comb.matching_from_pairs([(1, 2), (3, 8), (4, 5), (6, 7)], 8)
    # the arc (4,5) is nested under the undotted arc (3,8)
    flags = comb.classify_dotted(tau, (1, 4))
    assert flags["standard"] is False
    assert comb.classify_dotted(tau, ())["standard"] is True
    # J = {3} in size 4: bar = {1,3}, dots = {1}
    tau2 = comb.mu_of((1, 3), 4)
    assert comb.classify_dotted(tau2, (1,))["costandard"] is True


def test_conjecture_scan_small():
    r1 = comb.conjecture_scan(1)
    assert r1["counterexamples"] == []
    assert r1["dotted_matchings_scanned"] == 2


def test_conjecture_scan_standard_count_matches_rank():
    for n in range(1, 5):
        r = comb.conjecture_scan(n)
        assert r["counterexamples"] == []
        assert r["standard_count"] == math.comb(2 * n, n)
        assert r["star_image_count"] == math.comb(2 * n, n)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=7), st.data())
def test_lex_order_symmetric_difference_rule(n, data):
    two_n = 2 * n
    elems = list(range(1, two_n + 1))
    J = tuple(sorted(data.draw(st.sets(st.sampled_from(elems)))))
    K = tuple(sorted(data.draw(st.sets(st.sampled_from(elems), min_size=len(J),
                                       max_size=len(J)))))
    if J != K:
        m = min(set(J) ^ set(K))
        assert (J < K) == (m in J)


@given(st.integers(min_value=1, max_value=6))
def test_beta_lands_non_sparse(n, ):
    two_n = 2 * n
    for K in all_subsets(two_n, n - 1):
        J = comb.beta_of(K, two_n)
        assert not comb.is_sparse(J, two_n)


# ---------------------------------------------------------------------------
# the conjecture scan's fast paths against their definitions
# ---------------------------------------------------------------------------

def test_nested_left_endpoints_decide_standardness():
    # every dotting of every matching, n <= 6
    for n in range(1, 7):
        for tau in comb.enumerate_matchings(n):
            lam = comb.lambda_of(tau)
            nested = comb._nested_left_endpoints(tau, lam)
            for r in range(n + 1):
                for dots in combinations(lam, r):
                    assert nested.isdisjoint(dots) == \
                        comb._is_standard(tau, lam, dots), (tau, dots)


def test_star_dotted_set_matches_the_reversed_scan():
    for n in range(1, 7):
        two_n = 2 * n
        oracle = set()
        for J in comb.enumerate_sparse(two_n, "all"):
            Jstar = comb.sparse_closure(J, two_n, "star")
            dots = tuple(x for x in Jstar if x not in J)
            oracle.add((comb.mu_of(Jstar, two_n), dots))
        assert comb.star_dotted_set(n) == oracle, n
