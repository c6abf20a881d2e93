"""End-to-end acceptance checks, all exact (tolerance zero).

Each test states its runtime cap in a comment.  The stretch run (the
3-cycle topology comparison) is ``tests/test_topology.py::
test_c3_comparison_large``, behind the KRL_LARGE=1 gate.
"""

import itertools
import random
from math import comb

from kslab.combinatorics import (
    alpha_of,
    beta_of,
    conjecture_scan,
    enumerate_matchings,
    enumerate_sparse,
    gf_coefficients,
    lambda_of,
    matching_from_pairs,
    matching_pairs,
    mu_of,
    sparse_count,
)
from kslab.exterior import ExtElement, sigma
from kslab.flags import (
    chain_lemma_scan,
    cover_scan,
    enumerate_flags,
    tree_from_flag,
    unrolled_metric,
)
from kslab.graph_rings import hedgehog_ring
from kslab.graphs import (
    enumerate_tree_foldings,
    folding_to_ncm,
    make_standard,
    ncm_to_folding,
)
from kslab.mvss import (
    classify_bts,
    enumerate_bts,
    exactness_check,
    triangular_failures,
)
from kslab.springer import hilbert_ranks, leading_check, reduce
from kslab.topology import (
    compare_with_S,
    integral_cohomology,
    tree_y_cohomology,
    y_complex,
)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def test_criterion_01_basis_of_small_ring():
    # runtime cap: 1 s
    assert hilbert_ranks(2) == [1, 3, 2]
    assert set(enumerate_sparse(4)) == {(), (1,), (2,), (3,), (1, 2), (1, 3)}


def test_criterion_02_counting():
    # runtime cap: 10 s
    for n in range(1, 9):
        two_n = 2 * n
        total = 0
        for p in range(n + 1):
            subsets = enumerate_sparse(two_n, p)
            assert len(subsets) == sparse_count(n, p)
            total += len(subsets)
        assert total == comb(two_n, n)
    for n in range(1, 9):
        assert sparse_count(n, n) == catalan(n)
    assert len(enumerate_matchings(6)) == catalan(6)
    # alpha maps the non-sparse p-subsets bijectively onto all
    # (p-1)-subsets, with beta as the inverse
    for n in range(1, 6):
        two_n = 2 * n
        for p in range(1, n + 1):
            sparse = set(enumerate_sparse(two_n, p))
            nonsparse = [J for J in itertools.combinations(
                range(1, two_n + 1), p) if J not in sparse]
            images = set()
            for J in nonsparse:
                K = alpha_of(J, two_n)
                assert len(K) == p - 1
                assert beta_of(K, two_n) == J
                images.add(K)
            assert len(images) == comb(two_n, p - 1)


def test_criterion_03_generating_function():
    # runtime cap: 5 s; exact rational series expansion
    rows = gf_coefficients(10)
    for n in range(11):
        assert rows[n] == [sparse_count(n, p) for p in range(n + 1)]


def test_criterion_04_matching_bijection():
    # runtime cap: 5 s
    for n in range(1, 7):
        two_n = 2 * n
        for tau in enumerate_matchings(n):
            J = lambda_of(tau)
            assert mu_of(J, two_n) == tau
    tau = matching_from_pairs([(1, 2), (3, 8), (4, 5), (6, 7)], 8)
    assert lambda_of(tau) == (1, 3, 4, 6)
    assert matching_pairs(mu_of((1, 3, 4, 6), 8)) == \
        [(1, 2), (3, 8), (4, 5), (6, 7)]


def test_criterion_05_normal_form_soundness():
    # runtime cap: 60 s
    two_n = 8
    xs = list(range(1, two_n + 1))
    monomials = [m for p in range(two_n + 1)
                 for m in itertools.combinations(xs, p)]
    for m in monomials:
        mono = ExtElement.monomial(m, two_n)
        for k in range(1, two_n + 1):
            assert reduce(sigma(k, xs, two_n) * mono).is_zero()
        for i in xs:
            x = ExtElement.variable(i, two_n)
            assert reduce(x * (x * mono)).is_zero()
    rng = random.Random(20240823)
    for _ in range(10 ** 4):
        J = tuple(sorted(rng.sample(xs, rng.randint(0, 4))))
        K = tuple(sorted(rng.sample(xs, rng.randint(0, 4))))
        a = ExtElement.monomial(J, two_n, rng.choice((1, -1, 2)))
        b = ExtElement.monomial(K, two_n, rng.choice((1, -1, 3)))
        assert reduce(a * b) == reduce(reduce(a) * reduce(b))


def test_criterion_06_split_monomorphism():
    # runtime cap: 120 s
    for n in range(1, 5):
        rep = leading_check(n)
        assert not rep["leading_failures"]
        assert rep["snf_divisors_all_one"]
    rep = leading_check(5, do_snf=False)
    assert not rep["leading_failures"]


def test_criterion_07_hedgehogs():
    # runtime cap: 120 s; every pinch set for n <= 4
    for n in range(1, 5):
        for bits in range(2 ** (2 * n - 1)):
            A = tuple(i + 1 for i in range(2 * n - 1) if bits >> i & 1)
            assert hedgehog_ring(n, A)["match"], (n, A)


def test_criterion_08_tree_foldings():
    # runtime cap: 30 s
    for n in range(1, 6):
        folds = enumerate_tree_foldings(make_standard("C", n), n)
        assert len(folds) == catalan(n)
        for p in folds:
            assert ncm_to_folding(folding_to_ncm(p, n)) == p


def test_criterion_09_mvss():
    # runtime cap: 10 min (n=3 dominates)
    for n in (2, 3):
        rep = exactness_check(n)
        assert rep["d1_squared_zero"]
        assert rep["all_exact"], rep["counterexamples"]
    for n in (2, 3, 4):
        assert triangular_failures(n) == []
        # the pairing matches extendable and unextendable elements
        partner = {}
        for (J, A) in enumerate_bts(n):
            cls = classify_bts(J, A, n)
            partner[(J, A)] = (cls.status, cls.partner)
        for (J, A), (status, mate) in partner.items():
            back_status, back = partner[mate]
            assert back == (J, A)
            assert {status, back_status} == {"extendable", "unextendable"}


def test_criterion_10_topology_vs_algebra():
    # runtime cap: 5 min
    cx = y_complex(make_standard("C", 2))
    assert integral_cohomology(cx) == [(1, []), (0, []), (3, []), (0, []),
                                       (2, [])]
    rep = compare_with_S(make_standard("C", 2))
    assert rep["match"]
    for k in range(5):
        h = tree_y_cohomology(k)
        assert [r for r, _ in h] == \
            [comb(k, j // 2) if j % 2 == 0 else 0 for j in range(2 * k + 1)]
        assert all(not t for _, t in h)


# The C(3) stretch comparison lives in tests/test_topology.py::
# test_c3_comparison_large (KRL_LARGE=1), which asserts all of it.


def test_criterion_11_flag_lab():
    # runtime cap: 5 min (q = 2, n <= 3)
    for n in (1, 2, 3):
        rep = cover_scan(n, 2)
        assert rep["covered"]
        assert not rep["uncovered_by_xni"] and not rep["uncovered_by_xnk"]
    for n in (1, 2, 3):
        for F in enumerate_flags(n, 2):
            metric = unrolled_metric(F, n)
            assert metric["pseudometric_ok"]
            _, tree_rep = tree_from_flag(F, n)
            assert tree_rep["is_tree"]
            assert tree_rep["path_metric_matches"]
    for n in (2, 3):
        assert chain_lemma_scan(n, 2)["all_clear"]


def test_criterion_12_conjecture_reproduction():
    # runtime cap: 10 min
    for n in range(1, 6):
        rep = conjecture_scan(n)
        assert rep["counterexamples"] == []
