import ast
import inspect
import json
import os
from itertools import combinations

import pytest

from exterior_oracle import reduce_in
from kslab import cli, mvss
from kslab.exterior import ExtElement
from kslab.graph_rings import expected_hedgehog_structure, pinch_substitution
from kslab.intlinalg import snf_invariants
from kslab.graphs import hedgehog_analyze
from kslab.mvss import (
    bts_by_bidegree,
    classify_bts,
    d1,
    enumerate_bts,
    exactness_check,
    is_bts,
    matching_failures,
    triangular_failures,
    ts_normal_form,
)
from test_combinatorics import is_sparse_in


def m(*indices):
    """The mask of an index set: bit i-1 for index i."""
    return sum(1 << (i - 1) for i in indices)


def idx(mask):
    """The index tuple of a mask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def all_pinch_sets(n):
    return range(1 << (2 * n - 1))


def test_normal_form_examples():
    assert ts_normal_form({(m(2), m(1)): 1}, 2) == {(m(1), m(1)): -1}
    assert ts_normal_form({(0, m(1, 3)): 1}, 2) == {(0, m(1, 3)): 1}


def test_normal_form_refuses_masks_outside_the_ring():
    for key in ((m(5), 0), (-1, 0), (0, m(4)), (0, -2)):
        with pytest.raises(ValueError):
            ts_normal_form({key: 1}, 2)


def test_normal_form_lands_on_bts():
    n = 2
    for A in all_pinch_sets(n):
        for J in range(1 << (2 * n)):
            out = ts_normal_form({(J, A): 1}, n)
            for K, B in out:
                assert B == A and is_bts(K, B, n)


def _ts_normal_form_oracle(raw, n):
    """The normal form on index tuples: ExtElement relabelling, the
    ExtElement rewriting of R(n), and x_spine x_body built as a product."""
    two_n = 2 * n
    terms = {}
    for (J, A), c in raw.items():
        J, A = idx(J), idx(A)
        folded = ExtElement.monomial(J, two_n).relabel_signed(
            pinch_substitution(A))
        h = hedgehog_analyze(n, A)
        for Jf, cf in folded.terms.items():
            spine = ExtElement.monomial(
                [j for j in Jf if j not in h.body_indices], two_n)
            body = ExtElement.monomial(
                [j for j in Jf if j in h.body_indices], two_n)
            reduced = spine * reduce_in(body, h.body_indices)
            for Jr, cr in reduced.terms.items():
                key = (m(*Jr), m(*A))
                terms[key] = terms.get(key, 0) + c * cf * cr
    return {key: v for key, v in terms.items() if v}


def test_normal_form_matches_the_product_oracle():
    for n in (2, 3):
        for A in all_pinch_sets(n):
            for J in range(1 << (2 * n)):
                assert ts_normal_form({(J, A): 3}, n) == \
                    _ts_normal_form_oracle({(J, A): 3}, n), (J, A)


def test_the_normal_form_path_does_not_sort():
    # TS** terms are keyed by masks: nothing on the path re-sorts a key
    for func in (ts_normal_form, mvss._monomial_normal_form, d1):
        tree = ast.parse(inspect.getsource(func))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id == "sorted"]


def test_normal_form_cross_checked_by_rank():
    # the A-component of TS is the hedgehog ring: the number of BTS
    # elements per degree must match its independently computed rank
    for n in (2, 3, 4):
        groups = bts_by_bidegree(n)
        for A in all_pinch_sets(n):
            expected = expected_hedgehog_structure(hedgehog_analyze(n, idx(A)))
            for j, (rk, tors) in enumerate(expected):
                assert not tors
                cnt = sum(1 for J, B in groups.get((len(idx(A)), j), [])
                          if B == A)
                assert cnt == rk, (n, A, j)


def test_d1_examples():
    u = d1({(0, 0): 1}, 2)
    assert u == {(0, m(1)): 1, (0, m(2)): 1, (0, m(3)): 1}
    x1u = d1({(m(1), 0): 1}, 2)
    assert x1u == {(m(1), m(1)): 1, (m(1), m(2)): 1, (m(1), m(3)): 1}
    # the sign counts the elements of A below t: e_2 e_1 = e_{12} and
    # e_2 e_3 = -e_{23}
    assert d1({(0, m(2)): 5}, 2) == {(0, m(1, 2)): 5, (0, m(2, 3)): -5}


def test_d1_squared_zero_exhaustive():
    for n in (2, 3):
        for J, A in enumerate_bts(n):
            assert d1(d1({(J, A): 1}, n), n) == {}


def test_classify_examples():
    c = classify_bts(0, 0, 2)
    assert c.status == "extendable" and c.partner == (0, m(1))
    c = classify_bts(m(1), m(2), 2)      # p = 2, q = min{2, 4} - 1 = 1
    assert c.status == "extendable" and c.partner == (m(1), m(1, 2))
    c = classify_bts(m(1), m(1), 2)      # p = q = 1
    assert c.status == "unextendable" and c.partner == (m(1), 0)
    with pytest.raises(ValueError):
        classify_bts(m(2), m(1), 2)  # 2 is pinched away, not in BTS


def extendable_by_search(J, A, n):
    """Direct definition: the least a < min(A) with (J, A u {a}) in BTS,
    the oracle of classify_bts."""
    top = min(idx(A), default=2 * n)
    for a in range(1, top):
        if is_bts(J, A | m(a), n):
            return a
    return None


def test_classification_matches_direct_search():
    for n in (2, 3):
        for J, A in enumerate_bts(n):
            c = classify_bts(J, A, n)
            a = extendable_by_search(J, A, n)
            if c.status == "extendable":
                assert a is not None and c.partner == (J, m(a, *idx(A)))
            else:
                assert a is None


def test_eta_zeta_roundtrip_and_bijection():
    for n in (2, 3, 4):
        bts = enumerate_bts(n)
        ext = [k for k in bts if classify_bts(*k, n).status == "extendable"]
        unext = [k for k in bts if classify_bts(*k, n).status == "unextendable"]
        partners = [classify_bts(*k, n).partner for k in ext]
        assert sorted(partners) == sorted(unext)
        for k, p in zip(ext, partners):
            assert classify_bts(*p, n).partner == k


def test_bts_downward_closure():
    for n in (2, 3, 4):
        bts = set(enumerate_bts(n))
        for J, A in bts:
            for a in idx(A):
                assert (J, A & ~m(a)) in bts


def _enumerate_bts_oracle(n):
    """BTS with the sparse bodies filtered from every subset of the body,
    on index tuples, then written as masks."""
    out = []
    for A in map(idx, all_pinch_sets(n)):
        h = hedgehog_analyze(n, A)
        body = h.body_indices
        bodies = [K for r in range(len(body) + 1)
                  for K in combinations(body, r) if is_sparse_in(K, body)]
        for r in range(len(h.spine_indices) + 1):
            for S in combinations(h.spine_indices, r):
                out += [(m(*S, *K), m(*A)) for K in bodies]
    return tuple(sorted(out))


def test_enumerate_bts_matches_the_filtered_oracle():
    for n in (1, 2, 3, 4):
        assert enumerate_bts(n) == _enumerate_bts_oracle(n)
        assert all(is_bts(J, A, n) for J, A in enumerate_bts(n))


def test_bts_counts():
    assert len(enumerate_bts(2)) == 28
    assert len(enumerate_bts(3)) == 212
    assert len(enumerate_bts(4)) == 1676


def test_bts_count_without_enumerating():
    for n in range(1, 6):
        assert mvss.bts_count(n) == len(enumerate_bts(n))
    assert [mvss.bts_count(n) for n in (6, 7)] == [112380, 940020]


def test_is_lower_matches_the_tuple_order():
    # the parent order on index tuples: J lexicographically, then A by
    # its decreasing tuple, larger first
    def tuple_key(J, A):
        return (idx(J), tuple(-a for a in reversed(idx(A))))

    masks = range(1 << 6)
    for J in masks:
        for K in masks:
            if J.bit_count() == K.bit_count():
                for A, B in ((m(2), m(2)), (m(1, 3), m(2, 3))):
                    assert mvss._is_lower((J, A), (K, B)) == \
                        (tuple_key(J, A) < tuple_key(K, B)), (J, K)
    for A in masks:
        for B in masks:
            if A.bit_count() == B.bit_count():
                assert mvss._is_lower((m(1), A), (m(1), B)) == \
                    (tuple_key(m(1), A) < tuple_key(m(1), B)), (A, B)


def test_exactness_n2_and_n3():
    for n in (2, 3):
        r = exactness_check(n)
        assert r["d1_squared_zero"]
        assert r["all_exact"], r["counterexamples"]
        assert not r["triangular_failures"]
        for info in r["bidegrees"].values():
            assert info["exact"]


def test_row_euler_characteristics_vanish():
    # for each x-degree j, the alternating sum of BTS dimensions over p
    for n in (2, 3, 4):
        euler = {}
        for (p, j), basis in bts_by_bidegree(n).items():
            euler[j] = euler.get(j, 0) + (-1) ** p * len(basis)
        assert set(euler.values()) == {0}


def d1_images(n):
    return {(J, A): d1({(J, A): 1}, n) for J, A in enumerate_bts(n)}


def classes_of(n):
    return {(J, A): classify_bts(J, A, n) for J, A in enumerate_bts(n)}


def test_triangularity_n4():
    assert triangular_failures(d1_images(4), classes_of(4)) == []


def _bidegree_exactness_oracle(groups, image):
    """Integral exactness per bidegree by Smith normal forms, the oracle
    of the eta matching: d1 recomputed on demand, and each matrix reduced
    twice (rank for its source, SNF for its target).  The complex is exact
    at (p, j) iff rank(d_in) + rank(d_out) = dim and every elementary
    divisor of d_in is 1; terms outside the target basis are dropped."""
    matrices = {}
    for (p, j), source in groups.items():
        col = {key: i for i, key in enumerate(groups.get((p + 1, j), []))}
        matrices[(p, j)] = [{col[key]: c for key, c in image(J, A).items()}
                            for J, A in source]
    out = {}
    for (p, j) in sorted(groups):
        dim = len(groups[(p, j)])
        rank_out = len(snf_invariants(matrices[(p, j)],
                                      len(groups.get((p + 1, j), []))))
        divisors = snf_invariants(matrices.get((p - 1, j), []), dim)
        out[(p, j)] = {
            "dim": dim, "rank_in": len(divisors), "rank_out": rank_out,
            "exact": len(divisors) + rank_out == dim
            and all(d == 1 for d in divisors),
        }
    return out


def _exactness_check_oracle(n):
    """exactness_check recomputing d1 for each of its checks, with the
    bidegree table from Smith normal forms in place of the matching."""
    report = {"n": n, "bidegrees": {}, "d1_squared_zero": True,
              "triangular_failures": [], "counterexamples": [],
              "all_exact": True}
    for J, A in enumerate_bts(n):
        if d1(d1({(J, A): 1}, n), n):
            report["d1_squared_zero"] = False
            report["counterexamples"].append(
                {"kind": "d1_squared", "J": idx(J), "A": idx(A)})
    report["bidegrees"] = _bidegree_exactness_oracle(
        bts_by_bidegree(n), lambda J, A: d1({(J, A): 1}, n))
    for (p, j), info in report["bidegrees"].items():
        if not info["exact"]:
            report["all_exact"] = False
            report["counterexamples"].append(
                {"kind": "homology", "bidegree": (p, j)})
    report["triangular_failures"] = triangular_failures(d1_images(n),
                                                        classes_of(n))
    if report["triangular_failures"] or not report["d1_squared_zero"]:
        report["all_exact"] = False
    return report


def _broken_pinch_substitution(A):
    """The pinch substitution with the relation at the pinch 1 replaced by
    e_1 (x_3 + x_2): x_2 goes to -x_3 instead of -x_1."""
    mapping = dict(pinch_substitution(A))
    if 2 in mapping:
        mapping[2] = (-1, 3)
    return mapping


def _two_sets_oracle():
    """The three-column complex of a two-set cover, over n = 2.

    Columns p = 0, 1, 2 are spanned by the BTS elements with A a subset
    of {1, 2}; the differential is d1 with the terms outside those
    columns dropped, i.e. multiplication by e_1 + e_2 (a wrong relation
    also yields monomials outside BTS, which are dropped as well).
    """
    basis = [(J, A) for J, A in enumerate_bts(2) if A & ~m(1, 2) == 0]
    groups = {}
    for J, A in basis:
        groups.setdefault((len(idx(A)), len(idx(J))), []).append((J, A))
    span = set(basis)

    def image(J, A):
        img = d1({(J, A): 1}, 2)
        return {k: c for k, c in img.items() if k in span}

    columns = _bidegree_exactness_oracle(groups, image)
    return all(c["exact"] for c in columns.values())


def test_exactness_check_matches_recomputing_oracle():
    # whole reports: every bidegree's counts against the SNF ranks
    for n in (2, 3, 4):
        assert exactness_check(n) == _exactness_check_oracle(n)


@pytest.mark.skipif(os.environ.get("KRL_LARGE") != "1",
                    reason="set KRL_LARGE=1 to run")
def test_exactness_check_matches_recomputing_oracle_n5():
    assert exactness_check(5) == _exactness_check_oracle(5)


def test_matching_failures_name_each_break():
    n = 3
    classes = classes_of(n)
    assert matching_failures(classes) == []
    x = next(key for key, cls in classes.items()
             if cls.status == "extendable")
    y = classes[x].partner
    # eta(x) outside BTS (e_2n): x and its old partner y fail, in basis
    # order, and nothing raises
    outside = (x[0], x[1] | 1 << (2 * n - 1))
    classes[x] = mvss.EtaClassification("extendable", outside)
    assert matching_failures(classes) == [
        {"kind": "eta", "J": idx(x[0]), "A": idx(x[1]),
         "status": "extendable", "partner": (idx(x[0]), idx(outside[1]))},
        {"kind": "eta", "J": idx(y[0]), "A": idx(y[1]),
         "status": "unextendable", "partner": (idx(x[0]), idx(x[1]))}]
    # two unextendable partners of each other: the status breaks
    classes = classes_of(n)
    classes[x] = mvss.EtaClassification("unextendable", y)
    assert {(f["J"], f["A"]) for f in matching_failures(classes)} == \
        {(idx(x[0]), idx(x[1])), (idx(y[0]), idx(y[1]))}
    # mutual partners that skip a bidegree or change J
    E = mvss.EtaClassification
    for partner in ((0, m(1, 2)), (m(1), m(1))):
        pair = {(0, 0): E("extendable", partner),
                partner: E("unextendable", (0, 0))}
        assert [(f["J"], f["A"]) for f in matching_failures(pair)] == \
            [((), ()), (idx(partner[0]), idx(partner[1]))]


def test_d1_squared_sums_images_off_the_basis(monkeypatch):
    # under the broken relation images leave BTS; d1 o d1 summed from the
    # stored images, d1 recomputed off the basis, is d1 applied twice
    monkeypatch.setattr(mvss, "pinch_substitution",
                        _broken_pinch_substitution)
    n = 2
    twice = [{"kind": "d1_squared", "J": idx(J), "A": idx(A)}
             for J, A in enumerate_bts(n) if d1(d1({(J, A): 1}, n), n)]
    report = exactness_check(n)
    assert len(twice) == 4 and report["d1_squared_zero"] is False
    assert [c for c in report["counterexamples"]
            if c["kind"] == "d1_squared"] == twice


def test_an_unmatched_unextendable_element_breaks_exactness(monkeypatch):
    # a classification with no extendable element leaves every triangle
    # unchecked and every count adding up; only the zeta side sees it
    def all_unextendable(J, A, n):
        return mvss.EtaClassification("unextendable", (J, A & (A - 1)))

    monkeypatch.setattr(mvss, "classify_bts", all_unextendable)
    report = exactness_check(2)
    assert report["triangular_failures"] == []
    assert all(info["exact"] for info in report["bidegrees"].values())
    assert {c["kind"] for c in report["counterexamples"]} == {"eta"}
    assert len(report["counterexamples"]) == 28
    assert report["all_exact"] is False


def test_a_triangular_failure_alone_breaks_exactness(monkeypatch):
    failure = {"J": (), "A": (), "image": {}}
    monkeypatch.setattr(mvss, "triangular_failures",
                        lambda images, classes: [failure])
    report = exactness_check(2)
    assert report["counterexamples"] == []
    assert report["triangular_failures"] == [failure]
    assert report["all_exact"] is False


def test_triangular_failures_reads_the_images():
    n = 3
    images, classes = d1_images(n), classes_of(n)
    assert triangular_failures(images, classes) == []
    # a wrong image is reported, so the images are really read
    J, A = next(key for key, cls in classes.items()
                if cls.status == "extendable")
    images[(J, A)] = {}
    assert triangular_failures(images, classes) == [
        {"J": idx(J), "A": idx(A), "image": {}}]
    # a term not lower than the partner is reported, written on tuples
    lead = classes[(J, A)].partner
    images[(J, A)] = {lead: 1, (J, 0): 2}
    assert triangular_failures(images, classes) == [
        {"J": idx(J), "A": idx(A),
         "image": {(idx(J), idx(lead[1])): 1, (idx(J), ()): 2}}]


def test_mv_two_sets_demo(monkeypatch):
    # with the correct relations the two-set complex is exact everywhere
    # (the second page of its spectral sequence vanishes, matching the
    # two-set Mayer-Vietoris identification); replacing the relation
    # e_1 (x_1 + x_2) by e_1 (x_3 + x_2) is detected by the rank check
    assert _two_sets_oracle()
    monkeypatch.setattr(mvss, "pinch_substitution",
                        _broken_pinch_substitution)
    assert not _two_sets_oracle()


def test_an_off_basis_term_is_a_falsifier(monkeypatch, tmp_path):
    # the broken relation sends x_2 to -x_3, and x_3 is pinched away at
    # A = (1, 2): d1(x_2 e_2) leaves BTS, a falsifier and not a crash
    monkeypatch.setattr(mvss, "pinch_substitution",
                        _broken_pinch_substitution)
    out = tmp_path / "mvss.json"
    assert cli.main(["mvss", "--n", "2", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["all_exact"] is False
    assert {"kind": "off_basis", "J": [2], "A": [2],
            "term": [[3], [1, 2]]} in report["counterexamples"]


def test_normal_form_memo_lives_for_one_call(monkeypatch):
    # exactness_check memoises the normal forms of monomials; a memo that
    # outlived the call would keep the right relation after the patch
    assert exactness_check(2)["all_exact"]
    monkeypatch.setattr(mvss, "pinch_substitution",
                        _broken_pinch_substitution)
    assert not _two_sets_oracle()


def test_memoised_normal_form_matches_the_plain_one():
    # same terms in the same order, with one memo across many calls
    n = 3
    memo = {}
    for J, A in enumerate_bts(n):
        once = d1({(J, A): 1}, n)
        assert list(d1({(J, A): 1}, n, memo).items()) == list(once.items())
        assert d1(once, n, memo) == d1(once, n) == {}
    assert len(memo) == 440       # distinct monomials met in mvss --n 3
    for (J, A), form in memo.items():
        assert {k: c for k, c in form.items() if c} == \
            ts_normal_form({(J, A): 1}, n)


def test_empty_element_trivially_closed():
    assert d1({}, 2) == {} == ts_normal_form({(m(1), m(2)): 0}, 2)
