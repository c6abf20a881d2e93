import pytest

from kslab import mvss
from kslab.graph_rings import expected_hedgehog_structure, pinch_substitution
from kslab.intlinalg import rank, snf_invariants
from kslab.graphs import hedgehog_analyze
from kslab.mvss import (
    TSElement,
    bts_by_bidegree,
    classify_bts,
    d1,
    enumerate_bts,
    exactness_check,
    extendable_by_search,
    is_bts,
    mv_two_sets_demo,
    row_euler_characteristics,
    triangular_failures,
    ts_normal_form,
)


def all_pinch_sets(n):
    for mask in range(1 << (2 * n - 1)):
        yield tuple(i + 1 for i in range(2 * n - 1) if mask >> i & 1)


def test_normal_form_examples():
    assert ts_normal_form({((2,), (1,)): 1}, 2) == TSElement(
        2, {((1,), (1,)): -1})
    a = ts_normal_form({((), (1, 3)): 1}, 2)
    assert a == TSElement(2, {((), (1, 3)): 1})


def test_normal_form_lands_on_bts():
    n = 2
    for A in all_pinch_sets(n):
        for mask in range(1 << (2 * n)):
            J = tuple(i + 1 for i in range(2 * n) if mask >> i & 1)
            out = ts_normal_form({(J, A): 1}, n)
            for K, B in out.terms:
                assert B == A and is_bts(K, B, n)


def test_normal_form_cross_checked_by_rank():
    # the A-component of TS is the hedgehog ring: the number of BTS
    # elements per degree must match its independently computed rank
    for n in (2, 3, 4):
        groups = bts_by_bidegree(n)
        for A in all_pinch_sets(n):
            expected = expected_hedgehog_structure(hedgehog_analyze(n, A))
            for j, (rk, tors) in enumerate(expected):
                assert not tors
                cnt = sum(1 for J, B in groups.get((len(A), j), []) if B == A)
                assert cnt == rk, (n, A, j)


def test_d1_examples():
    u = d1(TSElement.basis_element((), (), 2))
    assert u == TSElement(2, {((), (1,)): 1, ((), (2,)): 1, ((), (3,)): 1})
    x1u = d1(TSElement.basis_element((1,), (), 2))
    assert x1u == TSElement(2, {((1,), (1,)): 1, ((1,), (2,)): 1,
                                ((1,), (3,)): 1})


def test_d1_squared_zero_exhaustive():
    for n in (2, 3):
        for J, A in enumerate_bts(n):
            assert d1(d1(TSElement.basis_element(J, A, n))).is_zero()


def test_classify_examples():
    c = classify_bts((), (), 2)
    assert c.status == "extendable" and c.partner == ((), (1,))
    with pytest.raises(ValueError):
        classify_bts((2,), (1,), 2)  # 2 is pinched away, not in BTS


def test_classification_matches_direct_search():
    for n in (2, 3):
        for J, A in enumerate_bts(n):
            c = classify_bts(J, A, n)
            a = extendable_by_search(J, A, n)
            if c.status == "extendable":
                assert a is not None and c.partner == (J, tuple(sorted(A + (a,))))
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
            for i in range(len(A)):
                assert (J, A[:i] + A[i + 1:]) in bts


def test_bts_counts():
    assert len(enumerate_bts(2)) == 28
    assert len(enumerate_bts(3)) == 212
    assert len(enumerate_bts(4)) == 1676


def test_exactness_n2_and_n3():
    for n in (2, 3):
        r = exactness_check(n)
        assert r["d1_squared_zero"]
        assert r["all_exact"], r["counterexamples"]
        assert not r["triangular_failures"]
        for info in r["bidegrees"].values():
            assert info["exact"]


def test_row_euler_characteristics_vanish():
    for n in (2, 3, 4):
        assert set(row_euler_characteristics(n).values()) == {0}


def test_triangularity_n4():
    assert triangular_failures(4) == []


def _bidegree_exactness_oracle(groups, image):
    """The old per-bidegree check: d1 recomputed on demand, and each
    matrix reduced twice (rank for its source, SNF for its target)."""
    matrices = {}
    for (p, j), source in groups.items():
        col = {key: i for i, key in enumerate(groups.get((p + 1, j), []))}
        matrices[(p, j)] = [{col[key]: c for key, c in image(J, A).terms.items()}
                            for J, A in source]
    out = {}
    for (p, j) in sorted(groups):
        dim = len(groups[(p, j)])
        rank_out = rank(matrices[(p, j)], len(groups.get((p + 1, j), [])))
        divisors = snf_invariants(matrices.get((p - 1, j), []), dim)
        out[(p, j)] = {
            "dim": dim, "rank_in": len(divisors), "rank_out": rank_out,
            "exact": len(divisors) + rank_out == dim
            and all(d == 1 for d in divisors),
        }
    return out


def _exactness_check_oracle(n):
    """exactness_check recomputing d1 for each of its three checks."""
    report = {"n": n, "bidegrees": {}, "d1_squared_zero": True,
              "triangular_failures": [], "counterexamples": [],
              "all_exact": True}
    for J, A in enumerate_bts(n):
        if not d1(d1(TSElement.basis_element(J, A, n))).is_zero():
            report["d1_squared_zero"] = False
            report["counterexamples"].append(
                {"kind": "d1_squared", "J": J, "A": A})
    report["bidegrees"] = _bidegree_exactness_oracle(
        bts_by_bidegree(n), lambda J, A: d1(TSElement.basis_element(J, A, n)))
    for (p, j), info in report["bidegrees"].items():
        if not info["exact"]:
            report["all_exact"] = False
            report["counterexamples"].append(
                {"kind": "homology", "bidegree": (p, j)})
    report["triangular_failures"] = triangular_failures(n)
    if report["triangular_failures"] or not report["d1_squared_zero"]:
        report["all_exact"] = False
    return report


def _two_sets_oracle(corrupt):
    substitution = (mvss._broken_pinch_substitution if corrupt
                    else pinch_substitution)
    basis = [(J, A) for J, A in enumerate_bts(2) if set(A) <= {1, 2}]
    groups = {}
    for J, A in basis:
        groups.setdefault((len(A), len(J)), []).append((J, A))
    span = set(basis)

    def image(J, A):
        img = d1(TSElement.basis_element(J, A, 2), substitution)
        return TSElement(2, {k: c for k, c in img.terms.items() if k in span})

    columns = _bidegree_exactness_oracle(groups, image)
    return {"columns": columns,
            "exact_everywhere": all(c["exact"] for c in columns.values()),
            "corrupted": corrupt}


def test_exactness_check_matches_recomputing_oracle():
    for n in (2, 3):
        assert exactness_check(n) == _exactness_check_oracle(n)
    for corrupt in (False, True):
        assert mv_two_sets_demo(corrupt) == _two_sets_oracle(corrupt)


def test_triangular_failures_with_and_without_images():
    n = 3
    images = {(J, A): d1(TSElement.basis_element(J, A, n))
              for J, A in enumerate_bts(n)}
    assert triangular_failures(n, images) == triangular_failures(n) == []
    # a wrong image is reported, so the images are really read
    J, A = next(key for key in enumerate_bts(n)
                if classify_bts(*key, n).status == "extendable")
    images[(J, A)] = TSElement(n)
    assert triangular_failures(n, images) == [
        {"J": J, "A": A, "image": {}}]


def test_mv_two_sets_demo():
    assert mv_two_sets_demo()["exact_everywhere"]
    assert not mv_two_sets_demo(corrupt=True)["exact_everywhere"]


def test_empty_element_trivially_closed():
    z = TSElement(2)
    assert d1(z).is_zero() and z + z == z
