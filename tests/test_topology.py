import os
from itertools import product

import pytest

from kslab.graphs import make_standard
from kslab.topology import (
    OCT_ELEMENTS,
    compare_with_S,
    coboundary_rows,
    euler_characteristic,
    f_vector,
    integral_cohomology,
    oct_chi,
    oct_leq,
    octahedron_cohomology,
    order_complex,
    staircase_product_complex,
    tree_y_cohomology,
    y_complex,
    y_small_complex,
)

run_large = os.environ.get("KRL_LARGE") == "1"


def test_octahedron_poset():
    # the antipodal involution preserves the order and is fixed-point
    # free; u and -u are never comparable
    for u in OCT_ELEMENTS:
        assert oct_chi(oct_chi(u)) == u
        assert oct_chi(u) != u
        assert oct_leq(u, u)
        assert not oct_leq(u, oct_chi(u))
        for v in OCT_ELEMENTS:
            if oct_leq(u, v) and oct_leq(v, u):
                assert u == v
            if oct_leq(u, v):
                assert oct_leq(oct_chi(u), oct_chi(v))


def test_octahedron_complex_is_a_two_sphere():
    cx = order_complex(OCT_ELEMENTS, oct_leq)
    assert f_vector(cx) == (6, 12, 8)
    assert euler_characteristic(cx) == 2
    assert integral_cohomology(cx) == [(1, []), (0, []), (1, [])]
    assert octahedron_cohomology() == ((1, ()), (0, ()), (1, ()))


def test_coboundary_squares_to_zero():
    cx = y_complex(make_standard("C", 2))
    for k in range(len(cx) - 2):
        rows_k, _ = coboundary_rows(cx, k)
        rows_k1, ncols = coboundary_rows(cx, k + 1)
        for row in rows_k:
            acc: dict = {}
            for j, v in row.items():
                for c, w in rows_k1[j].items():
                    acc[c] = acc.get(c, 0) + v * w
            assert all(x == 0 for x in acc.values())


def test_y_c1_is_the_octahedron():
    cx = y_complex(make_standard("C", 1))
    assert f_vector(cx) == (6, 12, 8)
    assert integral_cohomology(cx) == [(1, []), (0, []), (1, [])]


def test_y_c2_frozen_values():
    G = make_standard("C", 2)
    cx = y_complex(G)
    assert f_vector(cx) == (66, 564, 1656, 1920, 768)
    assert euler_characteristic(cx) == 6
    assert integral_cohomology(cx) == [(1, []), (0, []), (3, []), (0, []),
                                       (2, [])]


def test_euler_characteristic_is_central_binomial():
    # chi(Y(C(n))) = C(2n, n)
    assert euler_characteristic(y_complex(make_standard("C", 1))) == 2
    assert euler_characteristic(y_complex(make_standard("C", 2))) == 6


def test_tree_product_cohomology():
    # H*(Y(T)) for a tree with k edges: binomial ranks in even degrees
    from math import comb
    for k in range(5):
        h = tree_y_cohomology(k)
        assert len(h) == 2 * k + 1
        for j, (r, t) in enumerate(h):
            assert not t
            assert r == (comb(k, j // 2) if j % 2 == 0 else 0)


def test_tree_direct_matches_product():
    for G, k in ((make_standard("B"), 1), (make_standard("L", 1), 2)):
        direct = integral_cohomology(y_complex(G))
        assert direct == tree_y_cohomology(k)


def test_small_sphere_model_products():
    assert integral_cohomology(staircase_product_complex(1)) == \
        [(1, []), (0, []), (1, [])]
    assert integral_cohomology(staircase_product_complex(2)) == \
        [(1, []), (0, []), (2, []), (0, []), (1, [])]


def test_staircase_memo_matches_a_fresh_build():
    for c in (1, 2, 3):
        cached = staircase_product_complex(c)
        assert cached is staircase_product_complex(c)
        assert cached == staircase_product_complex.__wrapped__(c)
        assert isinstance(cached, tuple)
        assert all(isinstance(level, tuple) for level in cached)
    assert f_vector(staircase_product_complex(3)) == \
        (64, 936, 6064, 18240, 27456, 20160, 5760)


def test_octahedral_power_is_the_order_complex_of_the_product():
    # the at-most-three-values rule never fires on the octahedron, so its
    # sphere power is the order complex of P^c
    for c in (1, 2):
        elements = list(product(OCT_ELEMENTS, repeat=c))
        oracle = order_complex(
            elements, lambda a, b: all(map(oct_leq, a, b)))
        expected = tuple(
            tuple(sorted(tuple(elements[i] for i in chain) for chain in level))
            for level in oracle)
        assert staircase_product_complex(c, "octahedron") == expected


def test_sphere_power_budget_and_model_checks():
    # the small 2-sphere has 4 + 6 + 4 = 14 simplices
    assert f_vector(staircase_product_complex(1, "small", 14)) == (4, 6, 4)
    with pytest.raises(ValueError, match="budget"):
        staircase_product_complex(1, "small", 13)
    with pytest.raises(ValueError, match="sphere model"):
        staircase_product_complex(1, "cube")


def test_small_model_agrees_on_c2():
    cx = y_small_complex(make_standard("C", 2))
    assert f_vector(cx) == (28, 162, 428, 480, 192)
    assert y_complex(make_standard("C", 2), model="small") == cx
    assert euler_characteristic(cx) == 6
    assert integral_cohomology(cx) == [(1, []), (0, []), (3, []), (0, []),
                                       (2, [])]


def test_folding_subcomplexes_embed():
    # each tree folding contributes an order-preserving pullback whose
    # chains all appear in the union complex
    from itertools import product as iproduct

    from kslab.graphs import enumerate_tree_foldings, partition_map

    G = make_standard("C", 2)
    union = [set(level) for level in y_complex(G)]
    edges = G.positive_edges()
    for p in enumerate_tree_foldings(G, "any"):
        pmap = partition_map(p)
        key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(key))
        sub_elements = list(iproduct(OCT_ELEMENTS, repeat=len(classes)))
        expand = {cls: i for i, cls in enumerate(classes)}
        pull = [expand[k] for k in key]
        pulled = {a: tuple(a[i] for i in pull) for a in sub_elements}
        for a in sub_elements:
            for b in sub_elements:
                if all(oct_leq(u, v) for u, v in zip(a, b)):
                    assert all(oct_leq(u, v)
                               for u, v in zip(pulled[a], pulled[b]))
        sub = order_complex(sub_elements,
                            lambda a, b: all(oct_leq(u, v)
                                             for u, v in zip(a, b)))
        for k, level in enumerate(sub):
            for chain in level:
                image = tuple(pulled[sub_elements[v]] for v in chain)
                assert image in union[k]


def test_budget_refusal():
    with pytest.raises(ValueError):
        y_complex(make_standard("L", 2), budget=1000)
    with pytest.raises(ValueError):
        y_small_complex(make_standard("theta"), budget=1000)
    with pytest.raises(ValueError):
        order_complex(OCT_ELEMENTS, oct_leq, budget=10)


def test_compare_trees_and_cycles():
    for G in (make_standard("B"), make_standard("L", 1),
              make_standard("L", 2)):
        rep = compare_with_S(G)
        assert rep["match"] and rep["route"] == "product"
    # C(1) collapses to a single edge and is routed as a tree
    assert compare_with_S(make_standard("C", 1))["match"]
    rep = compare_with_S(make_standard("C", 2))
    assert rep["match"] and rep["route"] == "direct"


def test_theta_euler_characteristic_agrees():
    # cheap consistency signal for the exploratory case: chi equals the
    # total rank of the graph ring
    from kslab.graph_rings import graded_structure, structure_ranks
    s_ranks = structure_ranks(graded_structure(make_standard("theta")))
    assert s_ranks[:4] == [1, 5, 8, 4]
    cx = y_small_complex(make_standard("theta"))
    assert f_vector(cx) == (196, 3414, 23396, 72000, 109440, 80640, 23040)
    assert euler_characteristic(cx) == sum(s_ranks)


@pytest.mark.skipif(not run_large, reason="set KRL_LARGE=1 to run")
def test_theta_comparison_large():
    rep = compare_with_S(make_standard("theta"), model="small")
    assert rep["match"]
    assert rep["cohomology"][:7] == [(1, []), (0, []), (5, []), (0, []),
                                     (8, []), (0, []), (4, [])]


@pytest.mark.skipif(not run_large, reason="set KRL_LARGE=1 to run")
def test_c3_comparison_large():
    rep = compare_with_S(make_standard("C", 3), model="small")
    assert rep["match"]
    assert rep["cohomology"][:7] == [(1, []), (0, []), (5, []), (0, []),
                                     (9, []), (0, []), (5, [])]
    assert all(h == (0, []) for h in rep["cohomology"][7:])
