import os
from itertools import combinations, product

import pytest

from kslab import topology
from kslab.cli import main
from kslab.graphs import BiGraph, enumerate_tree_foldings, make_standard, \
    partition_map
from kslab.intlinalg import snf_invariants
from kslab.topology import (
    OCT_ELEMENTS,
    SPHERE_MODELS,
    TET_VERTICES,
    compare_with_S,
    coboundary_rows,
    f_vector,
    integral_cohomology,
    oct_leq,
    octahedron_cohomology,
    order_complex,
    staircase_f_vector,
    staircase_product_complex,
    tree_y_cohomology,
    y_complex,
    y_small_complex,
)

run_large = os.environ.get("KRL_LARGE") == "1"


def euler_characteristic(simplices) -> int:
    return sum((-1) ** k * len(s) for k, s in enumerate(simplices))


def _levels(G, model="octahedron"):
    """The simplices of ``y_complex(G, model=model)``, by dimension."""
    return y_complex(G, model=model)[1]


def _decoded(complex_):
    """The levels of a ``(vertices, levels)`` pair, as chains of vertex
    tuples."""
    vertices, levels = complex_
    return [[tuple(vertices[i] for i in s) for s in level]
            for level in levels]


def test_octahedron_poset():
    # the antipodal involution preserves the order and is fixed-point
    # free; u and -u are never comparable
    for u in OCT_ELEMENTS:
        assert -u != u
        assert oct_leq(u, u)
        assert not oct_leq(u, -u)
        for v in OCT_ELEMENTS:
            if oct_leq(u, v) and oct_leq(v, u):
                assert u == v
            if oct_leq(u, v):
                assert oct_leq(-u, -v)


def test_octahedron_complex_is_a_two_sphere():
    cx = order_complex(OCT_ELEMENTS, oct_leq)
    assert f_vector(cx) == (6, 12, 8)
    assert euler_characteristic(cx) == 2
    assert integral_cohomology(cx) == [(1, []), (0, []), (1, [])]
    assert octahedron_cohomology() == ((1, ()), (0, ()), (1, ()))


def test_coboundary_squares_to_zero():
    cx = _levels(make_standard("C", 2))
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
    cx = _levels(make_standard("C", 1))
    assert f_vector(cx) == (6, 12, 8)
    assert integral_cohomology(cx) == [(1, []), (0, []), (1, [])]


def test_y_c2_frozen_values():
    G = make_standard("C", 2)
    vertices, cx = y_complex(G)
    assert len(vertices) == 66
    assert f_vector(cx) == (66, 564, 1656, 1920, 768)
    assert euler_characteristic(cx) == 6
    assert integral_cohomology(cx) == [(1, []), (0, []), (3, []), (0, []),
                                       (2, [])]


def test_euler_characteristic_is_central_binomial():
    # chi(Y(C(n))) = C(2n, n)
    assert euler_characteristic(_levels(make_standard("C", 1))) == 2
    assert euler_characteristic(_levels(make_standard("C", 2))) == 6


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
        direct = integral_cohomology(_levels(G))
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
    # sphere power is the order complex of P^c, in the same index space
    for c in (1, 2):
        elements = list(product(OCT_ELEMENTS, repeat=c))
        oracle = order_complex(
            elements, lambda a, b: all(map(oct_leq, a, b)))
        assert staircase_product_complex(c, "octahedron") == \
            tuple(map(tuple, oracle))


def _staircase_by_sets(c, model):
    """The oracle: the c-fold power as chains of vertex tuples, kept by
    the set of values each coordinate has taken (at most three)."""
    elements, leq = SPHERE_MODELS[model]
    vertices = list(product(elements, repeat=c))
    above = {v: [w for w in vertices if w != v and all(map(leq, v, w))]
             for v in vertices}
    levels = []
    frontier = [(v,) for v in vertices]
    while frontier:
        levels.append(tuple(sorted(frontier)))
        nxt = []
        for chain in frontier:
            used = [set(col) for col in zip(*chain)]
            for w in above[chain[-1]]:
                if all(len(u | {x}) <= 3 for u, x in zip(used, w)):
                    nxt.append(chain + (w,))
        frontier = nxt
    return tuple(levels)


@pytest.mark.parametrize("model, top", [("small", 3), ("octahedron", 2)])
def test_step_count_rule_matches_the_value_sets(model, top):
    # index chains, decoded through product(elements, repeat=c), are the
    # set-based chains in the same order: the index order is lex order
    elements = SPHERE_MODELS[model][0]
    for c in range(top + 1):
        vertices = list(product(elements, repeat=c))
        decoded = tuple(tuple(tuple(vertices[i] for i in chain)
                              for chain in level)
                        for level in staircase_product_complex(c, model))
        assert decoded == _staircase_by_sets(c, model)


def test_step_count_rule_hand_example():
    # in the small model a coordinate may step at most twice: 0 < 1 < 2 < 3
    # is the missing face, while two coordinates may each step twice
    levels = staircase_product_complex(1, "small")
    assert (0, 1, 2) in levels[2] and len(levels) == 3
    index = {v: i for i, v in enumerate(product(TET_VERTICES, repeat=2))}
    power = staircase_product_complex(2, "small")

    def chain(*vs):
        return tuple(index[v] for v in vs)

    assert chain((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)) in power[4]
    base = ((0, 0), (1, 0), (2, 1), (2, 2))
    assert chain(*base) in power[3]
    # a third step in coordinate 0, then in coordinate 1
    assert chain(*base, (3, 2)) not in power[4]
    assert chain(*base, (2, 3)) not in power[4]


def test_sphere_power_budget_and_model_checks():
    # the small 2-sphere has 4 + 6 + 4 = 14 simplices; the budget is
    # checked by y_complex, here on the one-edge tree B, whose only
    # folding is itself
    B = make_standard("B")
    assert f_vector(y_complex(B, 14, "small")[1]) == (4, 6, 4)
    with pytest.raises(ValueError, match="budget"):
        y_complex(B, 13, "small")
    with pytest.raises(ValueError, match="sphere model"):
        staircase_product_complex(1, "cube")


def test_staircase_f_vector_counts_without_building():
    # chains of the vertex posets: 6, 12, 8 (octahedron), 4, 6, 4 (small)
    assert staircase_f_vector(1, "octahedron") == (6, 12, 8)
    assert staircase_f_vector(1, "small") == (4, 6, 4)
    for model, top in (("small", 3), ("octahedron", 3 if run_large else 2)):
        for c in range(top + 1):
            assert staircase_f_vector(c, model) == \
                f_vector(staircase_product_complex(c, model))
    assert sum(staircase_f_vector(4, "small")) == 18080944
    with pytest.raises(ValueError, match="sphere model"):
        staircase_f_vector(1, "cube")


def test_y_complex_budget_edge():
    # the exact up-front count refuses iff the pull-backs of all sphere
    # powers, summed over the foldings, hold more than the budget
    G = make_standard("C", 2)
    total = sum(sum(staircase_f_vector(len(p) - 1, "small"))
                for p in enumerate_tree_foldings(G))
    assert total == 14 + 2 * 652  # one fold onto B, two onto L(1)
    assert y_complex(G, total, "small") == y_small_complex(G)
    with pytest.raises(ValueError, match="budget"):
        y_complex(G, total - 1, "small")


def test_c4_large_refusal_builds_no_sphere_power(capsys):
    # no sphere power is asked for, not even one that is refused
    before = staircase_product_complex.cache_info()
    assert main(["cohomology", "--graph", "C4", "--large"]) == 2
    assert "budget" in capsys.readouterr().err
    assert staircase_product_complex.cache_info() == before


def _y_complex_per_chain(G, model):
    """The oracle: each folding's sphere power pulled back chain by chain,
    on vertex tuples, with no budget."""
    edges = G.positive_edges()
    levels = []
    for p in enumerate_tree_foldings(G):
        pmap = partition_map(p)
        fibre_key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(fibre_key))
        pull = [classes.index(k) for k in fibre_key]
        power = _staircase_by_sets(len(classes), model)
        for k, level in enumerate(power):
            if k == len(levels):
                levels.append(set())
            levels[k].update(tuple(tuple(v[i] for i in pull) for v in chain)
                             for chain in level)
    return [sorted(level) for level in levels]


def _c2_relabelled():
    """C(2) with string ids, flipped parities and a shuffled vertex order,
    which reorders its positive edges."""
    names = {0: "d", 1: "b", 2: "a", 3: "c"}
    C2 = make_standard("C", 2)
    return BiGraph(("c", "a", "d", "b"),
                   {names[v]: 1 - C2.parity[v] for v in C2.vertices},
                   frozenset(frozenset(names[v] for v in e)
                             for e in C2.edges))


@pytest.mark.parametrize("model", ["octahedron", "small"])
@pytest.mark.parametrize("graph", ["C2", "C2-relabelled"])
def test_y_complex_matches_per_chain_pull_back(graph, model):
    G = make_standard("C", 2) if graph == "C2" else _c2_relabelled()
    oracle = _y_complex_per_chain(G, model)
    vertices, levels = y_complex(G, model=model)
    assert vertices == [v for (v,) in oracle[0]]
    assert _decoded((vertices, levels)) == oracle


def _export_lines(levels):
    """The ``--export`` format: one line per simplex, its vertex tuples
    written as (a,b,...) and joined by spaces."""
    return [" ".join("(" + ",".join(str(x) for x in v) + ")" for v in s)
            for level in levels for s in level]


@pytest.mark.parametrize("large", [False, True])
def test_export_matches_the_per_chain_oracle(tmp_path, capsys, large):
    out_file = tmp_path / "complex.txt"
    flags = ["--large"] if large else []
    assert main(["cohomology", "--graph", "C2", *flags,
                 "--export", str(out_file)]) == 0
    capsys.readouterr()
    oracle = _y_complex_per_chain(make_standard("C", 2),
                                  "small" if large else "octahedron")
    assert out_file.read_text() == \
        "".join(line + "\n" for line in _export_lines(oracle))


def test_coboundary_refuses_a_missing_face():
    # (0, 2) is a face of (0, 1, 2) that level 1 lacks
    levels = [[(0,), (1,), (2,)], [(0, 1), (1, 2)], [(0, 1, 2)]]
    assert coboundary_rows(levels, 0) == ([{0: -1}, {0: 1, 1: -1}, {1: 1}],
                                          2)
    with pytest.raises(ValueError, match="not a 1-simplex"):
        coboundary_rows(levels, 1)


def test_small_model_agrees_on_c2():
    vertices, cx = y_small_complex(make_standard("C", 2))
    assert len(vertices) == 28
    assert f_vector(cx) == (28, 162, 428, 480, 192)
    assert y_complex(make_standard("C", 2), model="small") == (vertices, cx)
    assert euler_characteristic(cx) == 6
    assert integral_cohomology(cx) == [(1, []), (0, []), (3, []), (0, []),
                                       (2, [])]


def test_folding_subcomplexes_embed():
    # each tree folding contributes an order-preserving pullback whose
    # chains all appear in the union complex
    from itertools import product as iproduct

    G = make_standard("C", 2)
    union = [set(level) for level in _decoded(y_complex(G))]
    edges = G.positive_edges()
    for p in enumerate_tree_foldings(G):
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
    cx = y_small_complex(make_standard("theta"))[1]
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


# --- clearing against the unreduced coboundaries -------------------------

# the 6-vertex real projective plane: every edge of K_6 lies in exactly
# two of these triangles
RP2_FACETS = ((1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
              (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6))


def _closure(facets):
    """A simplicial complex by dimension, from its facets (sorted tuples)."""
    faces = {face for f in facets for r in range(1, len(f) + 1)
             for face in combinations(f, r)}
    top = max(map(len, faces))
    return [sorted(f for f in faces if len(f) == d) for d in range(1, top + 1)]


def _rp2():
    return _closure(RP2_FACETS)


def _rp2_subdivided():
    faces = [f for level in _rp2() for f in level]
    return order_complex(faces, lambda a, b: set(a) <= set(b))


def _rp2_suspension():
    return _closure([f + (apex,) for f in RP2_FACETS for apex in (7, 8)])


def _rp2_cylinder():
    """RP^2 x [0, 1], as the order complex of the product of face posets.

    Its Z/2 sits below the top degree, so delta_1 has a dense core whose
    columns carry nonzero rows of delta_2: the one case here where
    clearing on a non-unit pivot would change an answer.
    """
    faces = [f for level in _rp2() for f in level]
    cells = [(f, e) for f in faces for e in ((0,), (1,), (0, 1))]
    return order_complex(cells, lambda a, b: set(a[0]) <= set(b[0])
                         and set(a[1]) <= set(b[1]))


def _unreduced_divisors(cx):
    """The oracle: every coboundary's invariant factors, with no clearing."""
    return [snf_invariants(*coboundary_rows(cx, k)) for k in range(len(cx))]


def _oracle_cohomology(divisors, cx):
    out, prev = [], []
    for k, divs in enumerate(divisors):
        out.append((len(cx[k]) - len(divs) - len(prev),
                    [d for d in prev if d > 1]))
        prev = divs
    return out


CLEARING_CASES = {
    "octahedron": lambda: order_complex(OCT_ELEMENTS, oct_leq),
    "oct-C1": lambda: _levels(make_standard("C", 1)),
    "oct-B": lambda: _levels(make_standard("B")),
    "oct-C2": lambda: _levels(make_standard("C", 2)),
    "small-C2": lambda: _levels(make_standard("C", 2), "small"),
    "staircase-1": lambda: staircase_product_complex(1),
    "staircase-2": lambda: staircase_product_complex(2),
    "rp2": _rp2,
    "rp2-subdivided": _rp2_subdivided,
    "rp2-suspension": _rp2_suspension,
    "rp2-cylinder": _rp2_cylinder,
}


@pytest.mark.parametrize("name", sorted(CLEARING_CASES))
def test_clearing_matches_unreduced_coboundaries(name, monkeypatch):
    cx = CLEARING_CASES[name]()
    oracle = _unreduced_divisors(cx)
    seen = []

    def recording(rows, ncols, unit_pivots=None):
        pivots: list[int] = []
        divs = snf_invariants(rows, ncols, pivots)
        # clearing trusts the pivots: distinct columns, at most the rank
        assert len(set(pivots)) == len(pivots) <= len(divs)
        seen.append(divs)
        unit_pivots.extend(pivots)
        return divs

    monkeypatch.setattr(topology, "snf_invariants", recording)
    assert integral_cohomology(cx) == _oracle_cohomology(oracle, cx)
    assert seen == oracle


def test_rp2_cases_have_two_torsion():
    assert integral_cohomology(_rp2()) == [(1, []), (0, []), (0, [2])]
    assert integral_cohomology(_rp2_subdivided()) == \
        [(1, []), (0, []), (0, [2])]
    assert integral_cohomology(_rp2_suspension()) == \
        [(1, []), (0, []), (0, []), (0, [2])]
    assert integral_cohomology(_rp2_cylinder()) == \
        [(1, []), (0, []), (0, [2]), (0, [])]


def test_clearing_leaves_out_rows_and_keeps_order():
    cx = _levels(make_standard("C", 2), "small")
    full, ncols = coboundary_rows(cx, 1)
    kept, kept_ncols = coboundary_rows(cx, 1, [0, 5, 7])
    assert kept_ncols == ncols
    assert kept == [r for i, r in enumerate(full) if i not in (0, 5, 7)]
