import random
from itertools import combinations
from math import comb

import pytest

from exterior_oracle import sigma, to_ext, to_masks
from kslab import graph_rings
from kslab.exterior import ExtElement
from kslab.graph_rings import (
    GraphRingPresentation,
    cycle_relations,
    graded_structure,
    has_torsion,
    hedgehog_ring,
    pinch_substitution,
    pinched_cycle_polynomial,
    pinched_ring_structure,
    r_masks,
    structure_ranks,
    tensor_ranks,
)
from kslab.graphs import BiGraph, bfs, make_standard, quotient
from kslab.intlinalg import quotient_structure
from kslab.springer import hilbert_ranks
from test_mvss import _broken_pinch_substitution


def join_with_edge(G0: BiGraph, G1: BiGraph, v0, v1) -> BiGraph:
    """G0 and a relabeled copy of G1 joined by a fresh edge v0 -- v1."""
    tag = max(G0.vertices) + 1 if all(isinstance(v, int) for v in G0.vertices) else 1000
    relabel = {v: (v + tag if isinstance(v, int) else v) for v in G1.vertices}
    vertices = G0.vertices + tuple(relabel[v] for v in G1.vertices)
    parity = dict(G0.parity)
    parity.update({relabel[v]: G1.parity[v] for v in G1.vertices})
    edges = set(G0.edges)
    edges |= {frozenset({relabel[u], relabel[v]}) for u, v in map(tuple, G1.edges)}
    edges.add(frozenset({v0, relabel[v1]}))
    return BiGraph(vertices, parity, frozenset(edges))


def walk_variables(G: BiGraph, walk):
    """The variables and signs of r(t) along a closed walk of G."""
    idx = {e: i + 1 for i, e in enumerate(G.positive_edges())}
    variables, signs = [], []
    for a, b in zip(walk, walk[1:] + walk[:1]):
        positive = G.parity[a] == 0
        variables.append(idx[(a, b) if positive else (b, a)])
        signs.append(1 if positive else -1)
    return variables, signs


def walk_relations(G: BiGraph, walk) -> list[dict[int, int]]:
    """Nonzero t-coefficients of r(t) - 1 along a closed walk of G."""
    return [c for c in r_masks(*walk_variables(G, walk))[1:] if c]


def fundamental_walks(G: BiGraph) -> list[tuple]:
    """The fundamental cycles of ``cycle_relations``, one closed walk per
    non-tree edge {a, b} in positive-edge order: from a up the BFS tree to
    the lowest common ancestor, then down to b."""
    parent, _ = bfs(G.adjacency, G.vertices[0])

    def to_root(v):
        path = [v]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    walks = []
    for a, b in G.positive_edges():
        if parent[a] != b and parent[b] != a:
            up_a, up_b = to_root(a), to_root(b)
            top = next(v for v in up_a if v in up_b)
            walks.append(tuple(up_a[:up_a.index(top) + 1]
                               + up_b[:up_b.index(top)][::-1]))
    return walks


def directed_simple_cycles(G: BiGraph) -> list[tuple]:
    """Every simple cycle of length > 2 in both directions, by plain DFS.

    A cycle is listed from its first vertex in ``G.vertices`` order, once
    per traversal direction.
    """
    order = {v: i for i, v in enumerate(G.vertices)}
    out = []

    def extend(path):
        for w in sorted(G.adjacency[path[-1]], key=order.get):
            if w == path[0] and len(path) > 2:
                out.append(tuple(path))
            elif order[w] > order[path[0]] and w not in path:
                extend(path + [w])

    for s in G.vertices:
        extend([s])
    return out


def all_cycle_relations(G: BiGraph) -> list[dict[int, int]]:
    """The presentation by all simple cycles in both directions (oracle)."""
    return [rel for cyc in directed_simple_cycles(G)
            for rel in walk_relations(G, cyc)]


def oracle_graded_structure(G):
    """Every degree reduced, rows built as ExtElement products (oracle)."""
    pres = G if isinstance(G, GraphRingPresentation) else cycle_relations(G)
    m = pres.nvars
    relations = [to_ext(rel, m) for rel in pres.relations]
    out = []
    for k in range(m + 1):
        monomials = list(combinations(range(1, m + 1), k))
        col = {J: i for i, J in enumerate(monomials)}
        rows = []
        for rel in relations:
            sizes = {len(J) for J in rel.terms}
            d = sizes.pop() if len(sizes) == 1 else None  # None: zero, mixed
            if d is None or d > k:
                continue
            for M in combinations(range(1, m + 1), k - d):
                prod = ExtElement.monomial(M, m) * rel
                if prod.terms:
                    rows.append({col[J]: c for J, c in prod.terms.items()})
        out.append(quotient_structure(rows, len(monomials)))
    return out


def presentation(m: int, relations) -> GraphRingPresentation:
    """A bare presentation over E(1..m) of the ExtElements ``relations``."""
    return GraphRingPresentation(m, [to_masks(rel) for rel in relations])


def adjoin(G, extra) -> GraphRingPresentation:
    """The presentation of S(G) (or ``G`` itself) with ``extra`` appended."""
    pres = G if isinstance(G, GraphRingPresentation) else cycle_relations(G)
    return GraphRingPresentation(pres.nvars, pres.relations + list(extra))


ORACLE_GRAPHS = {"C2": make_standard("C", 2), "C3": make_standard("C", 3),
                 "theta": make_standard("theta"), "K23": make_standard("K23"),
                 "K33": make_standard("K33")}


def test_r_masks_examples():
    r = r_masks((1, 2), (1, 1))
    assert r == [{0: 1}, {0b01: 1, 0b10: 1}, {0b11: 1}]
    # the same variable with both signs multiplies to 1
    assert r_masks((1, 1), (1, -1)) == [{0: 1}, {}, {}]
    assert to_ext(r_masks((1, 2, 3, 4), (1,) * 4)[2], 4) == \
        sigma(2, (1, 2, 3, 4), 4)


def test_tree_has_no_relations():
    for G in (make_standard("L", 2), make_standard("B"), make_standard("C", 1)):
        assert cycle_relations(G).relations == []


def test_c2_relations_are_sigmas():
    pres = cycle_relations(make_standard("C", 2))
    degs = [{M.bit_count() for M in r} for r in pres.relations]
    assert degs == [{1}, {2}, {3}, {4}]  # the one basis cycle, one direction


def test_theta_graph_cycle_classes():
    G = make_standard("theta")
    walks = fundamental_walks(G)
    basis_size = len(G.edges) - len(G.vertices) + 1
    assert len({tuple(sorted(w)) for w in walks}) == len(walks) == \
        basis_size == 2


def test_spanning_tree_grows_in_positive_edge_order():
    # the relation order decides which variables the unit elimination
    # solves for; K_{3,3}'s tree is the star at 0 with 1 and 2 below 3
    assert fundamental_walks(make_standard("K33")) == [
        (1, 3, 0, 4), (1, 3, 0, 5), (2, 3, 0, 4), (2, 3, 0, 5)]
    for G in ORACLE_GRAPHS.values():
        assert cycle_relations(G).relations == [
            rel for walk in fundamental_walks(G)
            for rel in walk_relations(G, walk)]


def test_oracle_enumerates_the_old_presentation():
    """Both directions of every simple cycle: 144 rows for K_{3,3}."""
    K33 = make_standard("K33")
    assert len(directed_simple_cycles(K33)) == 2 * (9 + 6)
    assert len(all_cycle_relations(K33)) == 144
    assert len(cycle_relations(K33).relations) == 16


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_cycle_basis_generates_all_cycle_relations(name):
    """Adjoining every cycle relation to the basis presentation changes no
    graded piece, so (finitely generated abelian groups being Hopfian) the
    ideals are equal."""
    G = ORACLE_GRAPHS[name]
    basis = graded_structure(G)
    extended = adjoin(G, all_cycle_relations(G))
    assert graded_structure(extended) == basis == \
        oracle_graded_structure(extended)


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_reversed_basis_cycles_add_nothing(name):
    G = ORACLE_GRAPHS[name]
    pres = cycle_relations(G)
    reversed_walks = [walk[::-1] for walk in fundamental_walks(G)]
    extended = adjoin(pres, [rel for walk in reversed_walks
                             for rel in walk_relations(G, walk)])
    assert graded_structure(extended) == graded_structure(pres) == \
        oracle_graded_structure(extended)


def test_s_of_cycle_equals_r():
    for n in range(1, 6):
        gs = graded_structure(make_standard("C", n))
        assert not has_torsion(gs)
        ranks = structure_ranks(gs)
        expect = hilbert_ranks(n)
        assert ranks[: len(expect)] == expect
        assert all(r == 0 for r in ranks[len(expect):])


def test_s_of_tree_is_binomial():
    for G, k in ((make_standard("L", 2), 4), (make_standard("B"), 1)):
        gs = graded_structure(G)
        assert structure_ranks(gs) == [comb(k, j) for j in range(k + 1)]
        assert not has_torsion(gs)


def test_tensor_decomposition_over_a_bridge():
    """S(G0 - edge - G1) = S(G0) (x) S(G1) (x) Z[x]/x^2 at the rank level."""
    cases = [
        (make_standard("C", 2), make_standard("B"), 0, 1),
        (make_standard("C", 2), make_standard("C", 2), 1, 0),
        (make_standard("L", 1), make_standard("C", 2), 2, 1),
    ]
    for G0, G1, v0, v1 in cases:
        G = join_with_edge(G0, G1, v0, v1)
        lhs = structure_ranks(graded_structure(G))
        r0 = structure_ranks(graded_structure(G0))
        r1 = structure_ranks(graded_structure(G1))
        rhs = tensor_ranks(tensor_ranks(r0, r1), [1, 1])
        assert lhs[: len(rhs)] == rhs
        assert all(r == 0 for r in lhs[len(rhs):])
        assert not has_torsion(graded_structure(G))


def test_leaf_attachment_convolves_with_1_1():
    base = make_standard("L", 1)  # path with 2 edges
    for v in base.vertices:
        leaf = join_with_edge(base, make_standard("B"), v, 0 if base.parity[v] else 1)
        # join_with_edge adds a whole extra edge graph: 2 extra edges; instead
        # verify the generic tensor identity which subsumes leaf attachment
        lhs = structure_ranks(graded_structure(leaf))
        rhs = tensor_ranks(structure_ranks(graded_structure(base)), [1, 2, 1])
        assert lhs[: len(rhs)] == rhs


def test_degenerate_cycles_add_nothing():
    """Appending the relations of a doubled traversal changes no structure."""
    G = make_standard("C", 2)
    pres = cycle_relations(G)
    extra = []
    for cyc in fundamental_walks(G):
        variables, signs = walk_variables(G, list(cyc))
        extra.extend(c for c in r_masks(variables * 2, signs * 2)[1:] if c)
    extended = adjoin(pres, extra)
    assert graded_structure(extended) == graded_structure(pres) == \
        oracle_graded_structure(extended)


def test_hedgehog_ring_examples():
    r = hedgehog_ring(2, (1,))
    assert structure_ranks(r["expected"]) == [1, 2, 1]
    assert r["match"] and r["relation_image_ok"]
    r2 = hedgehog_ring(2, (1, 2, 3))
    assert structure_ranks(r2["expected"]) == [1, 1]
    assert r2["match"] and r2["relation_image_ok"]


def test_hedgehog_ring_all_pinches_n_le_4():
    for n in (1, 2, 3, 4):
        for mask in range(1 << (2 * n - 1)):
            A = tuple(i + 1 for i in range(2 * n - 1) if mask >> i & 1)
            r = hedgehog_ring(n, A)
            assert r["match"], (n, A, r["expected"], r["direct"])
            assert r["relation_image_ok"], (n, A)


def all_pinch_sets(n: int):
    return [A for r in range(2 * n) for A in combinations(range(1, 2 * n), r)]


def test_a_wrong_pinch_substitution_fails_every_pinch_set_holding_1(
        monkeypatch, cold_kslab_caches):
    # psi builds both the presentation and the relation image
    monkeypatch.setattr(graph_rings, "pinch_substitution",
                        _broken_pinch_substitution)
    cases = [(n, A) for n in range(1, 5) for A in all_pinch_sets(n)
             if 1 in A]
    assert len(cases) == 85
    for n, A in cases:
        r = hedgehog_ring(n, A)
        assert not (r["match"] and r["relation_image_ok"]), (n, A)


def test_pinch_substitution_hand_example():
    # A = {1, 2, 4}: x_2 -> -x_1, x_3 -> x_1, x_5 -> -x_4, in any order of A
    for A in ((1, 2, 4), (4, 2, 1)):
        assert pinch_substitution(A) == {2: (-1, 1), 3: (1, 1), 5: (-1, 4)}


def relabelled_sigma_image(n: int, A, k: int) -> ExtElement:
    """sigma_k(x_1..x_2n) built over all 2n variables, then relabelled
    through the pinch substitution term by term (oracle)."""
    return sigma(k, range(1, 2 * n + 1), 2 * n).relabel_signed(
        pinch_substitution(tuple(sorted(A))))


def test_pinched_cycle_polynomial_matches_the_relabelled_sigmas():
    cases = [(n, A) for n in (1, 2, 3)
             for r in range(2 * n) for A in combinations(range(1, 2 * n), r)]
    cases += [(4, A) for A in sparse_pinch_sets(4)]
    assert len(cases) == 2 + 8 + 32 + 34
    for n, A in cases:
        assert [to_ext(c, 2 * n) for c in pinched_cycle_polynomial(n, A)] \
            == [relabelled_sigma_image(n, A, k) for k in range(2 * n + 1)], A


def test_theta_graph_structure_reported():
    gs = graded_structure(make_standard("theta"))
    # exploratory instance for the open question: record shape, expect
    # a well-defined graded structure with rank 1 in degree 0
    assert gs[0] == (1, [])
    assert len(gs) == 8


STOP_GRAPHS = {**ORACLE_GRAPHS, "C4": make_standard("C", 4),
               "cube": make_standard("cube")}


@pytest.mark.parametrize("name", STOP_GRAPHS)
def test_graded_structure_matches_the_oracle(name):
    G = STOP_GRAPHS[name]
    assert graded_structure(G) == oracle_graded_structure(G)


def sparse_pinch_sets(n: int):
    """Subsets of {1..2n-1} with no two consecutive elements."""
    return [A for r in range(n + 1) for A in combinations(range(1, 2 * n), r)
            if all(b - a > 1 for a, b in zip(A, A[1:]))]


def test_pinched_rings_match_the_oracle(monkeypatch):
    pinches = [(n, A) for n in range(1, 5) for A in sparse_pinch_sets(n)]
    fast = [pinched_ring_structure(n, A) for n, A in pinches]
    monkeypatch.setattr(graph_rings, "graded_structure",
                        oracle_graded_structure)
    assert fast == [pinched_ring_structure(n, A) for n, A in pinches]


def pinched_presentation(n: int, A) -> GraphRingPresentation:
    """sigma_1..sigma_2n of x_1..x_2n, then x_i + x_{i+1} for i in A: the
    2n-variable presentation of R(n)/(x_i + x_{i+1} : i in A) (oracle)."""
    bits = [1 << j for j in range(2 * n)]
    relations = [dict.fromkeys(map(sum, combinations(bits, k)), 1)
                 for k in range(1, 2 * n + 1)]
    relations += [{1 << (i - 1): 1, 1 << i: 1} for i in sorted(A)]
    return GraphRingPresentation(2 * n, relations)


def test_pinched_rings_match_the_2n_variable_presentation():
    cases = [(n, A) for n in range(1, 5) for A in all_pinch_sets(n)]
    assert len(cases) == 2 + 8 + 32 + 128
    for n, A in cases:
        assert pinched_ring_structure(n, A) == \
            graded_structure(pinched_presentation(n, A)), (n, A)


def surviving_variables(pres: GraphRingPresentation) -> int:
    """m' from the degree-1 relations alone (oracle)."""
    linear = [(1, list(rel.items())) for rel in pres.relations
              if rel and all(M.bit_count() == 1 for M in rel)]
    return pres.nvars - graph_rings._eliminate_unit_relations(linear)[1] \
        .bit_count()


def full_elimination_survivors(pres) -> int:
    """m' by eliminating over every relation, as graded_structure does."""
    relations = [(next(iter(rel)).bit_count(), list(rel.items()))
                 for rel in pres.relations if rel]
    _, gone = graph_rings._eliminate_unit_relations(relations)
    return pres.nvars - gone.bit_count()


def test_surviving_variables_need_only_the_linear_relations():
    cases = [pinched_presentation(n, A) for n in range(1, 5)
             for A in all_pinch_sets(n)]
    cases += [cycle_relations(G) for G in STOP_GRAPHS.values()]
    seen = set()
    for pres in cases:
        left = surviving_variables(pres)
        assert left == full_elimination_survivors(pres)
        seen.add(left)
    assert seen == set(range(1, 8))


def test_the_cap_counts_the_variables_that_survive(monkeypatch):
    # the presentation that is reduced keeps the m' of the 2n-variable
    # one, and with the cap at 0 every ring is refused naming that m'
    seen = []
    monkeypatch.setattr(graph_rings, "graded_structure", seen.append)
    for n in range(1, 5):
        for A in all_pinch_sets(n):
            pinched_ring_structure(n, A)
            assert full_elimination_survivors(seen.pop()) == \
                surviving_variables(pinched_presentation(n, A))
    monkeypatch.setattr(graph_rings, "PINCHED_VARIABLE_CAP", 0)
    for n in range(1, 5):
        for A in all_pinch_sets(n):
            left = surviving_variables(pinched_presentation(n, A))
            with pytest.raises(ValueError, match=f"keeps {left} variables"):
                pinched_ring_structure(n, A)


def test_pinched_relations_are_the_pinches_then_the_substituted_sigmas(
        monkeypatch):
    # x_i + x_{i+1} for each pinch i, then psi(sigma_1)..psi(sigma_2n)
    # over the same 2n variables
    seen = []
    monkeypatch.setattr(graph_rings, "graded_structure", seen.append)
    for n, A in ((1, ()), (3, (1, 4)), (3, (1, 2, 3))):
        pinched_ring_structure(n, A)
        pres = seen.pop()
        want = [{1 << (i - 1): 1, 1 << i: 1} for i in A]
        want += [to_masks(relabelled_sigma_image(n, A, k))
                 for k in range(1, 2 * n + 1)]
        assert pres.nvars == 2 * n and pres.relations == want


def test_torsion_does_not_stop_the_reduction():
    """Z[x1, x2, x3]/(x_i^2, 2 x_i): no degree above 0 is (0, [])."""
    pres = presentation(3, [ExtElement.monomial((i,), 3, 2)
                            for i in (1, 2, 3)])
    expect = [(1, []), (0, [2, 2, 2]), (0, [2, 2, 2]), (0, [2])]
    assert oracle_graded_structure(pres) == expect
    assert graded_structure(pres) == expect


def test_unit_relation_stops_at_degree_zero():
    pres = presentation(3, [ExtElement.monomial((), 3)])
    assert graded_structure(pres) == [(0, [])] * 4 == \
        oracle_graded_structure(pres)


def test_zero_relations_are_skipped():
    G = make_standard("C", 2)
    assert graded_structure(adjoin(G, [{}])) == \
        graded_structure(G)


def test_mixed_degree_relation_is_refused():
    G = make_standard("C", 2)
    mixed = {0b0001: 1, 0b0110: 1}                 # x1 + x2 x3
    with pytest.raises(ValueError, match="not homogeneous"):
        graded_structure(adjoin(G, [mixed]))


def test_pinch_of_three_variables_keeps_the_square_of_the_substitute():
    """E(3)/(x1+x2+x3): x3 = -(x1+x2), and x3^2 = 0 becomes 2 x1 x2 = 0."""
    pres = presentation(3, [ExtElement(3, {(1,): 1, (2,): 1, (3,): 1})])
    expect = [(1, []), (2, []), (0, [2]), (0, [])]
    assert oracle_graded_structure(pres) == expect
    assert graded_structure(pres) == expect


def test_substitution_keeps_a_non_unit_linear_relation():
    """E(2)/(x1+x2, x1-x2): x2 = -x1 turns x1 - x2 into 2 x1, which stays."""
    pres = presentation(2, [ExtElement(2, {(1,): 1, (2,): 1}),
                            ExtElement(2, {(1,): 1, (2,): -1})])
    expect = [(1, []), (0, [2]), (0, [])]
    assert oracle_graded_structure(pres) == expect
    assert graded_structure(pres) == expect


def test_bare_variable_relation_kills_its_variable():
    """E(3)/(-x2, x1 x2 + x2 x3 + x1 x3) = E(x1, x3)/(x1 x3)."""
    pres = presentation(3, [ExtElement(3, {(2,): -1}),
                            ExtElement(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})])
    expect = [(1, []), (2, []), (0, []), (0, [])]
    assert oracle_graded_structure(pres) == expect
    assert graded_structure(pres) == expect


def relabelled(G: BiGraph, rng: random.Random) -> BiGraph:
    """G with string vertex ids in a random order, parities flipped with
    probability 1/2; the positive edges, and so the variables that the
    unit relations eliminate, come in a different order."""
    ids = rng.sample(range(len(G.vertices)), len(G.vertices))
    name = {v: f"v{ids[i]}" for i, v in enumerate(G.vertices)}
    flip = rng.random() < 0.5
    vertices = [name[v] for v in G.vertices]
    rng.shuffle(vertices)
    return BiGraph(tuple(vertices),
                   {name[v]: G.parity[v] ^ flip for v in G.vertices},
                   frozenset(frozenset(name[v] for v in e) for e in G.edges))


RELABEL_GRAPHS = {"C2": make_standard("C", 2), "theta": make_standard("theta"),
                  "K33": make_standard("K33"), "cube": make_standard("cube")}


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", RELABEL_GRAPHS)
def test_relabelled_graphs_match_the_oracle(name, seed):
    G = relabelled(RELABEL_GRAPHS[name], random.Random(seed))
    assert graded_structure(G) == oracle_graded_structure(G)
