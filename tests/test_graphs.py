import ast
import math
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from kslab import graphs
from kslab.combinatorics import enumerate_matchings, matching_from_pairs
from kslab.graphs import (
    BiGraph,
    bfs,
    canonical_form,
    enumerate_tree_foldings,
    folding_to_ncm,
    graph_from_json,
    hedgehog_analyze,
    is_tree,
    is_tree_by_deletion,
    make_standard,
    ncm_to_folding,
    quotient,
)


def test_standard_graphs():
    C2 = make_standard("C", 2)
    assert len(C2.vertices) == 4 and len(C2.edges) == 4
    C1 = make_standard("C", 1)
    assert len(C1.vertices) == 2 and len(C1.edges) == 1
    L2 = make_standard("L", 2)
    assert sorted(map(sorted, L2.edges)) == [[0, 1], [1, 2], [2, 3], [3, 4]]
    B = make_standard("B")
    assert len(B.vertices) == 2 and len(B.edges) == 1


def test_graph_validation():
    with pytest.raises(ValueError):
        BiGraph((0, 1), {0: 0, 1: 0}, frozenset({frozenset({0, 1})}))
    with pytest.raises(ValueError):  # disconnected
        BiGraph((0, 1, 2, 3), {0: 0, 1: 1, 2: 0, 3: 1},
                frozenset({frozenset({0, 1}), frozenset({2, 3})}))


def test_json_round_trip():
    C2 = make_standard("C", 2)
    again = graph_from_json(C2.to_json())
    assert again == C2
    with pytest.raises(ValueError):
        graph_from_json({"vertices": [], "edges": []})
    with pytest.raises(ValueError):  # odd-odd edge
        graph_from_json({"vertices": [{"id": 0, "parity": 1}, {"id": 1, "parity": 1}],
                         "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="mixes int and string"):
        graph_from_json({"vertices": [{"id": 0, "parity": 0},
                                      {"id": "a", "parity": 1}],
                         "edges": [[0, "a"]]})


def test_quotient_examples():
    C2 = make_standard("C", 2)
    T, _ = quotient(C2, ((0, 2), (1,), (3,)))
    assert is_tree(T) and len(T.edges) == 2
    same, _ = quotient(C2, ((0,), (1,), (2,), (3,)))
    assert same == C2
    with pytest.raises(ValueError):  # merging adjacent/mixed-parity vertices
        quotient(C2, ((0, 1), (2,), (3,)))


def test_is_tree():
    for n in range(0, 4):
        assert is_tree(make_standard("L", n))
    assert is_tree(make_standard("C", 1))
    for n in range(2, 5):
        assert not is_tree(make_standard("C", n))


def test_tree_deletion_characterisation_agrees():
    cases = [make_standard("L", 2), make_standard("C", 1), make_standard("C", 3)]
    C2 = make_standard("C", 2)
    cases.append(quotient(C2, ((0, 2), (1,), (3,)))[0])
    for G in cases:
        assert is_tree(G) == is_tree_by_deletion(G)


def test_ncm_folding_paper_example():
    tau = matching_from_pairs([(1, 2), (3, 8), (4, 5), (6, 7)], 8)
    p = ncm_to_folding(tau)
    T, _ = quotient(make_standard("C", 4), p)
    assert is_tree(T)
    assert len(T.vertices) == 5 and len(T.edges) == 4
    assert folding_to_ncm(p, 4) == tau


def test_ncm_folding_c1():
    tau = matching_from_pairs([(1, 2)], 2)
    p = ncm_to_folding(tau)
    T, _ = quotient(make_standard("C", 1), p)
    assert T == make_standard("C", 1)


def test_ncm_folding_round_trip():
    for n in range(1, 6):
        C = make_standard("C", n)
        for tau in enumerate_matchings(n):
            p = ncm_to_folding(tau)
            T, _ = quotient(C, p)
            assert is_tree(T) and len(T.edges) == n
            assert folding_to_ncm(p, n) == tau


def test_enumerate_tree_foldings_catalan():
    for n in range(1, 7):
        found = [p for p in enumerate_tree_foldings(make_standard("C", n))
                 if len(p) == n + 1]
        catalan = math.comb(2 * n, n) // (n + 1)
        assert len(found) == catalan
        assert set(found) == {ncm_to_folding(t) for t in enumerate_matchings(n)}


def _tree_foldings_by_quotient(G):
    """The oracle: every parity-respecting partition whose quotient graph
    is a tree, with that tree's edge count, found by building the
    quotient of each partition."""
    evens = sorted(v for v in G.vertices if G.parity[v] == 0)
    odds = sorted(v for v in G.vertices if G.parity[v] == 1)
    out = []
    for pe in graphs._set_partitions(evens):
        for po in graphs._set_partitions(odds):
            partition = graphs.normalise_partition(pe + po)
            try:
                T, _ = quotient(G, partition)
            except ValueError:
                continue
            if is_tree(T):
                out.append((partition, len(T.edges)))
    return sorted(out)


def _relabelled(G, rng):
    """G with seeded string vertex ids, vertex order and parity flip."""
    names = {v: f"v{i:02d}" for v, i in
             zip(G.vertices, rng.sample(range(100), len(G.vertices)))}
    flip = rng.random() < 0.5
    vertices = [names[v] for v in G.vertices]
    rng.shuffle(vertices)
    return BiGraph(tuple(vertices),
                   {names[v]: G.parity[v] ^ flip for v in G.vertices},
                   frozenset(frozenset(names[v] for v in e) for e in G.edges))


FOLDING_ORACLE_GRAPHS = {
    **{f"C{n}": make_standard("C", n) for n in range(1, 6)},
    **{f"L{n}": make_standard("L", n) for n in (2, 3)},
    **{name: make_standard(name) for name in ("theta", "K23", "K33", "cube")},
}
FOLDING_ORACLE_GRAPHS.update({
    f"{name}-relabelled": _relabelled(FOLDING_ORACLE_GRAPHS[name],
                                      random.Random(seed))
    for seed, name in enumerate(("C2", "C5", "theta", "cube"))})


@pytest.mark.parametrize("name", sorted(FOLDING_ORACLE_GRAPHS))
def test_enumerate_tree_foldings_matches_quotient_oracle(name):
    G = FOLDING_ORACLE_GRAPHS[name]
    oracle = _tree_foldings_by_quotient(G)
    found = enumerate_tree_foldings(G)
    assert found == [p for p, _ in oracle]
    # a tree with k edges has k + 1 vertices, the classes of its folding
    for k in range(len(G.edges) + 1):
        assert [p for p in found if len(p) == k + 1] == \
            [p for p, edges in oracle if edges == k]


def test_folding_to_ncm_rejects_bad_fibres():
    # the fold of C(2) onto B has one quotient edge with 4 preimages
    p = ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        folding_to_ncm(p, 2)


def test_every_tree_folding_quotient_is_tree():
    for n in range(1, 4):
        G = make_standard("C", n)
        for p in enumerate_tree_foldings(G):
            T, _ = quotient(G, p)
            assert is_tree(T)


def test_hedgehog_worked_example():
    h = hedgehog_analyze(9, (2, 3, 4, 7, 10, 12, 15, 16))
    assert h.a_sharp == (0, 1, 2, 6, 7, 9, 10, 12, 14, 15, 18)
    # spines are d_2, d_4, d_6, d_7, i.e. lower ends 2, 7, 10, 12
    assert h.spine_indices == (2, 7, 10, 12)
    assert h.body_indices == (1, 6, 9, 14, 15, 18)
    assert h.body_length == 3


def test_hedgehog_degenerate_cases():
    h0 = hedgehog_analyze(2, ())
    assert h0.spine_indices == () and h0.body_length == 2
    assert h0.rolled_graph == make_standard("C", 2)
    hall = hedgehog_analyze(2, (1, 2, 3))
    assert hall.a_sharp == (0, 1)
    assert hall.body_length == 0 and len(hall.rolled_graph.edges) == 1
    with pytest.raises(ValueError):
        hedgehog_analyze(2, (4,))


def test_hedgehog_counts():
    # body edge count even; |spines| + |body| = |A^#| - 1, for every A, n <= 4
    for n in range(1, 5):
        subsets = [()]
        for i in range(1, 2 * n):
            subsets += [s + (i,) for s in subsets]
        for A in subsets:
            h = hedgehog_analyze(n, A)
            assert len(h.body_indices) % 2 == 0
            assert len(h.spine_indices) + len(h.body_indices) == len(h.a_sharp) - 1
            # body is a path of length 2m inside the unrolled hedgehog
            assert h.body_length <= n


def test_distance_parity():
    # a BFS depth is the graph distance from the root
    for G in (make_standard("C", 3), make_standard("L", 3)):
        for u in G.vertices:
            parent, depth = bfs(G.adjacency, u)
            assert set(depth) == set(G.vertices) and parent[u] is None
            for v in G.vertices:
                assert depth[v] % 2 == (G.parity[u] - G.parity[v]) % 2
                if v != u:
                    assert depth[parent[v]] == depth[v] - 1
                    assert parent[v] in G.adjacency[v]


def test_bfs_depths_on_small_graphs():
    C3 = make_standard("C", 3)
    parent, depth = bfs(C3.adjacency, 0)
    # reached in adjacency order: 3 is found from 2, before 4 is read
    assert list(depth.items()) == [(0, 0), (1, 1), (5, 1), (2, 2), (4, 2),
                                   (3, 3)]
    assert parent == {0: None, 1: 0, 5: 0, 2: 1, 4: 5, 3: 2}
    L2 = make_standard("L", 2)
    assert bfs(L2.adjacency, 4) == ({4: None, 3: 4, 2: 3, 1: 2, 0: 1},
                                    {4: 0, 3: 1, 2: 2, 1: 3, 0: 4})


def test_adjacency_follows_the_positive_edges():
    for name in ("theta", "K33", "cube"):
        G = make_standard(name)
        expected = {v: [] for v in G.vertices}
        for a, b in G.positive_edges():
            expected[a].append(b)
            expected[b].append(a)
        assert G.adjacency == expected
        assert G.adjacency is G.adjacency


def test_adjacency_is_no_field():
    # the benchmark certificates pin the repr of rolled hedgehog graphs
    G = make_standard("C", 2)
    text = repr(G)
    G.adjacency
    assert repr(G) == text and "adjacency" not in text
    assert G == make_standard("C", 2)


def test_long_cycle_builds_in_linear_time():
    start = time.perf_counter()
    G = make_standard("C", 5000)
    _, depth = bfs(G.adjacency, 0)
    elapsed = time.perf_counter() - start
    assert depth[5000] == 5000 and max(depth.values()) == 5000
    assert elapsed < 1.0


def _closure_oracle(items, pairs):
    """The classes generated by ``pairs``: merge the two classes of each
    pair, one pair at a time."""
    cls = {x: frozenset([x]) for x in items}
    for a, b in pairs:
        merged = cls[a] | cls[b]
        for x in merged:
            cls[x] = merged
    return graphs.normalise_partition(set(cls.values()))


def test_components_match_the_closure_oracle():
    rng = random.Random(23)
    for size in range(1, 12):
        for _ in range(20):
            pairs = [(rng.randrange(size), rng.randrange(size))
                     for _ in range(rng.randrange(2 * size))]
            assert graphs.components(range(size), pairs) == \
                _closure_oracle(range(size), pairs)


def _defines_a_union_find(node) -> bool:
    name = node.name.lower().replace("_", "")
    if name in ("find", "union") or "unionfind" in name \
            or "disjointset" in name:
        return True
    methods = {item.name for item in getattr(node, "body", [])
               if isinstance(item, ast.FunctionDef)}
    return isinstance(node, ast.ClassDef) and {"find", "union"} <= methods


def test_only_graphs_walks_graphs():
    # every traversal goes through graphs.bfs: no other module keeps a
    # queue for a BFS of its own or a union-find for its closures
    found = []
    package = Path(graphs.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.stem == "graphs":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    any(a.name == "deque" for a in node.names) or \
                    isinstance(node, ast.Attribute) and node.attr == "deque":
                found.append((path.stem, "deque"))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and \
                    _defines_a_union_find(node):
                found.append((path.stem, node.name))
    assert found == []


def test_canonical_form_distinguishes_small_graphs():
    L2 = make_standard("L", 2)
    C2 = make_standard("C", 2)
    assert canonical_form(L2) != canonical_form(C2)
    # relabeled copy of L(2) has the same certificate
    data = L2.to_json()
    relabel = {0: 10, 1: 11, 2: 12, 3: 13, 4: 14}
    data["vertices"] = [{"id": relabel[v["id"]], "parity": v["parity"]}
                        for v in data["vertices"]]
    data["edges"] = [[relabel[u], relabel[v]] for u, v in data["edges"]]
    assert canonical_form(graph_from_json(data)) == canonical_form(L2)
