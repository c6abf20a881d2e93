"""The ring S(G) of a bipartite graph, computed by exact graded linear algebra.

S(G) is generated by one variable per positive edge of G (an undirected edge
oriented from its even to its odd endpoint), with x_e^2 = 0, x reversed = -x,
and, for every cycle c, the relations given by the t-coefficients of
r_c(t) - 1 where

    r_c(t) = prod_i (1 + t * eps_i * x_{e_i}),

eps_i = +1 when the i-th step of the traversal runs along the positive
orientation and -1 otherwise.

The presentation uses only the |E| - |V| + 1 fundamental cycles of a
spanning tree, each traversed once.  They generate the same ideal as all
cycles in both directions: r is multiplicative along closed walks and a
backtrack contributes (1 + tx)(1 - tx) = 1, so every cycle's r is a product
of basis r's and their inverses (a reversed traversal gives r^-1); and
r1 r2 - 1 = (r1 - 1) r2 + (r2 - 1), r^-1 - 1 = -(r - 1) r^-1.

The graded structure (free rank and torsion per degree) is obtained degree
by degree: the degree-k piece of the relation ideal inside E(E_+) is spanned
by {monomial * relation}, and a Smith normal form of that span gives the
quotient's abelian-group structure.  No Groebner machinery is needed because
E(E_+) has finite rank and all relations are homogeneous.

S(C(n)) recovers R(n); for a hedgehog H(A) the ring is R(body) tensor
E(spines), which this module verifies against the independent presentation
R(n)/(x_i + x_{i+1} : i in A).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .combinatorics import sparse_count
from .exterior import ExtElement, r_poly, sigma
from .graphs import BiGraph, Hedgehog, hedgehog_analyze, make_standard
from .intlinalg import quotient_structure


@dataclass
class GraphRingPresentation:
    graph: BiGraph
    positive_edges: list[tuple]            # index i+1 <-> positive_edges[i]
    relations: list[ExtElement]            # homogeneous, over E(E_+)
    provenance: list[tuple]                # cycle vertex tuples, parallel


def _edge_index(G: BiGraph) -> dict[tuple, int]:
    return {e: i + 1 for i, e in enumerate(G.positive_edges())}


def cycle_relations(G: BiGraph) -> GraphRingPresentation:
    """Relations of S(G) from the fundamental cycles of a BFS spanning tree.

    The tree is rooted at ``G.vertices[0]`` and grown in positive-edge
    order.  Each non-tree edge {a, b} closes one cycle: the tree path from
    a to b, then the edge back to a.  Trees get no relations.
    """
    idx = _edge_index(G)
    m = len(idx)
    neighbours = {v: [] for v in G.vertices}
    for a, b in idx:
        neighbours[a].append(b)
        neighbours[b].append(a)
    root = G.vertices[0]
    parent, depth = {root: None}, {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if w not in parent:
                parent[w], depth[w] = v, depth[v] + 1
                queue.append(w)
    relations: list[ExtElement] = []
    provenance: list[tuple] = []
    for a, b in idx:
        if parent[a] == b or parent[b] == a:
            continue
        up_a, up_b = [a], [b]
        while up_a[-1] != up_b[-1]:
            up = up_a if depth[up_a[-1]] >= depth[up_b[-1]] else up_b
            up.append(parent[up[-1]])
        walk = up_a + up_b[-2::-1]
        variables, signs = [], []
        for u, v in zip(walk, walk[1:] + walk[:1]):
            positive = G.parity[u] == 0
            variables.append(idx[(u, v) if positive else (v, u)])
            signs.append(1 if positive else -1)
        coeffs = r_poly(variables, m, signs=signs)
        for k in range(1, len(coeffs)):
            if not coeffs[k].is_zero():
                relations.append(coeffs[k])
                provenance.append(tuple(walk))
    return GraphRingPresentation(G, G.positive_edges(), relations, provenance)


def graded_structure(G: BiGraph | GraphRingPresentation,
                     extra_relations: list[ExtElement] | None = None
                     ) -> list[tuple[int, list[int]]]:
    """Per-degree (free rank, torsion) of S(G); degree k means x-degree 2k."""
    pres = G if isinstance(G, GraphRingPresentation) else cycle_relations(G)
    m = len(pres.positive_edges)
    relations = pres.relations + list(extra_relations or [])
    out = []
    for k in range(m + 1):
        monomials = list(combinations(range(1, m + 1), k))
        col = {J: i for i, J in enumerate(monomials)}
        rows = []
        for rel in relations:
            d = rel.homogeneous_degree()
            if d is None or d > k:
                continue
            for M in combinations(range(1, m + 1), k - d):
                prod = ExtElement.monomial(M, m) * rel
                if not prod.is_zero():
                    rows.append({col[J]: c for J, c in prod.terms.items()})
        out.append(quotient_structure(rows, len(monomials)))
    return out


def structure_ranks(structure: list[tuple[int, list[int]]]) -> list[int]:
    return [rank for rank, _ in structure]


def has_torsion(structure: list[tuple[int, list[int]]]) -> bool:
    return any(tors for _, tors in structure)


def tensor_ranks(a: list[int], b: list[int]) -> list[int]:
    """Graded rank convolution of a tensor product of free graded groups."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# the hedgehog ring S(H(A)) two ways
# ---------------------------------------------------------------------------

def pinch_substitution(A: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """x_j -> (-1)^(j - rep(j)) x_rep(j), stepping j -> j-1 while j-1 in A."""
    Aset = set(A)
    mapping = {}
    upper = (max(A) + 2) if A else 1
    for j in range(1, upper):
        r, sign = j, 1
        while r - 1 in Aset:
            r -= 1
            sign = -sign
        if r != j:
            mapping[j] = (sign, r)
    return mapping


def expected_hedgehog_structure(h: Hedgehog) -> list[tuple[int, list[int]]]:
    """Graded structure of R(body) tensor E(spines): free, convolved ranks."""
    m, k = h.body_length, len(h.spine_indices)
    body = [sparse_count(m, j) for j in range(m + 1)]
    spines = [comb(k, j) for j in range(k + 1)]
    ranks = tensor_ranks(body, spines)
    return [(r, []) for r in ranks]


def pinched_ring_structure(n: int, A) -> list[tuple[int, list[int]]]:
    """Graded structure of R(n)/(x_i + x_{i+1} : i in A), degree by degree."""
    two_n = 2 * n
    relations = [sigma(k, range(1, two_n + 1), two_n) for k in range(1, two_n + 1)]
    for i in sorted(A):
        relations.append(ExtElement.variable(i, two_n)
                         + ExtElement.variable(i + 1, two_n))
    pres = GraphRingPresentation(
        graph=make_standard("C", n),
        positive_edges=[(i, i) for i in range(1, two_n + 1)],  # index bookkeeping only
        relations=relations,
        provenance=[()] * len(relations),
    )
    return graded_structure(pres)


def fold_relation_image(n: int, A, k: int) -> ExtElement:
    """Image of sigma_k(x_1..x_2n) under the pinch substitution."""
    two_n = 2 * n
    return sigma(k, range(1, two_n + 1), two_n).relabel_signed(
        pinch_substitution(tuple(sorted(A))))


def hedgehog_ring(n: int, A) -> dict:
    """Both computations of S(H(A)) and their comparison.

    * expected: graded ranks of R(body) tensor E(spines) from the pinch data;
    * direct:   Smith normal form of R(n) with the linear relations
      x_i + x_{i+1} (i in A) adjoined.

    Also checks that the pinch substitution sends the cycle relation
    coefficients sigma_k(x_1..x_2n) to the body-cycle coefficients
    sigma_k(body representatives): spine contributions cancel in pairs.
    """
    h = hedgehog_analyze(n, A)
    expected = expected_hedgehog_structure(h)
    direct = pinched_ring_structure(n, A)
    top = len(expected) - 1
    trimmed = direct[: top + 1]
    tail_trivial = all(rank == 0 and not tors for rank, tors in direct[top + 1:])

    # The pinch substitution must send prod_i (1 + t x_i) to the body-cycle
    # polynomial: spine fibres contribute (1+tx)^a (1-tx)^a = 1, body fibres
    # a net (1 +- t x_rep).  Read the net signs off the image of sigma_1,
    # then compare every higher coefficient against the signed body sigma_k.
    two_n = 2 * n
    net = fold_relation_image(n, A, 1)
    relation_ok = True
    body_reps = tuple(sorted(h.body_indices))
    signs = []
    for rep in body_reps:
        c = net.coefficient((rep,))
        if c not in (1, -1):
            relation_ok = False
        signs.append(c if c in (1, -1) else 1)
    if any(J and J[0] in h.spine_indices for J in net.terms):
        relation_ok = False
    signed_body = r_poly(body_reps, two_n, signs=signs)
    for k in range(1, two_n + 1):
        img = fold_relation_image(n, A, k)
        want = signed_body[k] if k < len(signed_body) else ExtElement.zero(two_n)
        if img != want:
            relation_ok = False
    return {
        "n": n,
        "pinch": tuple(sorted(A)),
        "hedgehog": h,
        "expected": expected,
        "direct": direct,
        "match": trimmed == expected and tail_trivial,
        "relation_image_ok": relation_ok,
    }
