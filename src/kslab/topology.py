"""The combinatorial model Y(G) and its integral simplicial cohomology.

The building block is the six-element poset P = {-3, -2, -1, 1, 2, 3}
with u < v iff |u| < |v|; its order complex is the octahedral
triangulation of the 2-sphere.  For a bipartite graph G, the poset
Y(G) consists of the maps from the positive edges of G to P that are
constant on the fibres of at least one tree folding of G, ordered
componentwise.  (Foldings preserve the even-to-odd orientation of
edges, so no sign twisting is needed when pulling values back.)

Cohomology is computed from the order complex: simplices are the
nonempty chains, and the coboundary matrices are fed to the exact
Smith-normal-form engine.  For a tree T with k positive edges the
poset Y(T) is the full product P^k, whose order complex triangulates
(S^2)^k; its cohomology is obtained from the octahedron by the graded
tensor product, which is exact over the integers because every factor
is free.  Non-product posets (cycles, unions) are computed directly,
subject to a configurable simplex budget.

For graphs whose octahedral model is too large, ``y_small_complex``
swaps the sphere model for the 4-vertex boundary of the 3-simplex.
Both models are unions, over the constancy partitions, of products of
2-spheres glued along diagonal inclusions; a coordinatewise homotopy
equivalence of the two sphere models commutes with every diagonal, so
the two unions are homotopy equivalent and have the same cohomology.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .graph_rings import graded_structure, structure_ranks, tensor_ranks
from .graphs import BiGraph, enumerate_tree_foldings, is_tree, partition_map
from .intlinalg import rank, snf_invariants

SIMPLEX_BUDGET = 5 * 10 ** 6

OCT_ELEMENTS = (-3, -2, -1, 1, 2, 3)


def oct_leq(u: int, v: int) -> bool:
    return u == v or abs(u) < abs(v)


def oct_chi(u: int) -> int:
    return -u


# ---------------------------------------------------------------------------
# the poset Y(G)
# ---------------------------------------------------------------------------

def y_elements(G: BiGraph) -> tuple[tuple[int, ...], ...]:
    """All maps E_+ -> P constant on the fibres of some tree folding.

    Values are recorded against the sorted list ``G.positive_edges()``.
    """
    edges = G.positive_edges()
    found: set[tuple[int, ...]] = set()
    for p in enumerate_tree_foldings(G, "any"):
        pmap = partition_map(p)
        # group positive edges by their image in the quotient
        fibre_key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(fibre_key))
        for values in product(OCT_ELEMENTS, repeat=len(classes)):
            val = dict(zip(classes, values))
            found.add(tuple(val[k] for k in fibre_key))
    return tuple(sorted(found))


def y_leq(a, b) -> bool:
    return all(oct_leq(u, v) for u, v in zip(a, b))


def y_complex(G: BiGraph, budget: int = SIMPLEX_BUDGET):
    """The simplicial model of Y(G): a union of product subcomplexes.

    Each tree folding p contributes the order complex of its pullback
    subposet (all maps constant on p-fibres); the model is the union of
    these subcomplexes inside the full chain complex of P^{E_+}.  A
    chain mixing two foldings is *not* a simplex: the space Y(G) is a
    union of products of spheres, not the realization of the union
    poset.
    """
    edges = G.positive_edges()
    simplices: list[set[tuple]] = []
    total = 0
    for p in enumerate_tree_foldings(G, "any"):
        pmap = partition_map(p)
        fibre_key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(fibre_key))
        sub_elements = list(product(OCT_ELEMENTS, repeat=len(classes)))
        sub = order_complex(
            sub_elements,
            lambda a, b: all(oct_leq(u, v) for u, v in zip(a, b)),
            budget)
        expand = {cls: i for i, cls in enumerate(classes)}
        pull = [expand[k] for k in fibre_key]
        for k, level in enumerate(sub):
            if k >= len(simplices):
                simplices.append(set())
            for chain in level:
                total += 1
                simplices[k].add(tuple(tuple(sub_elements[v][i] for i in pull)
                                       for v in chain))
            if total > budget:
                raise ValueError(f"Y-complex exceeds the simplex budget "
                                 f"({total}+ > {budget})")
    if sum(len(s) for s in simplices) > budget:
        raise ValueError("Y-complex exceeds the simplex budget")
    return [sorted(level) for level in simplices]


# ---------------------------------------------------------------------------
# the small-sphere model
# ---------------------------------------------------------------------------

TET_VERTICES = (0, 1, 2, 3)


@lru_cache(maxsize=None)
def staircase_product_complex(c: int, budget: int = SIMPLEX_BUDGET):
    """Staircase triangulation of the c-fold product of the minimal 2-sphere.

    The boundary of the 3-simplex (4 vertices, every proper subset of
    the vertex set is a face) triangulates S^2 with far fewer simplices
    than the octahedron.  Simplices of the product are the strictly
    increasing ladders in the componentwise order whose coordinate
    projections are faces, i.e. never use all four vertices in one
    coordinate.

    Memoised, since ``y_small_complex`` asks for it once per folding; the
    levels are tuples so that no caller can alter the cached value.
    """
    vertices = list(product(TET_VERTICES, repeat=c))
    above = {v: [w for w in vertices
                 if w != v and all(a <= b for a, b in zip(v, w))]
             for v in vertices}
    simplices: list[tuple[tuple, ...]] = []
    total = 0
    frontier = [(v,) for v in vertices]
    while frontier:
        total += len(frontier)
        if total > budget:
            raise ValueError(f"product complex exceeds the simplex budget "
                             f"({total}+ > {budget})")
        simplices.append(tuple(sorted(frontier)))
        nxt = []
        for chain in frontier:
            used = [set(col) for col in zip(*chain)]
            for w in above[chain[-1]]:
                if all(len(u | {x}) < 4 for u, x in zip(used, w)):
                    nxt.append(chain + (w,))
        frontier = nxt
    return tuple(simplices)


def y_small_complex(G: BiGraph, budget: int = SIMPLEX_BUDGET):
    """Union-of-subcomplexes model of Y(G) over the 4-vertex sphere.

    Homotopy equivalent to the octahedral model: both are colimits of
    the same diagram of diagonal inclusions of sphere powers, and a
    coordinatewise homotopy equivalence of the sphere models commutes
    with every map of the diagram.  Used for graphs whose octahedral
    model would blow the simplex budget.
    """
    edges = G.positive_edges()
    simplices: list[set[tuple]] = []
    total = 0
    for p in enumerate_tree_foldings(G, "any"):
        pmap = partition_map(p)
        fibre_key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(fibre_key))
        sub = staircase_product_complex(len(classes), budget)
        expand = {cls: i for i, cls in enumerate(classes)}
        pull = [expand[k] for k in fibre_key]
        for k, level in enumerate(sub):
            if k >= len(simplices):
                simplices.append(set())
            for chain in level:
                total += 1
                simplices[k].add(tuple(tuple(v[i] for i in pull)
                                       for v in chain))
            if total > budget:
                raise ValueError(f"Y-complex exceeds the simplex budget "
                                 f"({total}+ > {budget})")
    return [sorted(level) for level in simplices]


# ---------------------------------------------------------------------------
# order complexes and cohomology
# ---------------------------------------------------------------------------

def order_complex(elements, leq, budget: int = SIMPLEX_BUDGET):
    """Chains of a finite poset, by dimension.

    Returns a list ``simplices`` where ``simplices[k]`` is the sorted
    list of (k+1)-tuples of element indices forming chains.  Refuses
    with an estimate when the total would exceed ``budget``.
    """
    m = len(elements)
    above = [[j for j in range(m) if j != i
              and leq(elements[i], elements[j])] for i in range(m)]
    simplices: list[list[tuple[int, ...]]] = []
    total = 0
    frontier = [(i,) for i in range(m)]
    while frontier:
        total += len(frontier)
        if total > budget:
            raise ValueError(f"order complex exceeds the simplex budget "
                             f"({total}+ > {budget})")
        simplices.append(sorted(frontier))
        # estimate the next level before materializing it
        nxt = sum(len(above[chain[-1]]) for chain in frontier)
        if total + nxt > budget:
            if nxt:
                raise ValueError(f"order complex exceeds the simplex budget "
                                 f"({total + nxt}+ > {budget})")
            break
        frontier = [chain + (j,) for chain in frontier for j in above[chain[-1]]]
    return simplices


def f_vector(simplices) -> tuple[int, ...]:
    return tuple(len(s) for s in simplices)


def euler_characteristic(simplices) -> int:
    return sum((-1) ** k * len(s) for k, s in enumerate(simplices))


def coboundary_rows(simplices, k: int):
    """Matrix of delta: C^k -> C^(k+1) as rows over the (k+1)-simplex basis."""
    if k + 1 >= len(simplices):
        return [], 0
    col = {s: i for i, s in enumerate(simplices[k + 1])}
    index = {s: i for i, s in enumerate(simplices[k])}
    rows: list[dict[int, int]] = [dict() for _ in simplices[k]]
    for tau, j in col.items():
        for i in range(len(tau)):
            face = tau[:i] + tau[i + 1:]
            rows[index[face]][j] = rows[index[face]].get(j, 0) + (-1) ** i
    return rows, len(simplices[k + 1])


def _cohomology_from_coboundaries(levels, coboundary):
    out = []
    prev_divisors: list[int] = []
    prev_rank = 0
    for k in range(len(levels)):
        rows, ncols = coboundary(k)
        divisors = snf_invariants(rows, ncols)
        rank_out = len(divisors)
        free = len(levels[k]) - rank_out - prev_rank
        torsion = [d for d in prev_divisors if d > 1]
        out.append((free, torsion))
        prev_divisors = divisors
        prev_rank = rank_out
    return out


def integral_cohomology(simplices) -> list[tuple[int, list[int]]]:
    """H^k over Z per degree: (free rank, torsion divisors)."""
    return _cohomology_from_coboundaries(
        simplices, lambda k: coboundary_rows(simplices, k))


def poset_cohomology(elements, leq, budget: int = SIMPLEX_BUDGET):
    return integral_cohomology(order_complex(elements, leq, budget))


@lru_cache(maxsize=None)
def octahedron_cohomology() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """H^* of the order complex of P, computed directly (a 2-sphere)."""
    structure = poset_cohomology(OCT_ELEMENTS, oct_leq)
    return tuple((r, tuple(t)) for r, t in structure)


def tensor_structure(a, b):
    """Graded tensor product of two free graded groups (exact over Z)."""
    if any(t for _, t in a) or any(t for _, t in b):
        raise ValueError("tensor shortcut requires torsion-free factors")
    ranks = tensor_ranks([r for r, _ in a], [r for r, _ in b])
    return [(r, []) for r in ranks]


def tree_y_cohomology(k: int) -> list[tuple[int, list[int]]]:
    """H^*(Y(T)) for a tree with k positive edges: the k-fold sphere product."""
    out = [(1, [])]
    oct_h = [(r, list(t)) for r, t in octahedron_cohomology()]
    for _ in range(k):
        out = tensor_structure(out, oct_h)
    return out


# ---------------------------------------------------------------------------
# comparison with S(G)
# ---------------------------------------------------------------------------

def compare_with_S(G: BiGraph, budget: int = SIMPLEX_BUDGET,
                   product_shortcut: bool = True,
                   model: str = "octahedron") -> dict:
    """Graded comparison of S(G) with H^*(Y(G)).

    S-degree k is matched against cohomological degree 2k, and all odd
    cohomology must vanish.  For trees the product structure
    Y(T) = P^k is used (with the octahedron factor still computed
    directly); other graphs get the full simplicial computation.
    """
    s_structure = graded_structure(G)
    s_ranks = structure_ranks(s_structure)
    k = len(G.positive_edges())
    if product_shortcut and is_tree(G):
        h = tree_y_cohomology(k)
        route = "product"
        y_size = 6 ** k
    else:
        if model == "small":
            complex_ = y_small_complex(G, budget)
            route = "direct-small"
        else:
            complex_ = y_complex(G, budget)
            route = "direct"
        y_size = len(complex_[0])
        h = integral_cohomology(complex_)
    h = h + [(0, [])] * max(0, 2 * len(s_ranks) - len(h))
    even = [h[2 * i][0] for i in range(len(s_ranks))]
    odd_zero = all(r == 0 and not t for j, (r, t) in enumerate(h) if j % 2)
    torsion_free = all(not t for _, t in h)
    s_torsion_free = all(not t for _, t in s_structure)
    match = (even == s_ranks and odd_zero and torsion_free
             and s_torsion_free)
    return {"graph_edges": k, "route": route, "y_size": y_size,
            "s_ranks": s_ranks, "cohomology": h,
            "odd_vanishes": odd_zero, "torsion_free": torsion_free,
            "match": match}
