"""The combinatorial model Y(G) and its integral simplicial cohomology.

Y(G) is a union, over the tree foldings of G, of products of 2-spheres
glued along diagonal inclusions.  A folding p of a bipartite graph G
with c(p) edge classes contributes the maps from the positive edges of
G to the sphere that are constant on the classes of p: a copy of the
c(p)-fold sphere power, pulled back along the class map.  (Foldings
preserve the even-to-odd orientation of edges, so no sign twisting is
needed when pulling values back.)  A chain that mixes two foldings is
not a simplex: the space is the union of the products, not the
realization of the union poset.

The sphere is a model given as data in ``SPHERE_MODELS``, a vertex
poset with its order:

* ``"octahedron"``: P = {-3, -2, -1, 1, 2, 3} with u < v iff |u| < |v|,
  whose order complex is the octahedral triangulation of the 2-sphere;
* ``"small"``: the chain 0 < 1 < 2 < 3, read as the boundary of the
  3-simplex, which has far fewer simplices in its powers.

One rule triangulates the c-fold power of either model: a simplex is a
chain of vertex c-tuples, strictly increasing in the componentwise
order, whose every coordinate takes at most three distinct values.
Every chain of P has at most three elements, so for the octahedron the
rule never fires and the power is the order complex of P^c; for the
4-vertex chain it removes exactly the missing face {0, 1, 2, 3} of the
boundary of the 3-simplex (the staircase triangulation).
``staircase_product_complex`` is the only code that enumerates these
chains, and ``y_complex`` the only code that unions their pull-backs.
A coordinatewise homotopy equivalence of the two sphere models commutes
with every diagonal, so the two unions are homotopy equivalent and have
the same cohomology.

Cohomology is computed from the simplices: the coboundary matrices are
fed to the exact Smith-normal-form engine.  For a tree T with k positive
edges, Y(T) is the full power (S^2)^k, whose cohomology is obtained from
the octahedron by the graded tensor product, which is exact over the
integers because every factor is free.  Other graphs are computed
directly, subject to a configurable simplex budget.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product

from .graph_rings import graded_structure, structure_ranks, tensor_ranks
from .graphs import BiGraph, enumerate_tree_foldings, is_tree, partition_map
from .intlinalg import snf_invariants

SIMPLEX_BUDGET = 5 * 10 ** 6

OCT_ELEMENTS = (-3, -2, -1, 1, 2, 3)
TET_VERTICES = (0, 1, 2, 3)


def oct_leq(u: int, v: int) -> bool:
    return u == v or abs(u) < abs(v)


def oct_chi(u: int) -> int:
    return -u


# sphere model -> (vertex poset, its order)
SPHERE_MODELS = {
    "octahedron": (OCT_ELEMENTS, oct_leq),
    "small": (TET_VERTICES, operator.le),
}


# ---------------------------------------------------------------------------
# sphere powers and their union Y(G)
# ---------------------------------------------------------------------------

def _refuse(what: str, total: int, budget: int):
    raise ValueError(f"{what} exceeds the simplex budget "
                     f"({total}+ > {budget})")


@lru_cache(maxsize=None)
def staircase_product_complex(c: int, model: str = "small",
                              budget: int = SIMPLEX_BUDGET):
    """The c-fold power of a sphere model, by dimension.

    Simplices are the chains of vertex c-tuples, strictly increasing in
    the componentwise order, that take at most three distinct values in
    every coordinate (see the module docstring).  Refuses as soon as the
    running count of chains passes ``budget``.

    Memoised, since ``y_complex`` asks for it once per folding; the
    levels are tuples so that no caller can alter the cached value.
    """
    if model not in SPHERE_MODELS:
        raise ValueError(f"unknown sphere model {model!r}")
    elements, leq = SPHERE_MODELS[model]
    vertices = list(product(elements, repeat=c))
    above = {v: [w for w in vertices if w != v and all(map(leq, v, w))]
             for v in vertices}
    total = len(vertices)
    if total > budget:
        _refuse("product complex", total, budget)
    levels: list[tuple[tuple, ...]] = []
    frontier = [(v,) for v in vertices]
    while frontier:
        levels.append(tuple(sorted(frontier)))
        nxt = []
        for chain in frontier:
            used = [set(col) for col in zip(*chain)]
            for w in above[chain[-1]]:
                if all(len(u | {x}) <= 3 for u, x in zip(used, w)):
                    total += 1
                    if total > budget:
                        _refuse("product complex", total, budget)
                    nxt.append(chain + (w,))
        frontier = nxt
    return tuple(levels)


def y_complex(G: BiGraph, budget: int = SIMPLEX_BUDGET,
              model: str = "octahedron"):
    """The simplicial model of Y(G) over a sphere model, by dimension.

    Each tree folding contributes its sphere power, pulled back along
    the map from positive edges to folding classes; the model is the
    union of these subcomplexes.  Refuses once the running count of
    pulled-back simplices passes ``budget``.
    """
    edges = G.positive_edges()
    levels: list[set[tuple]] = []
    total = 0
    for p in enumerate_tree_foldings(G, "any"):
        pmap = partition_map(p)
        fibre_key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(fibre_key))
        pull = [classes.index(k) for k in fibre_key]
        power = staircase_product_complex(len(classes), model, budget)
        for k, level in enumerate(power):
            if k == len(levels):
                levels.append(set())
            levels[k].update(tuple(tuple(v[i] for i in pull) for v in chain)
                             for chain in level)
            total += len(level)
            if total > budget:
                _refuse("Y-complex", total, budget)
    return [sorted(level) for level in levels]


# ``perfbench/spans.py`` traces this name, so it stays as a delegate.
def y_small_complex(G: BiGraph, budget: int = SIMPLEX_BUDGET):
    return y_complex(G, budget, "small")


# ---------------------------------------------------------------------------
# order complexes and cohomology
# ---------------------------------------------------------------------------

def order_complex(elements, leq, budget: int = SIMPLEX_BUDGET):
    """Chains of a finite poset, by dimension.

    Returns a list ``simplices`` where ``simplices[k]`` is the sorted
    list of (k+1)-tuples of element indices forming chains.  Refuses
    with an estimate when the total would exceed ``budget``.  This is
    the generic poset builder; Y(G) is built by ``y_complex``.
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
            _refuse("order complex", total, budget)
        simplices.append(sorted(frontier))
        # estimate the next level before materializing it
        nxt = sum(len(above[chain[-1]]) for chain in frontier)
        if total + nxt > budget:
            if nxt:
                _refuse("order complex", total + nxt, budget)
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


def integral_cohomology(simplices) -> list[tuple[int, list[int]]]:
    """H^k over Z per degree: (free rank, torsion divisors)."""
    out = []
    prev_divisors: list[int] = []
    prev_rank = 0
    for k in range(len(simplices)):
        divisors = snf_invariants(*coboundary_rows(simplices, k))
        rank_out = len(divisors)
        free = len(simplices[k]) - rank_out - prev_rank
        torsion = [d for d in prev_divisors if d > 1]
        out.append((free, torsion))
        prev_divisors = divisors
        prev_rank = rank_out
    return out


@lru_cache(maxsize=None)
def octahedron_cohomology() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """H^* of the order complex of P, computed directly (a 2-sphere)."""
    structure = integral_cohomology(order_complex(OCT_ELEMENTS, oct_leq))
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
                   model: str = "octahedron", complex_=None) -> dict:
    """Graded comparison of S(G) with H^*(Y(G)).

    S-degree k is matched against cohomological degree 2k, and all odd
    cohomology must vanish.  For trees the product structure
    Y(T) = P^k is used (with the octahedron factor still computed
    directly); other graphs get the full simplicial computation over
    the sphere model ``model``, on ``complex_`` when the caller has
    already built ``y_complex(G, budget, model)``.
    """
    s_structure = graded_structure(G)
    s_ranks = structure_ranks(s_structure)
    k = len(G.positive_edges())
    if is_tree(G):
        h = tree_y_cohomology(k)
        route = "product"
        y_size = 6 ** k
    else:
        if complex_ is None:
            complex_ = y_complex(G, budget, model)
        route = "direct-small" if model == "small" else "direct"
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
