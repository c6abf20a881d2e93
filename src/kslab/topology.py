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
fed to the exact Smith-normal-form engine, in increasing degree and
with clearing.  The SNF of delta_k reports the (k+1)-simplices whose
columns its echelon pass took as +-1 pivots; their rows are left out of
delta_(k+1).  Over Z this is exact: the unit pivots put e_tau + (terms
at (k+1)-simplices that are not pivots) into im delta_k for each such
tau, and delta_(k+1) delta_k = 0 makes the row of tau an integer
combination of the rows that are kept (see ``intlinalg``).  The row
lattice, and with it every invariant factor, rank and torsion group, is
unchanged.

For a tree T with k positive edges, Y(T) is the full power (S^2)^k,
whose cohomology is obtained from the octahedron by the graded tensor
product, which is exact over the integers because every factor is free.
Other graphs are computed directly, subject to a configurable simplex
budget.  The budget is checked once, by ``y_complex`` before anything
is built, on an exact count: the c-fold power has
sum_{j<=L} (-1)^j C(L, j) a(L-j)^c simplices of dimension L, where
a(m) = sum_{d<=3} chains_d(P) C(m, d-1) and chains_d(P) is the number
of d-element chains of P (6, 12, 8 for the octahedron; 4, 6, 4 for the
small model); see ``staircase_f_vector``.  Y(G) is refused when these
counts, summed over all foldings, pass the budget.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product
from math import comb

from .graph_rings import graded_structure, structure_ranks, tensor_ranks
from .graphs import BiGraph, enumerate_tree_foldings, is_tree, partition_map
from .intlinalg import snf_invariants

SIMPLEX_BUDGET = 5 * 10 ** 6

OCT_ELEMENTS = (-3, -2, -1, 1, 2, 3)
TET_VERTICES = (0, 1, 2, 3)


def oct_leq(u: int, v: int) -> bool:
    return u == v or abs(u) < abs(v)


# sphere model -> (vertex poset, its order)
SPHERE_MODELS = {
    "octahedron": (OCT_ELEMENTS, oct_leq),
    "small": (TET_VERTICES, operator.le),
}


# ---------------------------------------------------------------------------
# sphere powers and their union Y(G)
# ---------------------------------------------------------------------------

def _sphere_model(model: str):
    if model not in SPHERE_MODELS:
        raise ValueError(f"unknown sphere model {model!r}")
    return SPHERE_MODELS[model]


@lru_cache(maxsize=None)
def _model_chains(model: str) -> tuple[int, ...]:
    """(chains of 1, 2 and 3 elements) of a sphere model's vertex poset."""
    return f_vector(order_complex(*_sphere_model(model)))[:3]


def staircase_f_vector(c: int, model: str = "small") -> tuple[int, ...]:
    """The f-vector of ``staircase_product_complex(c, model)``, exactly,
    without building it.

    A coordinate of an L-simplex is a weakly increasing sequence of L + 1
    vertices.  Its values form a chain of d <= 3 elements, which the
    sequence climbs in one of C(L, d-1) ways, so there are
    a(L) = sum_d chains_d * C(L, d-1) such sequences.  The L steps of the
    simplex must not be equalities in every coordinate; inclusion-exclusion
    over the steps that are gives sum_j (-1)^j C(L, j) a(L-j)^c L-simplices.
    """
    chains = _model_chains(model)

    def a(m: int) -> int:
        return sum(count * comb(m, d - 1)
                   for d, count in enumerate(chains, 1))

    return tuple(sum((-1) ** j * comb(L, j) * a(L - j) ** c
                     for j in range(L + 1))
                 for L in range(2 * c + 1))


@lru_cache(maxsize=None)
def staircase_product_complex(c: int, model: str = "small"):
    """The c-fold power of a sphere model, by dimension.

    Simplices are the chains of vertex c-tuples, strictly increasing in
    the componentwise order, that take at most three distinct values in
    every coordinate (see the module docstring).  Its size is
    ``staircase_f_vector(c, model)``, which ``y_complex`` checks against
    the budget before it asks for any power.

    Memoised, since ``y_complex`` asks for it once per folding; the
    levels are tuples so that no caller can alter the cached value.
    """
    elements, leq = _sphere_model(model)
    vertices = list(product(elements, repeat=c))
    above = {v: [w for w in vertices if w != v and all(map(leq, v, w))]
             for v in vertices}
    levels: list[tuple[tuple, ...]] = []
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


def y_complex(G: BiGraph, budget: int = SIMPLEX_BUDGET,
              model: str = "octahedron"):
    """The simplicial model of Y(G) over a sphere model, by dimension.

    Each tree folding contributes its sphere power, pulled back along
    the map from positive edges to folding classes; the model is the
    union of these subcomplexes.  Refuses, before building anything,
    when the sphere powers hold more than ``budget`` simplices in all
    (``staircase_f_vector``).  Each power is pulled back through a map
    on its vertices, so a chain maps vertex by vertex.
    """
    edges = G.positive_edges()
    pulls = []  # per folding: its class count, and each edge's class
    for p in enumerate_tree_foldings(G):
        pmap = partition_map(p)
        fibre_key = [tuple(sorted((pmap[e[0]], pmap[e[1]]))) for e in edges]
        classes = sorted(set(fibre_key))
        pulls.append((len(classes), [classes.index(k) for k in fibre_key]))
    total = sum(sum(staircase_f_vector(c, model)) for c, _ in pulls)
    if total > budget:
        raise ValueError("Y-complex exceeds the simplex budget "
                         f"({total} > {budget})")
    levels: list[set[tuple]] = []
    for c, pull in pulls:
        power = staircase_product_complex(c, model)
        vmap = {v: tuple(v[i] for i in pull) for (v,) in power[0]}
        for k, level in enumerate(power):
            if k == len(levels):
                levels.append(set())
            levels[k].update(tuple(map(vmap.__getitem__, chain))
                             for chain in level)
    return [sorted(level) for level in levels]


# ``perfbench/spans.py`` traces this name, so it stays as a delegate.
def y_small_complex(G: BiGraph, budget: int = SIMPLEX_BUDGET):
    return y_complex(G, budget, "small")


# ---------------------------------------------------------------------------
# order complexes and cohomology
# ---------------------------------------------------------------------------

def order_complex(elements, leq):
    """Chains of a finite poset, by dimension.

    Returns a list ``simplices`` where ``simplices[k]`` is the sorted
    list of (k+1)-tuples of element indices forming chains.  The package
    builds it only for the small vertex posets of the sphere models;
    Y(G) is built by ``y_complex``.
    """
    m = len(elements)
    above = [[j for j in range(m) if j != i
              and leq(elements[i], elements[j])] for i in range(m)]
    simplices: list[list[tuple[int, ...]]] = []
    frontier = [(i,) for i in range(m)]
    while frontier:
        simplices.append(sorted(frontier))
        frontier = [chain + (j,) for chain in frontier for j in above[chain[-1]]]
    return simplices


def f_vector(simplices) -> tuple[int, ...]:
    return tuple(len(s) for s in simplices)


def euler_characteristic(simplices) -> int:
    return sum((-1) ** k * len(s) for k, s in enumerate(simplices))


def coboundary_rows(simplices, k: int, cleared=()):
    """Matrix of delta: C^k -> C^(k+1) as rows over the (k+1)-simplex basis.

    The rows of the k-simplices whose indices are in ``cleared`` are left
    out; the other rows keep their order.
    """
    if k + 1 >= len(simplices):
        return [], 0
    skip = set(cleared)
    rows: dict[tuple, dict[int, int]] = {
        s: {} for i, s in enumerate(simplices[k]) if i not in skip}
    for j, tau in enumerate(simplices[k + 1]):
        for i in range(len(tau)):
            row = rows.get(tau[:i] + tau[i + 1:])
            if row is not None:
                row[j] = row.get(j, 0) + (-1) ** i
    return list(rows.values()), len(simplices[k + 1])


def integral_cohomology(simplices) -> list[tuple[int, list[int]]]:
    """H^k over Z per degree: (free rank, torsion divisors).

    Each delta_k is reduced without the rows that the unit pivots of
    delta_(k-1) clear (see the module docstring).
    """
    out = []
    prev_divisors: list[int] = []
    prev_rank = 0
    cleared: list[int] = []
    for k in range(len(simplices)):
        pivots: list[int] = []
        divisors = snf_invariants(*coboundary_rows(simplices, k, cleared),
                                  pivots)
        rank_out = len(divisors)
        free = len(simplices[k]) - rank_out - prev_rank
        torsion = [d for d in prev_divisors if d > 1]
        out.append((free, torsion))
        prev_divisors = divisors
        prev_rank = rank_out
        cleared = pivots
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
    already built ``y_complex(G, budget, model)``.  The route runs
    first, so a complex over the budget is refused before S(G) is
    computed.
    """
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
    s_structure = graded_structure(G)
    s_ranks = structure_ranks(s_structure)
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
