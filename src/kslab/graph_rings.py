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
by degree: the degree-k piece I_k of the relation ideal inside E(E_+) is
spanned by {M * r : |M| = k - deg r}, and a Smith normal form of that span
gives the quotient's abelian-group structure.  No Groebner machinery is
needed because E(E_+) has finite rank and all relations are homogeneous.

The reduction stops at the first degree k whose piece is (0, []), i.e.
I_k = E_k, and reports (0, []) for every later degree.  This is exact:
every monomial of degree k+1 is x_i times one of degree k, and x_i (M r)
= (x_i M) r is a spanning element of I_(k+1), so I_(k+1) = E_(k+1), and by
induction every later piece is 0.  A piece with free rank 0 but torsion
does not stop the reduction.  Every relation of a presentation is a
{mask: coefficient} polynomial (bit j-1 for x_j): the coefficients of r(t)
are products in E(E_+) (``exterior.r_poly``), read off as masks once when
the presentation is built.  M * r is read off the terms of r as the row
{col[M | J]: c for J with M & J = 0}, whose supports are distinct, so no
term cancels.

Before the degree loop, unit linear relations are eliminated.  Each basis
cycle gives a degree-1 relation with +-1 coefficients, and so does each
pinch x_i + x_{i+1}, so the ring needs only about |V| - 1 of its |E_+|
generators, and the SNFs over E(E_+) are larger than they need be.
While some degree-1 relation l = c_j x_j + sum_{i != j} c_i x_i has
c_j = +-1, x_j is replaced by L = -c_j sum_{i != j} c_i x_i in every other
relation (E is commutative, so no signs arise; a monomial that repeats a
variable dies), and l and every relation that became zero are dropped.
This is exact: the substitution psi: Z[x] -> Z[x'], x' = x minus x_j,
is onto with kernel (l), so

    Z[x]/(x_i^2, l, R) = Z[x']/(x_i^2 for i != j, psi(x_j^2), psi(R)),

a graded isomorphism, and every (rank, torsion) piece is unchanged.  The
square psi(x_j^2) = L^2 = 2 sum_{i<k} c_i c_k x_i x_k is not 0 in E(x')
once L has two terms, and is kept as a degree-2 relation: E(3)/(x1 + x2 +
x3) has Z/2 in degree 2, from 2 x1 x2.  The survivors are renumbered in
order, and the degrees above their number m' are 0.

S(C(n)) recovers R(n); for a hedgehog H(A) the ring is R(body) tensor
E(spines), which this module verifies against R(n)/(x_i + x_{i+1} : i in A)
presented by the pinches and the images psi(sigma_k) under the pinch
substitution psi (tests/test_graph_rings.py checks that presentation against
sigma_1..sigma_2n of all 2n variables up to n = 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .combinatorics import sparse_count
from .exterior import r_poly
from .graphs import BiGraph, Hedgehog, bfs, hedgehog_analyze, pinch_set
from .intlinalg import quotient_structure

# the degree loop of a pinched ring runs over E(m') for the m' variables
# left after the unit linear relations; fold --n 6 --pinch 1 (m' = 10)
# takes 0.5 s, and fold --n 6 (m' = 11) 15 s, nearly all in the dense SNF
PINCHED_VARIABLE_CAP = 10


@dataclass
class GraphRingPresentation:
    nvars: int                         # the variables x_1..x_nvars
    relations: list[dict[int, int]]    # {mask: nonzero coeff}, homogeneous
    provenance: list[tuple]            # cycle vertex tuples, parallel


def r_masks(variables, signs) -> list[dict[int, int]]:
    """t-coefficients of r(t) = prod_i (1 + t * sign_i * x_i) as masks.

    Entry k is sigma_k of the signed variables (``exterior.r_poly``), its
    terms in the order r_poly inserts them; that order decides which
    variable a unit linear relation is solved for
    (``_eliminate_unit_relations``).
    """
    variables = tuple(variables)
    return [{sum(1 << (j - 1) for j in J): c for J, c in p.terms.items()}
            for p in r_poly(variables, max(variables, default=0), signs)]


def cycle_relations(G: BiGraph) -> GraphRingPresentation:
    """Relations of S(G) from the fundamental cycles of a BFS spanning tree.

    The tree is rooted at ``G.vertices[0]`` and grown in positive-edge
    order (``graphs.bfs`` over ``G.adjacency``).  Each non-tree edge {a, b} closes one cycle: the tree path from
    a to b, then the edge back to a.  Trees get no relations.
    """
    idx = {e: i + 1 for i, e in enumerate(G.positive_edges())}
    parent, depth = bfs(G.adjacency, G.vertices[0])
    relations: list[dict[int, int]] = []
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
        for rel in r_masks(variables, signs)[1:]:
            if rel:
                relations.append(rel)
                provenance.append(tuple(walk))
    return GraphRingPresentation(len(idx), relations, provenance)


def _eliminate_unit_relations(relations):
    """Substitute away the variables that unit linear relations solve for.

    ``relations`` is a list of (degree, [(mask, coeff)]); the substitution
    and the appended L^2 are those of the module docstring.  Returns the
    remaining relations and the mask of the eliminated bits.
    """
    gone = 0
    while True:
        unit = next(((pos, bit, c) for pos, (d, terms) in enumerate(relations)
                     if d == 1 for bit, c in terms if c in (1, -1)), None)
        if unit is None:
            return relations, gone
        pos, bit, cj = unit
        L = [(b, -cj * c) for b, c in relations[pos][1] if b != bit]
        gone |= bit
        out = []
        for d, terms in relations[:pos] + relations[pos + 1:]:
            if any(M & bit for M, _ in terms):
                acc: dict[int, int] = {}
                for M, c in terms:
                    if M & bit:
                        rest = M ^ bit
                        for b, a in L:
                            if not rest & b:
                                acc[rest | b] = acc.get(rest | b, 0) + c * a
                    else:
                        acc[M] = acc.get(M, 0) + c
                terms = [(M, c) for M, c in acc.items() if c]
            if terms:
                out.append((d, terms))
        if len(L) > 1:
            out.append((2, [(a | b, 2 * ca * cb)
                            for (a, ca), (b, cb) in combinations(L, 2)]))
        relations = out


def graded_structure(G: BiGraph | GraphRingPresentation
                     ) -> list[tuple[int, list[int]]]:
    """Per-degree (free rank, torsion) of S(G); degree k means x-degree 2k.

    Zero relations are skipped; a nonzero relation of mixed degree raises
    ``ValueError``.  Each variable that a degree-1 relation with a +-1
    coefficient solves for is substituted away first, L^2 kept (see the
    module docstring); the degree loop then runs over E of the m'
    survivors, and degrees m'+1..m are (0, []).
    """
    pres = G if isinstance(G, GraphRingPresentation) else cycle_relations(G)
    m = pres.nvars
    relations = []                         # (degree, [(mask, coeff)])
    for rel in pres.relations:
        degrees = {M.bit_count() for M in rel}
        if len(degrees) > 1:
            raise ValueError(f"relation {rel!r} is not homogeneous")
        if rel:
            relations.append((degrees.pop(), list(rel.items())))
    relations, gone = _eliminate_unit_relations(relations)
    keep = [1 << b for b in range(m) if not gone >> b & 1]
    relations = [(d, [(sum(1 << i for i, bit in enumerate(keep) if M & bit), c)
                      for M, c in terms]) for d, terms in relations]
    masks: list[list[int]] = []            # masks[k]: the degree-k monomials
    out = []
    for k in range(len(keep) + 1):
        masks.append([sum(1 << i for i in S)
                      for S in combinations(range(len(keep)), k)])
        col = {M: i for i, M in enumerate(masks[k])}
        rows = []
        for d, terms in relations:
            if d > k:
                continue
            for M in masks[k - d]:
                row = {col[M | J]: c for J, c in terms if not M & J}
                if row:
                    rows.append(row)
        out.append(quotient_structure(rows, len(masks[k])))
        if out[-1] == (0, []):
            break
    out.extend((0, []) for _ in range(len(out), m + 1))
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
    """x_j -> (-1)^(j - rep(j)) x_rep(j) for each j with j - 1 in A, where
    rep(j) = rep(j - 1); every other j is its own representative."""
    mapping = {}
    for i in sorted(A):
        sign, rep = mapping.get(i, (1, i))
        mapping[i + 1] = (-sign, rep)
    return mapping


def expected_hedgehog_structure(h: Hedgehog) -> list[tuple[int, list[int]]]:
    """Graded structure of R(body) tensor E(spines): free, convolved ranks."""
    m, k = h.body_length, len(h.spine_indices)
    body = [sparse_count(m, j) for j in range(m + 1)]
    spines = [comb(k, j) for j in range(k + 1)]
    ranks = tensor_ranks(body, spines)
    return [(r, []) for r in ranks]


def pinched_cycle_polynomial(n: int, A) -> list[dict[int, int]]:
    """Coefficients of prod_j (1 + t x_j), j = 1..2n, under the pinch
    substitution psi: ``r_masks`` of the substituted variables and signs.
    Refused with ``ValueError``, before ``r_masks`` runs, when more than
    ``PINCHED_VARIABLE_CAP`` variables of R(n)/(x_i + x_{i+1} : i in A)
    survive; that count takes O(|A|) steps, whatever n is."""
    mapping = pinch_substitution(pinch_set(n, A))
    # Each pinch row solves for one variable with a one-term L (no L^2),
    # which only relabels the images of psi.  After the pinches,
    # psi(sigma_1) = sum_r c_r x_r is the only linear relation (a
    # substitution keeps degrees), so one more variable goes exactly when
    # some c_r = +-1.  The images r are the j that psi fixes, and c_r is 1
    # plus the signs of the x_j sent to x_r; the ``lone`` images that no
    # x_j is sent to have c_r = 1.
    linear: dict[int, int] = {}
    for sign, rep in mapping.values():
        linear[rep] = linear.get(rep, 1) + sign
    lone = 2 * n - len(mapping) - len(linear)
    unit = lone > 0 or any(c in (1, -1) for c in linear.values())
    left = lone + len(linear) - unit
    if left > PINCHED_VARIABLE_CAP:
        raise ValueError(f"R({n}) pinched at {list(A)} keeps {left} "
                         f"variables, above the cap {PINCHED_VARIABLE_CAP}")
    pairs = [mapping.get(j, (1, j)) for j in range(1, 2 * n + 1)]
    return r_masks([r for _, r in pairs], [s for s, _ in pairs])


def _pinched_structure(n: int, A, image: list[dict[int, int]]
                       ) -> list[tuple[int, list[int]]]:
    """Graded structure presented by the pinches x_i + x_{i+1}, then the
    relations image[1:] = psi(sigma_1..sigma_2n), over x_1..x_2n."""
    relations = [{1 << (i - 1): 1, 1 << i: 1} for i in sorted(A)]
    relations += image[1:]
    return graded_structure(GraphRingPresentation(
        2 * n, relations, [()] * len(relations)))


def pinched_ring_structure(n: int, A) -> list[tuple[int, list[int]]]:
    """Graded structure of R(n)/(x_i + x_{i+1} : i in A), degree by degree.

    Presented by the pinches x_i + x_{i+1}, then psi(sigma_1..sigma_2n)
    over x_1..x_2n: sigma_k = psi(sigma_k) modulo the pinches.  Refused
    with ``ValueError``, before ``r_masks`` runs, when more than
    ``PINCHED_VARIABLE_CAP`` variables survive.
    """
    return _pinched_structure(n, A, pinched_cycle_polynomial(n, A))


def hedgehog_ring(n: int, A) -> dict:
    """Both computations of S(H(A)) and their comparison.

    * expected: graded ranks of R(body) tensor E(spines) from the pinch data;
    * direct:   SNF of R(n)/(x_i + x_{i+1} : i in A), presented by the
      pinches and psi(sigma_1..sigma_2n); tests/test_graph_rings.py checks
      it against sigma_1..sigma_2n of all 2n variables up to n = 4.

    Also checks that the pinch substitution sends the cycle relation
    coefficients sigma_k(x_1..x_2n) to the signed body-cycle coefficients
    sigma_k(+-x_rep): spine fibres contribute (1 + tx)^a (1 - tx)^a = 1,
    body fibres a net (1 +- t x_rep).  The signs are read off the image
    of sigma_1; a coefficient other than +-1 there, or a spine term,
    already breaks the comparison at k = 1.
    """
    image = pinched_cycle_polynomial(n, A)     # the cap refuses first
    direct = _pinched_structure(n, A, image)
    h = hedgehog_analyze(n, A)
    expected = expected_hedgehog_structure(h)
    top = len(expected) - 1
    trimmed = direct[: top + 1]
    tail_trivial = all(rank == 0 and not tors for rank, tors in direct[top + 1:])
    signs = [-1 if image[1].get(1 << (r - 1)) == -1 else 1
             for r in h.body_indices]
    signed_body = r_masks(h.body_indices, signs)
    signed_body += [{}] * (len(image) - len(signed_body))
    return {
        "n": n,
        "pinch": tuple(sorted(A)),
        "hedgehog": h,
        "expected": expected,
        "direct": direct,
        "match": trimmed == expected and tail_trivial,
        "relation_image_ok": image == signed_body,
    }
