"""Finite-field laboratory for t-stable flags in V(n) = (F_q[t]/t^n)^2.

The complex variety X(n) consists of complete flags W_0 < ... < W_2n
with t W_i <= W_{i-1}.  Everything verified here is field-agnostic
module theory over the discrete valuation ring F_q[[t]], so enumerating
flags over a small prime field exercises the same structural lemmas:

  * exponent / imbalance invariants of thin torsion modules,
  * the subvariety memberships X(n,i) (pinch) and X(n,K) (K-balanced),
  * the covering statements X(n) = union_i X(n,i) = union_K X(n,K),
  * the unrolled pseudometric d(i,j) = imbalance(W~_j / W~_i) and the
    canonical tree folding of C(n) it induces,
  * the chain lemmas about gaps, triangles and one-step reductions.

Each space is a lattice t^n Lambda <= W <= Lambda = F_q[[t]]^2 in the
Hermite form (a, b, c) of ``fqlin``, and reports name spaces by it.  Up
to scaling, the lattices are the vertices of the Bruhat-Tits tree of
PGL_2(F_q((t))) (Serre, *Trees*, ch. II.1); the imbalance delta of L/K
is the tree distance between L and K.

Every decision is made on Hermite forms, by ``fqlin.offsets`` and by
whether ``hermite`` grows; RREF only orders a flag's candidate lines.

The submodule lattice of V(n) is read off the enumerated flags: every
submodule is a space of some complete flag, and every chain of
submodules with unit steps from 0 is a prefix of one, so the flag
enumeration is the lattice's only source.  ``thin_invariants``,
``submodules`` and the flag children are memoised, as the ``fqlin``
operations are: the scans meet the same submodules again and again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import enumerate_sparse, mu_of
from .fqlin import (
    Lattice,
    contains,
    dim,
    generators,
    hermite,
    intersect,
    offsets,
    rows,
    t_image,
    t_preimage,
)
from .graphs import (BiGraph, bfs, components, is_tree, make_standard,
                     quotient)
from .springer import hilbert_ranks

FLAG_BRANCH_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# thin module invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThinInvariants:
    eta: int      # exponent: least k with t^k M = 0
    beta: int     # largest k with dim M[k] = 2k
    delta: int    # imbalance 2 eta - dim
    dim: int


@lru_cache(maxsize=None)
def thin_invariants(L: Lattice, K: Lattice) -> ThinInvariants:
    """Invariants of the quotient M = L/K of two lattices, K <= L.

    The basis of K is B_L X with X = [[t^(a_K-a_L), g], [0, t^(b_K-b_L)]]
    and g = (c_K - t^(b_K-b_L) c_L) / t^(a_L), so M = A_beta + A_eta with
    beta the least valuation of an entry of X, the least of the
    ``offsets``, and beta + eta = dim M.
    """
    da, db, dg = offsets(L, K)
    beta = min(da, db, dg)
    # callers pass nested pairs and the command line reads only n and q, so
    # a pair that is not nested is a fault of the program, not bad input
    if beta < 0:
        raise RuntimeError("K is not contained in L")
    d = da + db
    return ThinInvariants(d - beta, beta, d - 2 * beta, d)


def is_balanced(L: Lattice, K: Lattice) -> bool:
    return thin_invariants(L, K).delta == 0


# ---------------------------------------------------------------------------
# flag enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _children(W: Lattice, n: int, q: int) -> tuple[Lattice, ...]:
    """The spaces W + F_q v for the lines F_q v of t^-1 W / W, in order.

    An RREF row v of t^-1 W is kept when it makes the Hermite form grow
    (t v lies in W); with kept rows a, b the lines are a, then b + c a.
    """
    ext, cur = [], W
    for v in rows(t_preimage(W, n, q), n, q):
        grown = hermite(generators(cur, n) + (v,), n, q)
        if grown != cur:
            ext.append(v)
            cur = grown
    if len(ext) == 2:
        a, b = ext
        ext = [a] + [tuple((y + c * x) % q for x, y in zip(a, b))
                     for c in range(q)]
    elif len(ext) != 1:
        raise RuntimeError(f"t^-1 W / W has dimension {len(ext)}")
    return tuple(hermite(generators(W, n) + (v,), n, q) for v in ext)


def enumerate_flags(n: int, q: int = 2):
    """All complete t-stable flags in V(n), depth first.

    At each level the choices are the lines in t^{-1}W/W, a space of
    dimension at most 2, so the search tree has at most (q+1)^(2n)
    leaves; enumeration refuses if that bound exceeds FLAG_BRANCH_CAP.
    """
    estimate = (q + 1) ** (2 * n)
    if estimate > FLAG_BRANCH_CAP:
        raise ValueError(f"flag enumeration would explore up to {estimate} "
                         f"branches, above the cap {FLAG_BRANCH_CAP}")

    def walk(chain):
        if len(chain) == 2 * n + 1:
            yield tuple(chain)
            return
        for child in _children(chain[-1], n, q):
            chain.append(child)
            yield from walk(chain)
            chain.pop()

    yield from walk([(n, n, (0,) * n)])


def flag_is_valid(F, n: int, q: int) -> bool:
    return len(F) == 2 * n + 1 and all(
        dim(W, n) == i and (not i or contains(F[i - 1], t_image(W, n, q)))
        for i, W in enumerate(F))


def point_count_report(n: int, q: int, count: int) -> dict:
    """|X(n)(F_q)| = ``count`` next to sum_i rank H^{2i} q^i.

    The caller enumerates the flags and passes their number.  Data only,
    not asserted.
    """
    ranks = hilbert_ranks(n)
    poincare = sum(r * q ** i for i, r in enumerate(ranks))
    return {"n": n, "q": q, "flags": count, "poincare_value": poincare,
            "equal": count == poincare}


# ---------------------------------------------------------------------------
# stratum membership and covers
# ---------------------------------------------------------------------------

def in_xni(F, i: int, n: int, q: int) -> bool:
    """W in X(n,i): the quotient W_{i+1}/W_{i-1} is balanced."""
    if not 0 < i < 2 * n:
        raise ValueError("need 0 < i < 2n")
    return t_image(F[i + 1], n, q) == F[i - 1]


def in_xnk(F, K, n: int, tau) -> bool:
    """W in X(n,K): W_i/W_{tau(i)-1} balanced for every i not in K.

    ``tau`` is mu(K), which scans over many flags compute once per K.
    """
    for i in range(1, 2 * n + 1):
        if i in K:
            continue
        if not is_balanced(F[i], F[tau[i - 1] - 1]):
            return False
    return True


def cover_scan(n: int, q: int = 2) -> dict:
    """Check X(n) = union_{i<=n} X(n,i) = union_K X(n,K) over F_q points."""
    sparse_sets = enumerate_sparse(2 * n, n)
    xni_counts = {i: 0 for i in range(1, n + 1)}
    xnk_counts = {K: 0 for K in sparse_sets}
    taus = {K: mu_of(K, 2 * n) for K in sparse_sets}
    uncovered_i, uncovered_k, total = [], [], 0
    for F in enumerate_flags(n, q):
        total += 1
        hit_i = [i for i in xni_counts if in_xni(F, i, n, q)]
        hit_k = [K for K, tau in taus.items() if in_xnk(F, K, n, tau)]
        for i in hit_i:
            xni_counts[i] += 1
        for K in hit_k:
            xnk_counts[K] += 1
        if not hit_i:
            uncovered_i.append(F)
        if not hit_k:
            uncovered_k.append(F)
    return {"n": n, "q": q, "flags": total,
            "xni_counts": xni_counts, "xnk_counts": xnk_counts,
            "uncovered_by_xni": uncovered_i, "uncovered_by_xnk": uncovered_k,
            "covered": not uncovered_i and not uncovered_k}


# ---------------------------------------------------------------------------
# the unrolled pseudometric and the canonical tree
# ---------------------------------------------------------------------------

def unrolled_metric(F, n: int) -> dict:
    """The pseudometric d(i,j) = imbalance(W~_j/W~_i) and its axioms.

    Returns the window values d(i,j) for 0 <= i <= j <= 4n with
    j - i <= 2n, the induced matrix on the vertices Z/2n of C(n), and
    booleans certifying parity, periodicity, vanishing at distance 2n,
    and every triangle inequality inside the window.
    """
    # the unrolled flag W~_0, ..., W~_4n, scaled by t^2n: the spaces
    # t^n W_i for 0 <= i <= 2n, then W_i for 1 <= i <= 2n
    spaces = [(a + n, b + n, (0,) * n + c) for a, b, c in F] + list(F[1:])
    window: dict[tuple[int, int], int] = {}
    for i in range(4 * n + 1):
        for j in range(i, min(i + 2 * n, 4 * n) + 1):
            window[(i, j)] = thin_invariants(spaces[j], spaces[i]).delta
    vertices = [[window[(u, v if v >= u else v + 2 * n)]
                 for v in range(2 * n)] for u in range(2 * n)]
    parity_ok = all(d % 2 == (j - i) % 2 for (i, j), d in window.items())
    period_ok = all(window[(i, j)] == window[(i + 2 * n, j + 2 * n)]
                    for (i, j) in window if j + 2 * n <= 4 * n)
    wrap_ok = all(window[(i, i + 2 * n)] == 0 for i in range(2 * n + 1))
    step_ok = all(window[(i, i + 1)] == 1 for i in range(4 * n))
    # no side of a triangle is longer than the other two together
    triangle_ok = not any(a > b + c or b > a + c or c > a + b
                          for (i, j), a in window.items()
                          for k in range(j, min(i + 2 * n, 4 * n) + 1)
                          for b, c in ((window[(j, k)], window[(i, k)]),))
    return {"window": window, "vertices": vertices,
            "parity_ok": parity_ok, "periodicity_ok": period_ok,
            "wraparound_zero": wrap_ok, "unit_steps": step_ok,
            "triangle_ok": triangle_ok,
            "pseudometric_ok": parity_ok and period_ok and wrap_ok
            and step_ok and triangle_ok}


def tree_from_flag(F, n: int) -> tuple[BiGraph, dict]:
    """The canonical folding of C(n): the ``components`` of d(u, v) = 0.

    Returns the quotient graph and a report asserting that it is a tree
    and that its path metric reproduces d on the vertex classes.
    """
    metric = unrolled_metric(F, n)
    dvert = metric["vertices"]
    V = range(2 * n)
    partition = components(V, ((u, v) for u in V for v in V
                                if u < v and dvert[u][v] == 0))
    T, pmap = quotient(make_standard("C", n), partition)
    tree_ok = is_tree(T)
    depths = {c: bfs(T.adjacency, c)[1] for c in T.vertices}
    metric_ok = all(depths[pmap[u]][pmap[v]] == dvert[u][v]
                    for u in V for v in V)
    report = {"partition": partition, "is_tree": tree_ok,
              "path_metric_matches": metric_ok,
              "edge_count": len(T.edges),
              "pseudometric_ok": metric["pseudometric_ok"]}
    return T, report


# ---------------------------------------------------------------------------
# the submodule lattice and the chain lemmas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def submodules(n: int, q: int) -> tuple[Lattice, ...]:
    """All F_q[t]-submodules of V(n), read off the complete flags.

    A submodule W lies in a composition series of V(n) (refine
    0 <= W <= V(n)), and the composition series are exactly the
    complete t-stable flags, so the submodules are their spaces.  They
    are sorted by dimension, then by RREF basis.
    """
    spaces = {W for F in enumerate_flags(n, q) for W in F}
    return tuple(sorted(spaces, key=lambda W: (dim(W, n), rows(W, n, q))))


def _tally(checks) -> dict:
    """A lemma's entry: the number of its (holds, witness) pairs and the
    witnesses of those that fail, in order."""
    instances, violations = 0, []
    for holds, witness in checks:
        instances += 1
        if not holds:
            violations.append(witness)
    return {"instances": instances, "violations": violations}


def _count_K(n, taus):
    """For m not in K, p = mu(K)(m) = m - 2d + 1 with d > 0; mu(K) keeps
    [p, m] and ]p, m[; K has r elements below m and r - d below p; and
    m - 1 is not in K if d > 1."""
    for K, tau in taus.items():
        for mm in range(1, 2 * n + 1):
            if mm in K:
                continue
            p = tau[mm - 1]
            d = (mm - p + 1) // 2
            interval, inner = range(p, mm + 1), range(p + 1, mm)
            r = sum(1 for k in K if k < mm)
            yield (p == mm - 2 * d + 1 and d > 0
                   and all(tau[j - 1] in interval for j in interval)
                   and all(tau[j - 1] in inner for j in inner)
                   and sum(1 for k in K if k < p) == r - d
                   and (d == 1 or mm - 1 not in K)), (K, mm)


def _W_exponent(n, q, zero, balanced):
    """t^r W_m = 0 for F in X(n,K), with r the elements of K up to m."""
    for F, K in balanced:
        for mm in range(1, 2 * n + 1):
            r = sum(1 for k in K if k <= mm)
            yield t_image(F[mm], n, q, r) == zero, (K, mm)


def _interval(n, balanced, taus):
    """F in X(n,K), mu(K) keeping ]p, q']: W_q'/W_p is balanced."""
    for F, K in balanced:
        tau = taus[K]
        for p in range(0, 2 * n):
            for qq in range(p + 1, 2 * n + 1):
                interval = range(p + 1, qq + 1)
                if all(tau[j - 1] in interval for j in interval):
                    yield (not (qq - p) % 2
                           and is_balanced(F[qq], F[p])), (K, p, qq)


def _treelike(n, flags):
    """x, y on geodesics a-b at equal distances from a and b: d(x, y) = 0."""
    V = range(2 * n)
    for F in flags:
        dv = unrolled_metric(F, n)["vertices"]
        for a in V:
            for b in V:
                for x in V:
                    for y in V:
                        if (dv[a][x] == dv[a][y] and dv[x][b] == dv[y][b]
                                and dv[a][x] + dv[x][b] == dv[a][b]
                                and dv[a][y] + dv[y][b] == dv[a][b]):
                            yield dv[x][y] == 0, (a, b, x, y)


def _triangle(zero, pairs):
    """delta(M), delta(N) and delta(M/N) obey the triangle inequality."""
    for N, M in pairs:
        a, b = thin_invariants(M, zero).delta, thin_invariants(N, zero).delta
        c = thin_invariants(M, N).delta
        yield not (a > b + c or b > a + c or c > a + b), (N, M)


def _gap(n, q, zero, pairs):
    """K <= L <= M, dim L/K = 2d: L/K balanced iff t^d L = K, beta(L) >= d
    iff t^-d K cap M = L, beta(M/K) >= d; if so, beta(M) >= d, M[t^d] <= L,
    K <= t^d M, and delta agrees on M, t^d M, M/M[t^d]; on K, L,
    L/M[t^d]; and on M/L, M/K, t^d M/K."""
    above: dict[Lattice, list[Lattice]] = {}
    for N, M in pairs:
        above.setdefault(N, []).append(M)
    for K, L in pairs:
        if (dim(L, n) - dim(K, n)) % 2:
            continue
        d = (dim(L, n) - dim(K, n)) // 2
        for M in above[L]:
            a_holds = thin_invariants(L, K).delta == 0
            b_holds = (thin_invariants(L, zero).beta >= d
                       and t_image(L, n, q, d) == K)
            tdK = intersect(t_preimage(K, n, q, d), M, n, q)
            c_holds = thin_invariants(M, K).beta >= d and tdK == L
            ok = a_holds == b_holds == c_holds
            if a_holds and ok:
                Md = intersect(t_preimage(zero, n, q, d), M, n, q)
                tdM = t_image(M, n, q, d)
                ok = (thin_invariants(M, zero).beta >= d
                      and contains(L, Md) and contains(tdM, K)
                      and thin_invariants(M, zero).delta
                      == thin_invariants(tdM, zero).delta
                      == thin_invariants(M, Md).delta
                      and thin_invariants(K, zero).delta
                      == thin_invariants(L, zero).delta
                      == thin_invariants(L, Md).delta
                      and thin_invariants(M, L).delta
                      == thin_invariants(M, K).delta
                      == thin_invariants(tdM, K).delta)
            yield ok, (K, L, M)


def _one_step_a(n, q, zero, chains):
    """A chain whose top has a 2-dimensional socle lies in some X(n, i)."""
    socle = t_preimage(zero, n, q)                      # V(n)[t]
    for chain in chains:
        cyclic = dim(intersect(socle, chain[-1], n, q), n) <= 1
        # t M_(i+1) = M_(i-1) kills M_(i+1)/M_(i-1) by t, so that quotient
        # is A_1^2 and balanced: in_xni implies its delta == 0
        yield cyclic or any(in_xni(chain, i, n, q)
                            for i in range(1, len(chain) - 1)), chain


def _one_step_b(zero, chains):
    """Each 0 <= k <= delta(top) is delta(M_i) with delta(top/M_i) the rest;
    if delta(top) = 1 < d, an inner M_i or top/M_i is balanced (part b)."""
    for chain in chains:
        d, top = len(chain) - 1, chain[-1]
        dl = thin_invariants(top, zero).delta
        for k in range(dl + 1):
            yield any(thin_invariants(chain[i], zero).delta == k
                      and thin_invariants(top, chain[i]).delta == dl - k
                      for i in range(d + 1)), (chain, k)
        if dl == 1 and d > 1:
            yield any(thin_invariants(chain[i], zero).delta == 0
                      or thin_invariants(top, chain[i]).delta == 0
                      for i in range(1, d)), (chain, "part_b")


def chain_lemma_scan(n: int, q: int = 2) -> dict:
    """Exhaustive verification of the torsion-module chain lemmas.

    Everything is read off the enumerated complete flags.  The gap and
    triangle lemmas run over every pair of nested submodules (the
    spaces of the flags, see ``submodules``).  The one-step lemmas run
    over every chain 0 = M_0 < ... < M_d with dim M_i = i and d >= 1:
    each quotient is a line, so t M_i <= M_{i-1} and the chain extends
    to a complete flag, and the chains are exactly the distinct flag
    prefixes.  The counting, exponent and interval lemmas are checked
    along every flag and every sparse K.

    Each lemma is a generator of (holds, witness) pairs, one per
    instance, and ``_tally`` writes its report entry.
    """
    zero = (n, n, (0,) * n)
    taus = {K: mu_of(K, 2 * n) for K in enumerate_sparse(2 * n, n)}
    flags = list(enumerate_flags(n, q))
    # F in X(n,K), for two lemmas: in_xnk runs once per pair (F, K)
    balanced = [(F, K) for F in flags for K, tau in taus.items()
                if in_xnk(F, K, n, tau)]
    subs = submodules(n, q)
    pairs = [(N, M) for N in subs for M in subs
             if dim(N, n) <= dim(M, n) and contains(M, N)]
    chains = list(dict.fromkeys(F[:d + 1] for F in flags
                                for d in range(1, 2 * n + 1)))
    report = {
        "count_K": _tally(_count_K(n, taus)),
        "W_exponent": _tally(_W_exponent(n, q, zero, balanced)),
        "interval": _tally(_interval(n, balanced, taus)),
        "treelike": _tally(_treelike(n, flags)),
        "triangle": _tally(_triangle(zero, pairs)),
        "gap": _tally(_gap(n, q, zero, pairs)),
        "one_step_a": _tally(_one_step_a(n, q, zero, chains)),
        "one_step_b": _tally(_one_step_b(zero, chains)),
    }
    report["all_clear"] = not any(e["violations"] for e in report.values())
    return report
