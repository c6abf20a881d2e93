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
from .graphs import BiGraph, is_tree, make_standard, quotient
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
    if len(F) != 2 * n + 1:
        return False
    for i, W in enumerate(F):
        if dim(W, n) != i:
            return False
        if i and not contains(F[i - 1], t_image(W, n, q)):
            return False
    return True


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

def _unrolled_spaces(F, n: int) -> list[Lattice]:
    """The unrolled flag W~_0, ..., W~_4n, scaled by t^2n: the spaces
    t^n W_i for 0 <= i <= 2n, then W_i for 1 <= i <= 2n."""
    return [(a + n, b + n, (0,) * n + c) for a, b, c in F] + list(F[1:])


def unrolled_metric(F, n: int) -> dict:
    """The pseudometric d(i,j) = imbalance(W~_j/W~_i) and its axioms.

    Returns the window values d(i,j) for 0 <= i <= j <= 4n with
    j - i <= 2n, the induced matrix on the vertices Z/2n of C(n), and
    booleans certifying parity, periodicity, vanishing at distance 2n,
    and every triangle inequality inside the window.
    """
    spaces = _unrolled_spaces(F, n)
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
    triangle_ok = True
    keys = sorted(window)
    for (i, j) in keys:
        for k in range(j, min(i + 2 * n, 4 * n) + 1):
            a, b, c = window[(i, j)], window[(j, k)], window[(i, k)]
            if a > b + c or b > a + c or c > a + b:
                triangle_ok = False
    return {"window": window, "vertices": vertices,
            "parity_ok": parity_ok, "periodicity_ok": period_ok,
            "wraparound_zero": wrap_ok, "unit_steps": step_ok,
            "triangle_ok": triangle_ok,
            "pseudometric_ok": parity_ok and period_ok and wrap_ok
            and step_ok and triangle_ok}


def tree_from_flag(F, n: int) -> tuple[BiGraph, dict]:
    """The canonical folding of C(n) by the relation d(u, v) = 0.

    Returns the quotient graph and a report asserting that it is a tree
    and that its path metric reproduces d on the vertex classes.
    """
    metric = unrolled_metric(F, n)
    dvert = metric["vertices"]
    classes: list[list[int]] = []
    for v in range(2 * n):
        for cls in classes:
            if dvert[cls[0]][v] == 0:
                cls.append(v)
                break
        else:
            classes.append([v])
    partition = tuple(tuple(c) for c in classes)
    T, pmap = quotient(make_standard("C", n), partition)
    tree_ok = is_tree(T)
    metric_ok = all(T.distance(pmap[u], pmap[v]) == dvert[u][v]
                    for u in range(2 * n) for v in range(2 * n))
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
    """
    zero = (n, n, (0,) * n)
    report: dict[str, dict] = {}

    def entry(name):
        return report.setdefault(name, {"instances": 0, "violations": []})

    taus = {K: mu_of(K, 2 * n) for K in enumerate_sparse(2 * n, n)}

    # --- combinatorial counting lemma over sparse K --------------------
    e = entry("count_K")
    for K, tau in taus.items():
        for mm in range(1, 2 * n + 1):
            if mm in K:
                continue
            e["instances"] += 1
            p = tau[mm - 1]
            d = (mm - p + 1) // 2
            ok = (p == mm - 2 * d + 1 and d > 0)
            interval = set(range(p, mm + 1))
            ok = ok and all(tau[j - 1] in interval for j in interval)
            inner = set(range(p + 1, mm))
            ok = ok and all(tau[j - 1] in inner for j in inner)
            r = sum(1 for k in K if k < mm)
            ok = ok and sum(1 for k in K if k < p) == r - d
            if d > 1:
                ok = ok and mm - 1 not in K
            if not ok:
                e["violations"].append((K, mm))

    # --- flag-based lemmas ---------------------------------------------
    flags = list(enumerate_flags(n, q))
    ew = entry("W_exponent")
    ei = entry("interval")
    for F in flags:
        for K, tau in taus.items():
            if not in_xnk(F, K, n, tau):
                continue
            for mm in range(1, 2 * n + 1):
                ew["instances"] += 1
                r = sum(1 for k in K if k <= mm)
                if t_image(F[mm], n, q, r) != zero:
                    ew["violations"].append((K, mm))
            for p in range(0, 2 * n):
                for qq in range(p + 1, 2 * n + 1):
                    interval = set(range(p + 1, qq + 1))
                    if not all(tau[j - 1] in interval for j in interval):
                        continue
                    ei["instances"] += 1
                    if (qq - p) % 2 or not is_balanced(F[qq], F[p]):
                        ei["violations"].append((K, p, qq))

    # --- treelike four-point condition along every flag -----------------
    et = entry("treelike")
    for F in flags:
        dv = unrolled_metric(F, n)["vertices"]
        V = range(2 * n)
        for a in V:
            for b in V:
                for x in V:
                    for y in V:
                        if (dv[a][x] == dv[a][y] and dv[x][b] == dv[y][b]
                                and dv[a][x] + dv[x][b] == dv[a][b]
                                and dv[a][y] + dv[y][b] == dv[a][b]):
                            et["instances"] += 1
                            if dv[x][y] != 0:
                                et["violations"].append((a, b, x, y))

    # --- triangle and gap lemmas over all nested submodule pairs --------
    subs = submodules(n, q)
    pairs = [(N, M) for N in subs for M in subs
             if dim(N, n) <= dim(M, n) and contains(M, N)]
    above: dict[Lattice, list[Lattice]] = {}
    for N, M in pairs:
        above.setdefault(N, []).append(M)
    etr = entry("triangle")
    for N, M in pairs:
        etr["instances"] += 1
        a = thin_invariants(M, zero).delta
        b = thin_invariants(N, zero).delta
        c = thin_invariants(M, N).delta
        if a > b + c or b > a + c or c > a + b:
            etr["violations"].append((N, M))
    eg = entry("gap")
    for K, L in pairs:
        if (dim(L, n) - dim(K, n)) % 2:
            continue
        d = (dim(L, n) - dim(K, n)) // 2
        for M in above[L]:
            eg["instances"] += 1
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
            if not ok:
                eg["violations"].append((K, L, M))

    # --- one-step lemmas over every unit-step chain from 0 --------------
    chains = dict.fromkeys(F[:d + 1] for F in flags
                           for d in range(1, 2 * n + 1))
    ea = entry("one_step_a")
    eb = entry("one_step_b")
    for chain in chains:
        d = len(chain) - 1
        ea["instances"] += 1
        top = chain[-1]
        cyclic = dim(intersect(t_preimage(zero, n, q), top, n, q), n) <= 1
        if not cyclic:
            found = any(
                thin_invariants(chain[i + 1], chain[i - 1]).delta == 0
                and t_image(chain[i + 1], n, q) == chain[i - 1]
                for i in range(1, d))
            if not found:
                ea["violations"].append(chain)
        dl = thin_invariants(top, zero).delta
        for k in range(dl + 1):
            eb["instances"] += 1
            hit = any(thin_invariants(chain[i], zero).delta == k
                      and thin_invariants(top, chain[i]).delta == dl - k
                      for i in range(d + 1))
            if not hit:
                eb["violations"].append((chain, k))
        if dl == 1 and d > 1:
            eb["instances"] += 1
            hit = any(thin_invariants(chain[i], zero).delta == 0
                      or thin_invariants(top, chain[i]).delta == 0
                      for i in range(1, d))
            if not hit:
                eb["violations"].append((chain, "part_b"))

    report["all_clear"] = all(not v["violations"] for k, v in report.items()
                              if isinstance(v, dict))
    return report
