"""Finite-field laboratory for t-stable flags in V(n) = (F_q[t]/t^n)^2.

The complex variety X(n) consists of complete flags W_0 < ... < W_2n
with t W_i <= W_{i-1}.  Everything verified here is field-agnostic
module theory over the discrete valuation ring F_q[t], so enumerating
flags over a small prime field exercises the same structural lemmas:

  * exponent / imbalance invariants of thin torsion modules,
  * the subvariety memberships X(n,i) (pinch) and X(n,K) (K-balanced),
  * the covering statements X(n) = union_i X(n,i) = union_K X(n,K),
  * the unrolled pseudometric d(i,j) = imbalance(W~_j / W~_i) and the
    canonical tree folding of C(n) it induces,
  * the chain lemmas about gaps, triangles and one-step reductions.

Vectors in V(m) use coordinates 2i + j for t^i e_j (0 <= i < m,
j in {0, 1}); subspaces are reduced-row-echelon tuples from fqlin,
hashable and canonical.  The lattice operations ``t_image``,
``t_preimage``, ``thin_invariants`` (and ``fqlin.intersect``) are
memoised per process on that representation, as ``submodules`` is, so
callers must pass tuples, never lists.  The scans meet the same
submodules again and again; the caches compute each lattice once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import enumerate_sparse, mu_of
from .fqlin import (
    Rows,
    all_vectors,
    constraint_matrix,
    contains,
    dim,
    intersect,
    member,
    nullspace,
    rref,
)
from .graphs import BiGraph, is_tree, make_standard, quotient
from .springer import hilbert_ranks

FLAG_BRANCH_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# the t-action on V(m)
# ---------------------------------------------------------------------------

def t_shift(v, m: int):
    """t . (t^i e_j) = t^(i+1) e_j, truncated at t^m."""
    out = [0] * (2 * m)
    for i in range(m - 1):
        out[2 * (i + 1)] = v[2 * i]
        out[2 * (i + 1) + 1] = v[2 * i + 1]
    return tuple(out)


@lru_cache(maxsize=None)
def t_image(W: Rows, m: int, q: int) -> Rows:
    return rref([t_shift(v, m) for v in W], q) if W else ()


@lru_cache(maxsize=None)
def t_preimage(W: Rows, m: int, q: int) -> Rows:
    """{v in V(m) : t v in W}."""
    composed = []
    for f in constraint_matrix(W, 2 * m, q):
        g = [0] * (2 * m)
        for i in range(m - 1):
            g[2 * i] = f[2 * (i + 1)]
            g[2 * i + 1] = f[2 * (i + 1) + 1]
        composed.append(tuple(g))
    return nullspace(composed, 2 * m, q)


def t_power_image(W: Rows, r: int, m: int, q: int) -> Rows:
    for _ in range(r):
        W = t_image(W, m, q)
    return W


def t_power_preimage(W: Rows, r: int, m: int, q: int) -> Rows:
    for _ in range(r):
        W = t_preimage(W, m, q)
    return W


def is_submodule(W: Rows, m: int, q: int) -> bool:
    return contains(W, t_image(W, m, q), q)


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
def thin_invariants(L: Rows, K: Rows, m: int, q: int) -> ThinInvariants:
    """Invariants of the subquotient M = L/K of V(m).

    M must be thin (rank at most 2), which holds for every subquotient
    of V(m); a non-thin input raises.  The decomposition is
    M = A_p + A_{p+d} with p = beta, d = delta, and eta = p + d.
    """
    if not contains(L, K, q):
        raise ValueError("K is not contained in L")
    d = dim(L) - dim(K)
    rank = dim(intersect(t_preimage(K, m, q), L, 2 * m, q)) - dim(K)
    if rank > 2:
        raise ValueError(f"subquotient has rank {rank} > 2, not thin")
    X, eta = L, 0
    while not contains(K, X, q):
        X = t_image(X, m, q)
        eta += 1
    beta, P = 0, K
    while True:
        P = t_preimage(P, m, q)
        if dim(intersect(P, L, 2 * m, q)) - dim(K) == 2 * (beta + 1):
            beta += 1
        else:
            break
    delta = 2 * eta - d
    if beta + delta != eta or delta < 0:
        raise AssertionError(f"inconsistent invariants for a thin module "
                             f"(eta={eta}, beta={beta}, delta={delta})")
    return ThinInvariants(eta, beta, delta, d)


def is_balanced(L: Rows, K: Rows, m: int, q: int) -> bool:
    return thin_invariants(L, K, m, q).delta == 0


# ---------------------------------------------------------------------------
# flag enumeration
# ---------------------------------------------------------------------------

def enumerate_flags(n: int, q: int = 2, cap: int = FLAG_BRANCH_CAP):
    """All complete t-stable flags in V(n), depth first.

    At each level the choices are the lines in t^{-1}W/W, a space of
    dimension at most 2, so the search tree has at most (q+1)^(2n)
    leaves; enumeration refuses if that bound exceeds ``cap``.
    """
    estimate = (q + 1) ** (2 * n)
    if estimate > cap:
        raise ValueError(f"flag enumeration would explore up to {estimate} "
                         f"branches, above the cap {cap}")

    def extensions(W: Rows):
        U = t_preimage(W, n, q)
        ext: list = []
        cur = W
        for b in U:
            if not any(x % q for x in b):
                continue
            if not member(b, cur, q):
                ext.append(b)
                cur = rref(cur + (b,), q)
        if len(ext) == 1:
            return [ext[0]]
        if len(ext) != 2:
            raise RuntimeError(f"t^-1 W / W has dimension {len(ext)}, "
                               f"expected 1 or 2")
        a, b = ext
        lines = [a]
        for c in range(q):
            lines.append(tuple((b[i] + c * a[i]) % q for i in range(len(a))))
        return lines

    def walk(chain):
        if len(chain) == 2 * n + 1:
            yield tuple(chain)
            return
        for v in extensions(chain[-1]):
            chain.append(rref(chain[-1] + (v,), q))
            yield from walk(chain)
            chain.pop()

    yield from walk([()])


def flag_is_valid(F, n: int, q: int) -> bool:
    if len(F) != 2 * n + 1:
        return False
    for i, W in enumerate(F):
        if dim(W) != i:
            return False
        if i and not contains(F[i - 1], t_image(W, n, q), q):
            return False
    return True


def point_count_report(n: int, q: int) -> dict:
    """|X(n)(F_q)| next to sum_i rank H^{2i} q^i.  Data only, not asserted."""
    count = sum(1 for _ in enumerate_flags(n, q))
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


def in_xnk(F, K, n: int, q: int) -> bool:
    """W in X(n,K): W_i/W_{tau(i)-1} balanced for every i not in K."""
    tau = mu_of(tuple(K), 2 * n)
    for i in range(1, 2 * n + 1):
        if i in K:
            continue
        if not is_balanced(F[i], F[tau[i - 1] - 1], n, q):
            return False
    return True


def cover_scan(n: int, q: int = 2) -> dict:
    """Check X(n) = union_{i<=n} X(n,i) = union_K X(n,K) over F_q points."""
    sparse_sets = enumerate_sparse(2 * n, n)
    xni_counts = {i: 0 for i in range(1, n + 1)}
    xnk_counts = {K: 0 for K in sparse_sets}
    uncovered_i, uncovered_k, total = [], [], 0
    for F in enumerate_flags(n, q):
        total += 1
        hit_i = [i for i in xni_counts if in_xni(F, i, n, q)]
        hit_k = [K for K in sparse_sets if in_xnk(F, K, n, q)]
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

def _unrolled_spaces(F, n: int, q: int) -> list[Rows]:
    """Models of the unrolled flag W~_0, ..., W~_4n inside V(3n).

    The model module V(3n) stands for t^{-2n}V/t^n V; the true space
    W~_i (which contains V and lies in t^{-2n}V for 0 <= i <= 4n) is
    represented by its image, and all sub quotients of interest are
    unchanged because the collapsed part t^n V lies in every W~_i.
    For 0 <= i <= 2n the image is t^n lift(W_i) + t^{2n} V(3n); the
    remaining spaces are W~_{i+2n} = t^{-n} W~_i.
    """
    m = 3 * n
    tail = [tuple(1 if c == 2 * s + j else 0 for c in range(2 * m))
            for s in range(2 * n, 3 * n) for j in (0, 1)]
    out = []
    for i in range(2 * n + 1):
        shifted = []
        for v in F[i]:
            w = [0] * (2 * m)
            for s in range(n):
                w[2 * (s + n)] = v[2 * s]
                w[2 * (s + n) + 1] = v[2 * s + 1]
            shifted.append(tuple(w))
        out.append(rref(shifted + tail, q))
    for i in range(1, 2 * n + 1):
        out.append(t_power_preimage(out[i], n, m, q))
    return out


def unrolled_metric(F, n: int, q: int) -> dict:
    """The pseudometric d(i,j) = imbalance(W~_j/W~_i) and its axioms.

    Returns the window values d(i,j) for 0 <= i <= j <= 4n with
    j - i <= 2n, the induced matrix on the vertices Z/2n of C(n), and
    booleans certifying parity, periodicity, vanishing at distance 2n,
    and every triangle inequality inside the window.
    """
    m = 3 * n
    spaces = _unrolled_spaces(F, n, q)
    window: dict[tuple[int, int], int] = {}
    for i in range(4 * n + 1):
        for j in range(i, min(i + 2 * n, 4 * n) + 1):
            window[(i, j)] = thin_invariants(spaces[j], spaces[i], m, q).delta
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


def tree_from_flag(F, n: int, q: int) -> tuple[BiGraph, dict]:
    """The canonical folding of C(n) by the relation d(u, v) = 0.

    Returns the quotient graph and a report asserting that it is a tree
    and that its path metric reproduces d on the vertex classes.
    """
    metric = unrolled_metric(F, n, q)
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
# submodule enumeration and the chain lemmas
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def submodules(n: int, q: int) -> tuple[Rows, ...]:
    """All F_q[t]-submodules of V(n): every one has at most 2 generators."""
    m = n
    vectors = all_vectors(2 * m, q)
    orbits = {}
    for v in vectors:
        orbit = []
        w = v
        while any(w):
            orbit.append(w)
            w = t_shift(w, m)
        orbits[v] = tuple(orbit)
    seen = set()
    for u in vectors:
        for v in vectors:
            seen.add(rref(orbits[u] + orbits[v], q))
    return tuple(sorted(seen, key=lambda W: (len(W), W)))


def _delta(L, K, m, q):
    return thin_invariants(L, K, m, q).delta


def chain_lemma_scan(n: int, q: int = 2, full_lattice: bool | None = None) -> dict:
    """Brute-force verification of the torsion-module chain lemmas.

    The gap, triangle and one-step lemmas quantify over all submodule
    chains of V(n); that full-lattice sweep is run when ``full_lattice``
    is true (default for n <= 3, where V(n) has few submodules).  For
    larger n the same statements are checked over the chains that
    actually occur, namely the enumerated flags and their t-power
    images.  The counting, exponent and interval lemmas are checked
    along every flag and every sparse K regardless.
    """
    if full_lattice is None:
        full_lattice = n <= 3
    m = n
    zero: Rows = ()
    report: dict[str, dict] = {}

    def entry(name):
        return report.setdefault(name, {"instances": 0, "violations": []})

    # --- combinatorial counting lemma over sparse K --------------------
    e = entry("count_K")
    for K in enumerate_sparse(2 * n, n):
        tau = mu_of(K, 2 * n)
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
    sparse_sets = enumerate_sparse(2 * n, n)
    ew = entry("W_exponent")
    ei = entry("interval")
    for F in flags:
        for K in sparse_sets:
            if not in_xnk(F, K, n, q):
                continue
            tau = mu_of(K, 2 * n)
            for mm in range(1, 2 * n + 1):
                ew["instances"] += 1
                r = sum(1 for k in K if k <= mm)
                if t_power_image(F[mm], r, m, q) != zero:
                    ew["violations"].append((K, mm))
            for p in range(0, 2 * n):
                for qq in range(p + 1, 2 * n + 1):
                    interval = set(range(p + 1, qq + 1))
                    if not all(tau[j - 1] in interval for j in interval):
                        continue
                    ei["instances"] += 1
                    if (qq - p) % 2 or not is_balanced(F[qq], F[p], m, q):
                        ei["violations"].append((K, p, qq))

    # --- treelike four-point condition along every flag -----------------
    et = entry("treelike")
    for F in flags:
        dv = unrolled_metric(F, n, q)["vertices"]
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

    # --- chains for the gap / triangle / one-step lemmas ----------------
    if full_lattice:
        subs = submodules(n, q)
        pairs = [(N, M) for N in subs for M in subs
                 if len(N) <= len(M) and contains(M, N, q)]
        etr = entry("triangle")
        for N, M in pairs:
            etr["instances"] += 1
            a = _delta(M, zero, m, q)
            b = _delta(N, zero, m, q)
            c = _delta(M, N, m, q)
            if a > b + c or b > a + c or c > a + b:
                etr["violations"].append((N, M))
        eg = entry("gap")
        for K, L in pairs:
            if (len(L) - len(K)) % 2:
                continue
            d = (len(L) - len(K)) // 2
            for N2, M2 in pairs:
                if N2 != L:
                    continue
                M = M2
                eg["instances"] += 1
                a_holds = _delta(L, K, m, q) == 0
                b_holds = (thin_invariants(L, zero, m, q).beta >= d
                           and t_power_image(L, d, m, q) == K)
                tdK = intersect(t_power_preimage(K, d, m, q), M, 2 * m, q)
                c_holds = (thin_invariants(M, K, m, q).beta >= d
                           and tdK == L)
                ok = a_holds == b_holds == c_holds
                if a_holds and ok:
                    Md = intersect(t_power_preimage(zero, d, m, q), M,
                                   2 * m, q)
                    tdM = t_power_image(M, d, m, q)
                    ok = (thin_invariants(M, zero, m, q).beta >= d
                          and contains(L, Md, q) and contains(tdM, K, q)
                          and _delta(M, zero, m, q) == _delta(tdM, zero, m, q)
                          == _delta(M, Md, m, q)
                          and _delta(K, zero, m, q) == _delta(L, zero, m, q)
                          == _delta(L, Md, m, q)
                          and _delta(M, L, m, q) == _delta(M, K, m, q)
                          == _delta(tdM, K, m, q))
                if not ok:
                    eg["violations"].append((K, L, M))
        chains = _all_chains(n, q)
    else:
        chains = []
        for F in flags:
            for r in range(n):
                chain = [t_power_image(W, r, m, q) for W in F]
                dedup = [chain[0]]
                for W in chain[1:]:
                    if W != dedup[-1]:
                        dedup.append(W)
                chains.append(dedup)

    ea = entry("one_step_a")
    eb = entry("one_step_b")
    for chain in chains:
        d = len(chain) - 1
        if d < 1:
            continue
        ea["instances"] += 1
        top = chain[-1]
        cyclic = dim(intersect(t_preimage(zero, m, q), top, 2 * m, q)) <= 1
        if not cyclic:
            found = any(
                _delta(chain[i + 1], chain[i - 1], m, q) == 0
                and t_image(chain[i + 1], m, q) == chain[i - 1]
                for i in range(1, d))
            if not found:
                ea["violations"].append(chain)
        dl = _delta(top, zero, m, q)
        for k in range(dl + 1):
            eb["instances"] += 1
            hit = any(_delta(chain[i], zero, m, q) == k
                      and _delta(top, chain[i], m, q) == dl - k
                      for i in range(d + 1))
            if not hit:
                eb["violations"].append((chain, k))
        if dl == 1 and d > 1:
            eb["instances"] += 1
            hit = any(_delta(chain[i], zero, m, q) == 0
                      or _delta(top, chain[i], m, q) == 0
                      for i in range(1, d))
            if not hit:
                eb["violations"].append((chain, "part_b"))

    report["all_clear"] = all(not v["violations"] for k, v in report.items()
                              if isinstance(v, dict))
    return report


def _all_chains(n: int, q: int) -> list[list[Rows]]:
    """Every chain 0 = M_0 < ... < M_d of submodules with dim M_i = i."""
    subs = submodules(n, q)
    by_dim: dict[int, list[Rows]] = {}
    for W in subs:
        by_dim.setdefault(len(W), []).append(W)
    chains: list[list[Rows]] = []

    def grow(chain):
        chains.append(list(chain))
        nxt = by_dim.get(len(chain), [])
        for W in nxt:
            if contains(W, chain[-1], q):
                chain.append(W)
                grow(chain)
                chain.pop()

    grow([()])
    return [c for c in chains if len(c) > 1]
