"""The first page TS** of the Mayer-Vietoris spectral sequence for X(n).

TS** is the bigraded ring R(n) (x) E[e_1, ..., e_{2n-1}] modulo the
relations e_i (x_i + x_{i+1}) for 0 < i < 2n.  The differential is
d_1(a) = a u with u = e_1 + ... + e_{2n-1}.  The e_A-component of TS**
is the ring of the hedgehog with pinch set A, so TS** has the monomial
basis BTS of pairs x_J e_A where

    * A is a subset of {1, ..., 2n-1},
    * J is a subset of A^# \\ {0} (the unpinched indices), and
    * the body part of J is sparse inside the body index set of the
      hedgehog for A.

Elements of TS** are plain dicts {(J, A): c}, the sum of c x_J e_A over
sorted tuples J and A with nonzero c.  This module builds the basis,
normalizes arbitrary elements onto it (each monomial folded as a bit
mask, its body part reduced by ``springer.reduce_in``), implements d_1,
classifies basis elements as extendable/unextendable with the eta/zeta
pairing, and certifies integrally that (TS**, d_1) is exact in every
bidegree by direct Smith-normal-form computation.

Sign convention: multiplying e_A by e_t uses the insertion count, i.e.
e_A e_t = (-1)^{|{a in A : a < t}|} e_{A u {t}} (and zero when t is in A).
Any consistent convention gives an isomorphic complex; this one is fixed
so that matrices from different bidegrees can be composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import enumerate_sparse, is_sparse_in
from .graph_rings import pinch_substitution
from .graphs import Hedgehog, hedgehog_analyze
from .intlinalg import snf_invariants
from .springer import reduce_in

Subset = tuple[int, ...]
TS = dict[tuple[Subset, Subset], int]     # {(J, A): c}: sum of c x_J e_A


@lru_cache(maxsize=None)
def _hedgehog(n: int, A: Subset) -> Hedgehog:
    return hedgehog_analyze(n, A)


# ---------------------------------------------------------------------------
# the BTS basis
# ---------------------------------------------------------------------------

def is_bts(J, A, n: int) -> bool:
    """Membership of the monomial x_J e_A in the basis BTS."""
    J, A = tuple(sorted(J)), tuple(sorted(A))
    if any(a < 1 or a > 2 * n - 1 for a in A):
        return False
    h = _hedgehog(n, A)
    allowed = set(h.spine_indices) | set(h.body_indices)
    if not set(J) <= allowed:
        return False
    body_part = tuple(j for j in J if j in h.body_indices)
    return is_sparse_in(body_part, h.body_indices)


@lru_cache(maxsize=None)
def enumerate_bts(n: int) -> tuple[tuple[Subset, Subset], ...]:
    """All pairs (J, A) indexing the BTS basis, sorted."""
    out = []
    for mask in range(1 << (2 * n - 1)):
        A = tuple(i + 1 for i in range(2 * n - 1) if mask >> i & 1)
        h = _hedgehog(n, A)
        body = h.body_indices
        sparse_bodies = [tuple(body[i - 1] for i in K)
                         for K in enumerate_sparse(len(body))]
        spine_parts = [()]
        for s in h.spine_indices:
            spine_parts = spine_parts + [t + (s,) for t in spine_parts]
        for S in spine_parts:
            for K in sparse_bodies:
                out.append((tuple(sorted(S + K)), A))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def bts_by_bidegree(n: int) -> dict[tuple[int, int], list[tuple[Subset, Subset]]]:
    """BTS basis grouped by bidegree (|A|, |J|), each group sorted."""
    groups: dict[tuple[int, int], list[tuple[Subset, Subset]]] = {}
    for J, A in enumerate_bts(n):
        groups.setdefault((len(A), len(J)), []).append((J, A))
    return groups


# ---------------------------------------------------------------------------
# normal form and the differential
# ---------------------------------------------------------------------------

def ts_normal_form(raw: TS, n: int, memo: dict | None = None) -> TS:
    """Rewrite an integer combination of monomials x_J e_A onto BTS.

    Per term: the pinch relations e_a (x_a + x_{a+1}) replace each x_j by
    +-x_rep(j) with rep(j) the bottom of its pinch block, one bit at a time
    until a bit repeats (squares die); the body part of the surviving
    monomial is reduced to its sparse normal form inside the body ring,
    while spine variables pass through freely.  ``memo``, which the caller
    scopes, maps sorted (J, A) to the normal form of x_J e_A.
    """
    two_n = 2 * n
    memo = {} if memo is None else memo
    terms: TS = {}
    for (J, A), c in raw.items():
        if c == 0:
            continue
        J, A = tuple(sorted(J)), tuple(sorted(A))
        form = memo.get((J, A))
        if form is None:
            if any(j < 1 or j > two_n for j in J):
                raise ValueError(f"x-index out of range in {J}")
            if any(a < 1 or a >= two_n for a in A):
                raise ValueError(f"e-index out of range in {A}")
            form = memo[(J, A)] = _monomial_normal_form(J, A, n)
        for key, cr in form.items():
            terms[key] = terms.get(key, 0) + c * cr
    return {key: v for key, v in terms.items() if v}


def _monomial_normal_form(J: Subset, A: Subset, n: int) -> TS:
    """The normal form of x_J e_A, as ``ts_normal_form`` describes it."""
    mapping = pinch_substitution(A)
    folded, sign = 0, 1
    for j in J:
        s, r = mapping.get(j, (1, j))
        if folded >> (r - 1) & 1:
            return {}
        folded, sign = folded | 1 << (r - 1), sign * s
    h = _hedgehog(n, A)
    body = sum(1 << (b - 1) for b in h.body_indices)
    # E(I) is commutative and the spine and body supports are disjoint:
    # x_folded = x_spine x_body, with no sign
    spine = folded & ~body
    reduced = reduce_in({folded & body: sign}, h.body_indices)
    return {(tuple(j + 1 for j in range(2 * n) if (spine | M) >> j & 1),
             A): c for M, c in reduced.items()}


def d1(a: TS, n: int, memo: dict | None = None) -> TS:
    """Right multiplication by u = e_1 + ... + e_{2n-1}, renormalized
    (``memo`` as in ``ts_normal_form``)."""
    raw: TS = {}
    for (J, A), c in a.items():
        for t in range(1, 2 * n):
            if t in A:
                continue
            sign = (-1) ** sum(1 for x in A if x < t)
            key = (J, tuple(sorted(A + (t,))))
            raw[key] = raw.get(key, 0) + c * sign
    return ts_normal_form(raw, n, memo)


# ---------------------------------------------------------------------------
# extendable / unextendable classification and the eta bijection
# ---------------------------------------------------------------------------

@dataclass
class EtaClassification:
    status: str                       # "extendable" | "unextendable"
    partner: tuple[Subset, Subset]    # eta(J,A) resp. zeta(J,A)


def classify_bts(J, A, n: int) -> EtaClassification:
    """Classify x_J e_A via the arithmetic p = min(A), q = min(Q) - 1.

    Here Q = {2, ..., 2n} \\ J (always nonempty on BTS), min of an empty A
    is read as 2n, and q <= p always holds.  q < p means extendable with
    partner (J, A u {q}); q = p means unextendable with partner
    (J, A \\ {p}).
    """
    J, A = tuple(sorted(J)), tuple(sorted(A))
    if not is_bts(J, A, n):
        raise ValueError(f"({J}, {A}) is not in BTS")
    p = min(A) if A else 2 * n
    Q = [i for i in range(2, 2 * n + 1) if i not in J]
    q = min(Q) - 1
    # q <= p: for A nonempty, p + 1 is pinched, so not in J, and lies in
    # {2..2n}, so min(Q) <= p + 1; for A empty, J is sparse in {1..2n}, so
    # 2n is not in J and min(Q) <= 2n = p
    if q > p:
        raise RuntimeError(f"q > p at ({J}, {A})")
    if q < p:
        return EtaClassification("extendable", (J, tuple(sorted(A + (q,)))))
    return EtaClassification("unextendable", (J, tuple(a for a in A if a != p)))


def extendable_by_search(J, A, n: int):
    """Direct definition: the least a < min(A) with (J, A u {a}) in BTS."""
    J, A = tuple(sorted(J)), tuple(sorted(A))
    top = min(A) if A else 2 * n
    for a in range(1, top):
        if is_bts(J, tuple(sorted(A + (a,))), n):
            return a
    return None


# ---------------------------------------------------------------------------
# exactness of (TS**, d1)
# ---------------------------------------------------------------------------

def _order_key(J: Subset, A: Subset):
    """Sort key for the triangularity order: larger J first, then smaller A.

    x_J e_A < x_K e_B iff J < K, or J = K and A > B; this key makes
    Python's < agree with that order for same-size J's (the only
    comparisons the triangularity check needs).
    """
    return (J, tuple(-a for a in reversed(A)))


def _bidegree_exactness(groups, images) -> dict[tuple[int, int], dict]:
    """Integral exactness of a differential in each bidegree (p, j).

    ``groups`` maps (p, j) to its sorted basis, and ``images[(J, A)]`` is
    the differential of x_J e_A; its terms outside the basis of (p + 1, j)
    are dropped (``exactness_check`` reports them).  With d_in the matrix from (p-1, j) and d_out the matrix
    from (p, j), the complex is exact at (p, j) over the integers iff
    rank(d_in) + rank(d_out) = dim and every elementary divisor of d_in
    equals 1.  Each matrix is reduced once: its invariants give rank(d_out)
    at its source and the divisors of d_in at its target.
    """
    invariants = {}
    for (p, j), source in groups.items():
        target = groups.get((p + 1, j), [])
        col = {key: i for i, key in enumerate(target)}
        matrix = [{col[key]: c for key, c in images[(J, A)].items()
                   if key in col} for J, A in source]
        invariants[(p, j)] = snf_invariants(matrix, len(target))
    out = {}
    for (p, j) in sorted(groups):
        dim = len(groups[(p, j)])
        rank_out = len(invariants[(p, j)])
        divisors = invariants.get((p - 1, j), [])
        rank_in = len(divisors)
        out[(p, j)] = {
            "dim": dim, "rank_in": rank_in, "rank_out": rank_out,
            "exact": rank_in + rank_out == dim and all(d == 1 for d in divisors),
        }
    return out


def exactness_check(n: int) -> dict:
    """Certify H(TS**, d1) = 0 integrally in every bidegree.

    Exactness per bidegree is decided by ``_bidegree_exactness``.  The
    report also verifies d1 o d1 = 0 on the whole basis and the
    triangularity d1(x_J e_A) = +-eta(x_J e_A) + strictly lower terms
    for every extendable element.  The three checks share one d1 image
    per basis element, and one memo of monomial normal forms.  A term of
    an image outside BTS is an ``off_basis`` counterexample.
    """
    if n < 2:
        raise ValueError("the double complex is set up for n >= 2")
    report = {"n": n, "bidegrees": {}, "d1_squared_zero": True,
              "triangular_failures": [], "counterexamples": [],
              "all_exact": True}

    memo: dict = {}
    images = {(J, A): d1({(J, A): 1}, n, memo) for J, A in enumerate_bts(n)}
    for (J, A), once in images.items():
        if d1(once, n, memo):
            report["d1_squared_zero"] = False
            report["counterexamples"].append({"kind": "d1_squared", "J": J, "A": A})
        for term in [key for key in once if key not in images]:
            report["all_exact"] = False
            report["counterexamples"].append(
                {"kind": "off_basis", "J": J, "A": A, "term": term})

    report["bidegrees"] = _bidegree_exactness(bts_by_bidegree(n), images)
    for (p, j), info in report["bidegrees"].items():
        if not info["exact"]:
            report["all_exact"] = False
            report["counterexamples"].append({"kind": "homology", "bidegree": (p, j)})

    report["triangular_failures"] = triangular_failures(n, images)
    if report["triangular_failures"] or not report["d1_squared_zero"]:
        report["all_exact"] = False
    return report


def triangular_failures(n: int, images) -> list[dict]:
    """Extendable elements whose d1 image is not +-partner plus lower terms.

    Lower is with respect to the order x_J e_A < x_K e_B iff J < K, or
    J = K and A > B.  An empty list certifies the triangularity that,
    together with the eta bijection, forces H(TS**, d1) = 0.  ``images``
    maps (J, A) to d1(x_J e_A).
    """
    failures = []
    for J, A in enumerate_bts(n):
        cls = classify_bts(J, A, n)
        if cls.status != "extendable":
            continue
        img = images[(J, A)]
        lead = cls.partner
        ok = img.get(lead, 0) in (1, -1)
        bound = _order_key(*lead)
        for key in img:
            if key != lead and _order_key(*key) >= bound:
                ok = False
        if not ok:
            failures.append({"J": J, "A": A, "image": img})
    return failures
