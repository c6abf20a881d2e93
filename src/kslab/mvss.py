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
int masks J and A with nonzero c: bit i-1 stands for x_i in J and for e_i
in A, the convention of ``springer.reduce_in``.  Index tuples appear only
in the counterexamples of a report.  This module builds the basis,
normalizes arbitrary elements onto it (each monomial folded bit by bit,
its body part reduced by ``springer.reduce_in``), implements d_1,
classifies basis elements as extendable/unextendable with the eta/zeta
pairing, and certifies integrally that (TS**, d_1) is exact in every
bidegree, with eta an acyclic matching that leaves no critical cell.

Sign convention: multiplying e_A by e_t uses the insertion count, i.e.
e_A e_t = (-1)^{|{a in A : a < t}|} e_{A u {t}} (and zero when t is in A).
Any consistent convention gives an isomorphic complex; this one is fixed
so that matrices from different bidegrees can be composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .combinatorics import enumerate_sparse, is_sparse
from .graph_rings import pinch_substitution
from .graphs import hedgehog_analyze
from .springer import reduce_in

Key = tuple[int, int]             # (J, A) as masks
TS = dict[Key, int]               # {(J, A): c}: sum of c x_J e_A


def _indices(mask: int) -> tuple[int, ...]:
    """The indices i with bit i-1 set, in increasing order."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _report_key(key: Key) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return _indices(key[0]), _indices(key[1])


@lru_cache(maxsize=None)
def _body(n: int, A: int) -> tuple[int, tuple[int, ...]]:
    """The body mask and the body indices of the hedgehog for pinch set A;
    the other unpinched indices, {1..2n} \\ (A + 1), are its spines."""
    body = hedgehog_analyze(n, _indices(A)).body_indices
    return sum(1 << (b - 1) for b in body), body


# ---------------------------------------------------------------------------
# the BTS basis
# ---------------------------------------------------------------------------

def is_bts(J: int, A: int, n: int) -> bool:
    """Membership of x_J e_A in BTS (a negative mask shifts to -1)."""
    if A >> (2 * n - 1) or J >> (2 * n) or J & A << 1:
        return False
    _, body = _body(n, A)
    return is_sparse(tuple(i + 1 for i, b in enumerate(body)
                           if J >> (b - 1) & 1), len(body))


@lru_cache(maxsize=None)
def enumerate_bts(n: int) -> tuple[Key, ...]:
    """All pairs (J, A) indexing the BTS basis, sorted."""
    out = []
    for A in range(1 << (2 * n - 1)):
        body_mask, body = _body(n, A)
        bodies = [sum(1 << (body[i - 1] - 1) for i in K)
                  for K in enumerate_sparse(len(body))]
        spine_parts = [0]
        for s in _indices((1 << 2 * n) - 1 & ~(A << 1 | body_mask)):
            spine_parts += [S | 1 << (s - 1) for S in spine_parts]
        out += [(S | K, A) for S in spine_parts for K in bodies]
    return tuple(sorted(out))


def bts_count(n: int) -> int:
    """|BTS(n)| without enumerating it.

    A pinch set A is a composition of 2n, its parts the gaps of A^# u
    {2n + 1} above 0: an even part is a spine, in J or not, and the 2m odd
    parts form a body with C(2m, m) sparse subsets.  ``ways[s][k]`` counts
    the compositions of s with k odd parts, weighted by 2 per even part.
    """
    ways = [[1]]
    for s in range(1, 2 * n + 1):
        ways.append([0] * (s + 1))
        for part in range(1, s + 1):
            for k, w in enumerate(ways[s - part]):
                ways[s][k + part % 2] += w if part % 2 else 2 * w
    return sum(w * comb(k, k // 2) for k, w in enumerate(ways[-1])
               if k % 2 == 0)


@lru_cache(maxsize=None)
def bts_by_bidegree(n: int) -> dict[tuple[int, int], list[Key]]:
    """BTS basis grouped by bidegree (|A|, |J|), each group sorted."""
    groups: dict[tuple[int, int], list[Key]] = {}
    for J, A in enumerate_bts(n):
        groups.setdefault((A.bit_count(), J.bit_count()), []).append((J, A))
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
    scopes, maps (J, A) to the normal form of x_J e_A.
    """
    memo = {} if memo is None else memo
    terms: TS = {}
    for key, c in raw.items():
        if c == 0:
            continue
        form = memo.get(key)
        if form is None:
            J, A = key
            if J >> (2 * n) or A >> (2 * n - 1):      # -1 when negative
                raise ValueError(f"masks (J, A) = ({J:#b}, {A:#b}) outside "
                                 f"x_1..x_{2 * n} and e_1..e_{2 * n - 1}")
            form = memo[key] = _monomial_normal_form(J, A, n)
        for term, cr in form.items():
            terms[term] = terms.get(term, 0) + c * cr
    return {term: v for term, v in terms.items() if v}


def _monomial_normal_form(J: int, A: int, n: int) -> TS:
    """The normal form of x_J e_A, as ``ts_normal_form`` describes it."""
    mapping = pinch_substitution(_indices(A))
    folded, sign = 0, 1
    for j in _indices(J):
        s, r = mapping.get(j, (1, j))
        if folded >> (r - 1) & 1:
            return {}
        folded, sign = folded | 1 << (r - 1), sign * s
    body, body_indices = _body(n, A)
    # E(I) is commutative and the spine and body supports are disjoint:
    # x_folded = x_spine x_body, with no sign
    spine = folded & ~body
    return {(spine | M, A): c
            for M, c in reduce_in({folded & body: sign}, body_indices).items()}


def d1(a: TS, n: int, memo: dict | None = None) -> TS:
    """Right multiplication by u = e_1 + ... + e_{2n-1}, renormalized
    (``memo`` as in ``ts_normal_form``)."""
    raw: TS = {}
    for (J, A), c in a.items():
        for t in range(2 * n - 1):
            if A >> t & 1:      # the sign of e_A e_t flips at each a < t
                c = -c
            else:
                key = (J, A | 1 << t)
                raw[key] = raw.get(key, 0) + c
    return ts_normal_form(raw, n, memo)


# ---------------------------------------------------------------------------
# extendable / unextendable classification and the eta bijection
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EtaClassification:
    status: str                       # "extendable" | "unextendable"
    partner: Key                      # eta(J,A) resp. zeta(J,A)


def classify_bts(J: int, A: int, n: int) -> EtaClassification:
    """Classify x_J e_A via the arithmetic p = min(A), q = min(Q) - 1.

    Here Q = {2, ..., 2n} \\ J (always nonempty on BTS), min of an empty A
    is read as 2n, and q <= p always holds.  q < p means extendable with
    partner (J, A u {q}); q = p means unextendable with partner
    (J, A \\ {p}).  On masks, p is the lowest set bit of A and q + 1 the
    lowest unset bit of J | {1}.
    """
    if not is_bts(J, A, n):
        raise ValueError(f"{_report_key((J, A))} is not in BTS")
    p = (A & -A).bit_length() if A else 2 * n
    free = ~(J | 1)
    q = (free & -free).bit_length() - 1
    # q <= p: for A nonempty, p + 1 is pinched, so not in J, and lies in
    # {2..2n}, so min(Q) <= p + 1; for A empty, J is sparse in {1..2n}, so
    # 2n is not in J and min(Q) <= 2n = p
    if q > p:
        raise RuntimeError(f"q > p at {_report_key((J, A))}")
    if q < p:
        return EtaClassification("extendable", (J, A | 1 << (q - 1)))
    return EtaClassification("unextendable", (J, A & (A - 1)))


# ---------------------------------------------------------------------------
# exactness of (TS**, d1)
# ---------------------------------------------------------------------------

def _is_lower(key: Key, bound: Key) -> bool:
    """x_J e_A < x_K e_B: J < K, or J = K and A > B, on same-size sets
    (the only ones the triangularity check compares).  J < K in the
    lexicographic order exactly when the lowest bit of J ^ K lies in J;
    A > B compares the largest element of A ^ B, as ints do."""
    (J, A), (K, B) = key, bound
    diff = J ^ K
    return bool(J & diff & -diff) if diff else A > B


def exactness_check(n: int) -> dict:
    """Certify H(TS**, d1) = 0 integrally in every bidegree, with no SNF.

    Three checks share one d1 image per basis element and one memo of
    monomial normal forms: d1 o d1 = 0, summed from the images; eta is a
    bijection from the extendable elements of each bidegree (p, j) onto
    the unextendable ones of (p + 1, j), with inverse zeta
    (``matching_failures``); and d1(x) = +-eta(x) + terms lower than eta(x)
    for every extendable x (``triangular_failures``).  Then the block of d1
    from the extendable elements of (p, j) to the unextendable ones of
    (p + 1, j), both ordered along eta, is unitriangular, so invertible
    over Z.  So projecting onto the unextendable coordinates of (p, j) is
    injective on ker d_out and maps im d_in onto them (the block one
    bidegree down).  With d1^2 = 0 that gives im d_in = ker d_out: eta is
    an acyclic matching with no critical cells (Forman, Adv. Math. 134,
    1998; Skoldberg, Trans. AMS 358, 2006).  Per bidegree, ``rank_out``
    counts the extendable elements, ``rank_in`` the unextendable ones, and
    ``exact`` says that they add up to ``dim``.  A term of an image outside
    BTS is an ``off_basis`` counterexample, a break in the matching an
    ``eta`` one.  Reports write J and A as index tuples.
    """
    if n < 2:
        raise ValueError("the double complex is set up for n >= 2")
    report = {"n": n, "bidegrees": {}, "d1_squared_zero": True,
              "triangular_failures": [], "counterexamples": [],
              "all_exact": True}

    memo: dict = {}
    images = {key: d1({key: 1}, n, memo) for key in enumerate_bts(n)}
    found = report["counterexamples"]
    for key, once in images.items():
        twice: TS = {}
        off_basis = []
        for term, c in once.items():
            image = images.get(term)
            if image is None:
                image = d1({term: 1}, n, memo)
                off_basis.append(term)
            for t, ct in image.items():
                twice[t] = twice.get(t, 0) + c * ct
        squared = any(twice.values())
        if not (squared or off_basis):
            continue
        # the index tuples are built only for a counterexample
        J, A = _report_key(key)
        if squared:
            report["d1_squared_zero"] = False
            found.append({"kind": "d1_squared", "J": J, "A": A})
        found += [{"kind": "off_basis", "J": J, "A": A,
                   "term": _report_key(term)} for term in off_basis]

    classes = {key: classify_bts(*key, n) for key in images}
    found += matching_failures(classes)
    for bidegree, basis in sorted(bts_by_bidegree(n).items()):
        statuses = [classes[key].status for key in basis]
        rank_in = statuses.count("unextendable")
        rank_out = statuses.count("extendable")
        report["bidegrees"][bidegree] = {
            "dim": len(basis), "rank_in": rank_in, "rank_out": rank_out,
            "exact": rank_in + rank_out == len(basis)}
    report["triangular_failures"] = triangular_failures(images, classes)
    # a count is inexact only at a status other than the two: an eta failure
    report["all_exact"] = not (found or report["triangular_failures"])
    return report


def matching_failures(classes: dict[Key, EtaClassification]) -> list[dict]:
    """``eta`` counterexamples: each basis element (J, A) whose partner
    (``classes`` maps each element to its ``classify_bts``) is outside BTS,
    has the same status, has another partner, or is not x_J e_B with
    |B| = |A| + 1 (extendable) or |A| - 1 (unextendable)."""
    failures = []
    for (J, A), cls in classes.items():
        K, B = cls.partner
        mate = classes.get(cls.partner)
        step = 1 if cls.status == "extendable" else -1
        if mate is None or mate.partner != (J, A) or K != J or \
                B.bit_count() != A.bit_count() + step or \
                {cls.status, mate.status} != {"extendable", "unextendable"}:
            failures.append({"kind": "eta", "J": _indices(J),
                             "A": _indices(A), "status": cls.status,
                             "partner": _report_key(cls.partner)})
    return failures


def triangular_failures(images, classes) -> list[dict]:
    """Extendable elements whose d1 image is not +-eta plus lower terms.

    Lower is in the order x_J e_A < x_K e_B iff J < K, or J = K and A > B.
    ``images`` and ``classes`` map (J, A) to d1(x_J e_A) and to its
    ``classify_bts``; a failure writes its keys as index tuples.
    """
    failures = []
    for (J, A), cls in classes.items():
        if cls.status != "extendable":
            continue
        img = images[(J, A)]
        lead = cls.partner
        if img.get(lead, 0) not in (1, -1) or \
                any(key != lead and not _is_lower(key, lead) for key in img):
            failures.append({"J": _indices(J), "A": _indices(A), "image": {
                _report_key(key): c for key, c in img.items()}})
    return failures
