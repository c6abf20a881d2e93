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

This module builds the basis, normalizes arbitrary elements onto it,
implements d_1, classifies basis elements as extendable/unextendable with
the eta/zeta pairing, and certifies integrally that (TS**, d_1) is exact
in every bidegree by direct Smith-normal-form computation.

Sign convention: multiplying e_A by e_t uses the insertion count, i.e.
e_A e_t = (-1)^{|{a in A : a < t}|} e_{A u {t}} (and zero when t is in A).
Any consistent convention gives an isomorphic complex; this one is fixed
so that matrices from different bidegrees can be composed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .combinatorics import is_sparse_in
from .exterior import ExtElement
from .graph_rings import pinch_substitution
from .graphs import Hedgehog, hedgehog_analyze
from .intlinalg import snf_invariants
from .springer import reduce_in

Subset = tuple[int, ...]


@lru_cache(maxsize=None)
def _hedgehog(n: int, A: Subset) -> Hedgehog:
    return hedgehog_analyze(n, A)


@dataclass
class TSElement:
    """An element of TS**: integer combination of monomials x_J e_A."""

    n: int
    terms: dict[tuple[Subset, Subset], int] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, TSElement)
                and self.n == other.n and self.terms == other.terms)

    def __add__(self, other: "TSElement") -> "TSElement":
        if self.n != other.n:
            raise ValueError("mixed ambient sizes")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
            if terms[key] == 0:
                del terms[key]
        return TSElement(self.n, terms)

    @staticmethod
    def basis_element(J, A, n: int) -> "TSElement":
        return TSElement(n, {(tuple(sorted(J)), tuple(sorted(A))): 1})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (J, A), c in sorted(self.terms.items()):
            xs = "".join(f"x{j}" for j in J) or ""
            es = "".join(f"e{a}" for a in A) or ""
            body = (xs + es) or "1"
            bits.append(f"{'+' if c >= 0 else '-'}{abs(c) if abs(c) != 1 or body == '1' else ''}{body}")
        return "".join(bits)


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
        sparse_bodies = [K for r in range(len(body) + 1)
                         for K in combinations(body, r)
                         if is_sparse_in(K, body)]
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

def ts_normal_form(raw: dict[tuple[Subset, Subset], int], n: int,
                   substitution=pinch_substitution) -> TSElement:
    """Rewrite an integer combination of monomials x_J e_A onto BTS.

    Per term: the pinch relations e_a (x_a + x_{a+1}) replace each x_j by
    +-x_rep(j) with rep(j) the bottom of its pinch block; squares die; the
    body part of the surviving monomial is reduced to its sparse normal
    form inside the body ring, while spine variables pass through freely.
    ``substitution(A)`` gives the relabelling {j: (sign, rep(j))} that
    the relations impose on e_A; ``mv_two_sets_demo`` swaps in a wrong
    one to show that the exactness check notices.
    """
    two_n = 2 * n
    terms: dict[tuple[Subset, Subset], int] = {}
    for (J, A), c in raw.items():
        if c == 0:
            continue
        J, A = tuple(sorted(J)), tuple(sorted(A))
        if any(j < 1 or j > two_n for j in J):
            raise ValueError(f"x-index out of range in {J}")
        if any(a < 1 or a >= two_n for a in A):
            raise ValueError(f"e-index out of range in {A}")
        folded = ExtElement.monomial(J, two_n).relabel_signed(
            substitution(A))
        if folded.is_zero():
            continue
        h = _hedgehog(n, A)
        body = set(h.body_indices)
        for Jf, cf in folded.terms.items():
            # E(I) is commutative: x_Jf = x_spine x_body, with no sign
            spine_part = tuple(j for j in Jf if j not in body)
            body_part = tuple(j for j in Jf if j in body)
            reduced = ExtElement.monomial(spine_part, two_n) * reduce_in(
                ExtElement.monomial(body_part, two_n), h.body_indices)
            for Jr, cr in reduced.terms.items():
                key = (Jr, A)
                terms[key] = terms.get(key, 0) + c * cf * cr
    return TSElement(n, {key: v for key, v in terms.items() if v})


def d1(a: TSElement, substitution=pinch_substitution) -> TSElement:
    """Right multiplication by u = e_1 + ... + e_{2n-1}, renormalized."""
    n = a.n
    raw: dict[tuple[Subset, Subset], int] = {}
    for (J, A), c in a.terms.items():
        for t in range(1, 2 * n):
            if t in A:
                continue
            sign = (-1) ** sum(1 for x in A if x < t)
            key = (J, tuple(sorted(A + (t,))))
            raw[key] = raw.get(key, 0) + c * sign
    return ts_normal_form(raw, n, substitution)


# ---------------------------------------------------------------------------
# extendable / unextendable classification and the eta bijection
# ---------------------------------------------------------------------------

@dataclass
class EtaClassification:
    element: tuple[Subset, Subset]
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
    if q > p:
        raise AssertionError(f"q > p at ({J}, {A})")
    if q < p:
        return EtaClassification((J, A), "extendable",
                                 (J, tuple(sorted(A + (q,)))))
    return EtaClassification((J, A), "unextendable",
                             (J, tuple(a for a in A if a != p)))


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


def _bidegree_exactness(groups, image) -> dict[tuple[int, int], dict]:
    """Integral exactness of a differential in each bidegree (p, j).

    ``groups`` maps (p, j) to its sorted basis, and ``image(J, A)`` is
    the differential of x_J e_A, with every term in the basis of
    (p + 1, j).  With d_in the matrix from (p-1, j) and d_out the matrix
    from (p, j), the complex is exact at (p, j) over the integers iff
    rank(d_in) + rank(d_out) = dim and every elementary divisor of d_in
    equals 1.  Each matrix is reduced once: its invariants give rank(d_out)
    at its source and the divisors of d_in at its target.
    """
    invariants = {}
    for (p, j), source in groups.items():
        target = groups.get((p + 1, j), [])
        col = {key: i for i, key in enumerate(target)}
        matrix = [{col[key]: c for key, c in image(J, A).terms.items()}
                  for J, A in source]
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
    per basis element.
    """
    if n < 2:
        raise ValueError("the double complex is set up for n >= 2")
    report = {"n": n, "bidegrees": {}, "d1_squared_zero": True,
              "triangular_failures": [], "counterexamples": [],
              "all_exact": True}

    images = {(J, A): d1(TSElement.basis_element(J, A, n))
              for J, A in enumerate_bts(n)}
    for (J, A), once in images.items():
        if not d1(once).is_zero():
            report["d1_squared_zero"] = False
            report["counterexamples"].append({"kind": "d1_squared", "J": J, "A": A})

    report["bidegrees"] = _bidegree_exactness(
        bts_by_bidegree(n), lambda J, A: images[(J, A)])
    for (p, j), info in report["bidegrees"].items():
        if not info["exact"]:
            report["all_exact"] = False
            report["counterexamples"].append({"kind": "homology", "bidegree": (p, j)})

    report["triangular_failures"] = triangular_failures(n, images)
    if report["triangular_failures"] or not report["d1_squared_zero"]:
        report["all_exact"] = False
    return report


def triangular_failures(n: int, images=None) -> list[dict]:
    """Extendable elements whose d1 image is not +-partner plus lower terms.

    Lower is with respect to the order x_J e_A < x_K e_B iff J < K, or
    J = K and A > B.  An empty list certifies the triangularity that,
    together with the eta bijection, forces H(TS**, d1) = 0.  ``images``
    maps (J, A) to d1(x_J e_A); when it is None they are computed here.
    """
    failures = []
    for J, A in enumerate_bts(n):
        cls = classify_bts(J, A, n)
        if cls.status != "extendable":
            continue
        img = (images[(J, A)] if images is not None
               else d1(TSElement.basis_element(J, A, n)))
        lead = cls.partner
        ok = img.terms.get(lead, 0) in (1, -1)
        bound = _order_key(*lead)
        for key in img.terms:
            if key != lead and _order_key(*key) >= bound:
                ok = False
        if not ok:
            failures.append({"J": J, "A": A, "image": img.terms})
    return failures


def row_euler_characteristics(n: int) -> dict[int, int]:
    """For each x-degree j, the alternating sum of BTS dimensions over p."""
    out: dict[int, int] = {}
    for (p, j), basis in bts_by_bidegree(n).items():
        out[j] = out.get(j, 0) + (-1) ** p * len(basis)
    return out


# ---------------------------------------------------------------------------
# the two-set Mayer-Vietoris demonstration
# ---------------------------------------------------------------------------

def _broken_pinch_substitution(A: Subset) -> dict[int, tuple[int, int]]:
    """The pinch substitution with the relation at the pinch 1 replaced by
    e_1 (x_3 + x_2): x_2 goes to -x_3 instead of -x_1."""
    mapping = dict(pinch_substitution(A))
    if 2 in mapping:
        mapping[2] = (-1, 3)
    return mapping


def mv_two_sets_demo(corrupt: bool = False) -> dict:
    """The three-column complex of a two-set cover, over n = 2.

    Columns p = 0, 1, 2 are spanned by the BTS elements with A a subset of
    {1, 2}; the differential is d1 with the terms outside those columns
    dropped, i.e. multiplication by e_1 + e_2 (the wrong relation below
    also yields monomials outside BTS, which are dropped as well).  With the correct
    relations the complex is exact everywhere (the second page of the
    corresponding spectral sequence vanishes identically, matching the
    two-set Mayer-Vietoris identification).  Setting ``corrupt=True``
    replaces the relation e_1 (x_1 + x_2) by e_1 (x_3 + x_2), which the
    rank check then detects.
    """
    n = 2
    substitution = (_broken_pinch_substitution if corrupt
                    else pinch_substitution)
    basis = [(J, A) for J, A in enumerate_bts(n) if set(A) <= {1, 2}]
    groups: dict[tuple[int, int], list[tuple[Subset, Subset]]] = {}
    for J, A in basis:
        groups.setdefault((len(A), len(J)), []).append((J, A))
    span = set(basis)

    def image(J, A):
        img = d1(TSElement.basis_element(J, A, n), substitution)
        return TSElement(n, {k: c for k, c in img.terms.items() if k in span})

    columns = _bidegree_exactness(groups, image)
    return {"columns": columns,
            "exact_everywhere": all(c["exact"] for c in columns.values()),
            "corrupted": corrupt}
