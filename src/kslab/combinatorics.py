"""Sparse subsets, non-crossing matchings and their bijections.

Conventions used throughout the package:

* The ambient index set is I = {1, ..., 2n}; it is passed around as the
  integer ``two_n = 2n``.
* A subset J of I is stored as a strictly increasing tuple of ints.  Python's
  tuple comparison then implements the lexicographic order on subsets: for
  unequal sizes a proper prefix counts as smaller, and for equal sizes J < K
  exactly when the smallest element of the symmetric difference lies in J.
* A matching is a fixed-point-free involution tau on {1, ..., 2n}, stored as
  a tuple ``tau`` of length 2n with ``tau[i - 1]`` the partner of i.

A subset J is *sparse* when above every j in J the non-members strictly
outnumber the members:  |J^c_{>j}| > |J_{>j}| for all j in J.  Sparse size-n
subsets are in bijection with non-crossing matchings via lambda/mu below.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

Subset = tuple[int, ...]
Tau = tuple[int, ...]


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

def check_subset(J: Subset, two_n: int) -> None:
    """Raise ValueError unless J is a strictly increasing subset of {1..2n}."""
    if any(j < 1 or j > two_n for j in J):
        raise ValueError(f"subset {J} not inside {{1..{two_n}}}")
    if any(a >= b for a, b in zip(J, J[1:])):
        raise ValueError(f"subset {J} is not strictly increasing")


def is_sparse(J: Subset, two_n: int) -> bool:
    """True iff for every j in J, |J^c_{>j}| > |J_{>j}|.

    One downward pass: the t-th largest j has |J_{>j}| = t members and
    (2n - j) - t non-members above it.
    """
    check_subset(J, two_n)
    return all(two_n - j > 2 * t for t, j in enumerate(reversed(J)))


@lru_cache(maxsize=None)
def enumerate_sparse(two_n: int, k: int | str = "all") -> tuple[Subset, ...]:
    """All sparse subsets of {1..2n} of size k (or every size), lex sorted.

    Dropping its largest element keeps a set sparse, and lex order is the
    preorder of adding a larger element, so one depth-first walk lists
    every sparse set in order.  ``slack`` is the least 2n - j - 2|J_{>j}|
    over j in J, which must stay positive: adding x above J lowers each
    term by 2 and adds the term 2n - x.
    """
    if k != "all":
        return tuple(J for J in enumerate_sparse(two_n) if len(J) == k)
    out: list[Subset] = []

    def grow(J: Subset, slack: int) -> None:
        out.append(J)
        if slack > 2:
            for x in range(J[-1] + 1 if J else 1, two_n):
                grow(J + (x,), min(slack - 2, two_n - x))

    grow((), two_n + 2)
    return tuple(out)


def sparse_count(n: int, p: int) -> int:
    """Number of sparse p-subsets of {1..2n}: C(2n,p) - C(2n,p-1) for p <= n."""
    if p < 0 or p > n:
        return 0
    return comb(2 * n, p) - (comb(2 * n, p - 1) if p >= 1 else 0)


# ---------------------------------------------------------------------------
# generating function for the sparse counts
# ---------------------------------------------------------------------------

def gf_coefficients(max_n: int) -> list[list[int]]:
    """Coefficient table of 2t / ((t-1) + (t+1) sqrt(1-4st)).

    Entry [n][k] is the coefficient of s^n t^k, for k <= n.  The Catalan
    identity sqrt(1-4x) = 1 - 2 sum_{m>=1} C_{m-1} x^m, with C_m the
    Catalan numbers, turns the denominator into

        2t (1 - (1+t) sum_{m>=1} C_{m-1} t^{m-1} s^m),

    so the series is the inverse of 1 - (1+t) sum_m C_{m-1} t^{m-1} s^m:
    Q_0 = 1 and Q_n = (1+t) sum_{m=1..n} C_{m-1} t^{m-1} Q_{n-m}.  The
    recurrence stays in the integers, and Q_n has degree n in t.
    """
    catalan = [comb(2 * m, m) // (m + 1) for m in range(max_n)]
    Q: list[list[int]] = [[1]]
    for n in range(1, max_n + 1):
        # P = sum_{m=1..n} C_{m-1} t^{m-1} Q_{n-m}, of degree n - 1
        P = [0] * n
        for m in range(1, n + 1):
            for k, c in enumerate(Q[n - m]):
                P[m - 1 + k] += catalan[m - 1] * c
        Q.append([a + b for a, b in zip(P + [0], [0] + P)])
    return Q


# ---------------------------------------------------------------------------
# non-crossing matchings
# ---------------------------------------------------------------------------

def check_matching(tau: Tau) -> None:
    two_n = len(tau)
    if two_n % 2:
        raise ValueError("matching needs an even number of points")
    for i in range(1, two_n + 1):
        j = tau[i - 1]
        if j == i:
            raise ValueError(f"fixed point at {i}")
        if not 1 <= j <= two_n or tau[j - 1] != i:
            raise ValueError(f"not an involution at {i}")


def is_noncrossing(tau: Tau) -> bool:
    """No pair i < j < tau(i) < tau(j)."""
    check_matching(tau)
    two_n = len(tau)
    for i in range(1, two_n + 1):
        for j in range(i + 1, two_n + 1):
            if j < tau[i - 1] < tau[j - 1]:
                return False
    return True


def matching_from_pairs(pairs, two_n: int) -> Tau:
    tau = [0] * two_n
    for a, b in pairs:
        tau[a - 1] = b
        tau[b - 1] = a
    out = tuple(tau)
    check_matching(out)
    return out


def matching_pairs(tau: Tau) -> list[tuple[int, int]]:
    """The matching as a sorted list of (smaller, larger) pairs."""
    return [(i, tau[i - 1]) for i in range(1, len(tau) + 1) if tau[i - 1] > i]


@lru_cache(maxsize=None)
def enumerate_matchings(n: int) -> tuple[Tau, ...]:
    """All non-crossing matchings on {1..2n}, by direct nesting recursion.

    Point 1 pairs with some even-offset partner 2m; the points strictly
    between them and the points after them are matched independently.  This
    is deliberately independent of the sparse-set machinery so the two
    enumerations can serve as oracles for each other.
    """
    def rec(points: tuple[int, ...]):
        if not points:
            yield []
            return
        a = points[0]
        for idx in range(1, len(points), 2):
            b = points[idx]
            inner = points[1:idx]
            outer = points[idx + 1:]
            for mi in rec(inner):
                for mo in rec(outer):
                    yield [(a, b)] + mi + mo

    out = [matching_from_pairs(pl, 2 * n) for pl in rec(tuple(range(1, 2 * n + 1)))]
    return tuple(sorted(out))


def lambda_of(tau: Tau) -> Subset:
    """The set of left endpoints {i : tau(i) > i}; sparse of size n."""
    check_matching(tau)
    return tuple(i for i in range(1, len(tau) + 1) if tau[i - 1] > i)


@lru_cache(maxsize=None)
def mu_of(J: Subset, two_n: int) -> Tau:
    """The unique non-crossing matching with left-endpoint set J.

    One left-to-right pass keeps a stack of the open left endpoints: each
    j in J is pushed, and each i outside J closes the innermost open arc,
    the top of the stack.  J sparse of size n is exactly the condition
    that the stack never runs dry.
    """
    n = two_n // 2
    if len(J) != n or not is_sparse(J, two_n):
        raise ValueError(f"{J} is not a sparse size-{n} subset of {{1..{two_n}}}")
    members = set(J)
    tau = [0] * two_n
    open_ends: list[int] = []
    for i in range(1, two_n + 1):
        if i in members:
            open_ends.append(i)
        else:
            j = open_ends.pop()
            tau[i - 1] = j
            tau[j - 1] = i
    return tuple(tau)


# ---------------------------------------------------------------------------
# sparse closures
# ---------------------------------------------------------------------------

def sparse_closure(J: Subset, two_n: int, kind: str) -> Subset:
    """Closure operations on sparse sets.

    * ``plus``: J + {min(J^c)}; stays sparse, size grows by one.
    * ``bar``:  plus iterated up to size n, which adds the least non-member
      each time: J together with its n - |J| least non-members, the
      lexicographically smallest sparse size-n superset of J.
    """
    n = two_n // 2
    if not is_sparse(J, two_n):
        raise ValueError(f"{J} is not sparse in {{1..{two_n}}}")
    if kind == "plus":
        if len(J) >= n:
            raise ValueError("plus needs |J| < n")
        missing = 1
    elif kind == "bar":
        missing = n - len(J)
    else:
        raise ValueError(f"unknown closure kind {kind!r}")
    members = set(J)
    added = [x for x in range(1, two_n + 1) if x not in members][:missing]
    out = tuple(sorted(J + tuple(added)))
    if not is_sparse(out, two_n):
        raise RuntimeError(f"{kind} closure {out} of {J} is not sparse")
    return out


# ---------------------------------------------------------------------------
# dotted matchings and the standard/costandard conjecture
# ---------------------------------------------------------------------------

def _is_standard(tau: Tau, lam: Subset, dots) -> bool:
    """No pair i < j < tau(j) < tau(i) with j dotted, lam = lambda(tau)."""
    return not any(i < j and tau[j - 1] < tau[i - 1]
                   for j in dots for i in lam)


def _nested_left_endpoints(tau: Tau, lam: Subset) -> set[int]:
    """The j in lam under an arc, i < j < tau(j) < tau(i): a dotting is
    standard iff it avoids them."""
    return {j for j in lam
            if any(i < j and tau[j - 1] < tau[i - 1] for i in lam)}


def classify_dotted(tau: Tau, dots: Subset) -> dict[str, bool]:
    """Flags for a dotted matching (tau, S), S a set of left endpoints.

    * standard:   there is no pair i < j < tau(j) < tau(i) with j dotted
      (no dotted arc is nested under another arc's span).
    * costandard: (tau, S) = (mu(bar(J)), bar(J) minus J) for some sparse J;
      equivalently J := lambda(tau) minus S is sparse and bar(J) = lambda(tau).
    """
    two_n = len(tau)
    lam = lambda_of(tau)
    if not set(dots) <= set(lam):
        raise ValueError(f"dots {dots} not contained in left endpoints {lam}")
    dotset = set(dots)

    standard = _is_standard(tau, lam, dotset)
    J = tuple(x for x in lam if x not in dotset)
    costandard = is_sparse(J, two_n) and sparse_closure(J, two_n, "bar") == lam
    return {"standard": standard, "costandard": costandard}


def star_dotted_set(n: int) -> set[tuple[Tau, Subset]]:
    """All dotted matchings of the form (mu(J*), J* minus J), J sparse.

    J* is the lexicographically largest sparse size-n superset of J: the
    first superset met scanning the lex-sorted sparse size-n sets from the
    end, tested on bitmasks (bit j - 1 for j).
    """
    two_n = 2 * n
    tops = [(sum(1 << (k - 1) for k in K), K)
            for K in reversed(enumerate_sparse(two_n, n))]
    out: set[tuple[Tau, Subset]] = set()
    for J in enumerate_sparse(two_n, "all"):
        mask = sum(1 << (j - 1) for j in J)
        Jstar = next(K for top, K in tops if top & mask == mask)
        Jset = set(J)
        dots = tuple(x for x in Jstar if x not in Jset)
        out.add((mu_of(Jstar, two_n), dots))
    return out


def conjecture_scan(n: int) -> dict:
    """Compare standard dottings with the star-closure dottings, exhaustively.

    The conjecture under test: a dotted matching is standard iff it arises as
    (mu(J*), J* minus J) for some sparse J, where J* is the lexicographically
    largest sparse size-n superset.  Returns counts and any counterexamples;
    this is evidence gathering, not an assertion.  Every dotting is
    tested against its matching's nested left endpoints, found once.
    """
    two_n = 2 * n
    star_set = star_dotted_set(n)
    scanned = 0
    n_standard = 0
    counterexamples = []
    for tau in enumerate_matchings(n):
        lam = lambda_of(tau)
        nested = _nested_left_endpoints(tau, lam)
        for r in range(len(lam) + 1):
            for dots in combinations(lam, r):
                scanned += 1
                std = nested.isdisjoint(dots)
                if std:
                    n_standard += 1
                if std != ((tau, dots) in star_set):
                    counterexamples.append(
                        {"pairs": matching_pairs(tau), "dots": list(dots),
                         "standard": std}
                    )
    return {
        "n": n,
        "dotted_matchings_scanned": scanned,
        "standard_count": n_standard,
        "star_image_count": len(star_set),
        "counterexamples": counterexamples,
    }
