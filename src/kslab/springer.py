"""The ring R(I) = E(I) / (sigma_1, ..., sigma_2n) and its normal form.

Polynomials are {mask: coeff} dicts, bit j-1 for x_j, as in graph_rings.
R(n) has the sparse monomials BR(n) = {x_J : J sparse} as a Z-basis.  The
normal form is computed by the rewriting rule: for a non-sparse support J
with largest sparsity-violating index j, put K = J_{<j}, L = J_{>=j},
p = |L| - 1 and M = L + {1, ..., j-1}; then x_K * sigma_{p+1}(M) vanishes in
R(I) (its degree is too large relative to |M|), its highest term is x_J, and
so x_J can be replaced by x_J - x_K * sigma_{p+1}(M), which only involves
lexicographically smaller supports.  Iterating terminates and lands on the
sparse normal form.  The largest violating index of a mask is found in one
downward bit scan, which finds none exactly when the support is sparse, and
the normal form of each monomial mask is memoised.

The module also provides the evaluation maps rho_K into E(K) (one for each
size-n sparse K, via the matching mu(K)), their product rho which is a split
monomorphism into Q(I) = prod_K E(K), and Hilbert ranks.  ``leading_check``
reads each rho_K off a signed int table; ``rho_K`` and ``rho_all`` on
``ExtElement`` are its test oracle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .combinatorics import (
    enumerate_sparse,
    is_sparse,
    mu_of,
    sparse_closure,
    sparse_count,
)
from .exterior import ExtElement
from .intlinalg import snf_invariants

Subset = tuple[int, ...]
Poly = dict[int, int]                   # {mask: coeff}, bit j-1 for x_j


def _largest_violation(mask: int, two_n: int) -> int:
    """The largest j in the support with 2n - j <= 2 |J_{>j}|, or 0 when
    there is none, i.e. when the support is sparse."""
    above = 0
    while mask:
        j = mask.bit_length()
        if two_n - j <= 2 * above:
            return j
        above += 1
        mask ^= 1 << (j - 1)
    return 0


@lru_cache(maxsize=None)
def _normal_form(mask: int, two_n: int) -> tuple[tuple[int, int], ...]:
    """The normal form of x_mask in R(two_n) as (mask, coeff) pairs.

    x_J - x_K sigma_{p+1}(M) is minus the sum of x_K x_S over the |L|-sets
    S of M \\ K other than L; each is lower than J, as S holds an index
    below j outside K.
    """
    j = _largest_violation(mask, two_n)
    if not j:
        return ((mask, 1),)
    low = (1 << (j - 1)) - 1
    K = mask & low
    L = mask ^ K
    free = L | low & ~K
    bits = [1 << b for b in range(two_n) if free >> b & 1]
    out: Poly = {}
    for S in combinations(bits, L.bit_count()):
        T = K | sum(S)
        if T != mask:
            for M, c in _normal_form(T, two_n):
                out[M] = out.get(M, 0) - c
    return tuple((M, c) for M, c in out.items() if c)


def reduce(poly: Poly, two_n: int) -> Poly:
    """Normal form of the polynomial ``poly`` in R(two_n)."""
    out: Poly = {}
    for mask, c in poly.items():
        if mask >> two_n:
            raise ValueError(f"monomial {mask:b} outside x_1..x_{two_n}")
        for M, v in _normal_form(mask, two_n):
            out[M] = out.get(M, 0) + c * v
    return {M: c for M, c in out.items() if c}


def reduce_in(poly: Poly, ambient: Subset) -> Poly:
    """Normal form in R(ambient) for an arbitrary even-size ordered ambient:
    the i-th ambient variable moves to bit i and back."""
    bits = [1 << (v - 1) for v in ambient]
    if len(bits) % 2:
        raise ValueError("ambient must have even size")
    if any(mask & ~sum(bits) for mask in poly):
        raise ValueError(f"a monomial of {poly} is outside {ambient}")
    small = {sum(1 << i for i, b in enumerate(bits) if mask & b): c
             for mask, c in poly.items()}
    return {sum(b for i, b in enumerate(bits) if M >> i & 1): c
            for M, c in reduce(small, len(bits)).items()}


# ---------------------------------------------------------------------------
# the evaluation maps rho_K and the product map rho
# ---------------------------------------------------------------------------

def rho_K(a: ExtElement, K: Subset) -> ExtElement:
    """Evaluation into E(K): x_k -> x_k for k in K, x_{tau(k)} -> -x_k."""
    two_n = a.nvars
    if len(K) != two_n // 2 or not is_sparse(K, two_n):
        raise ValueError(f"{K} is not a size-n sparse subset")
    tau = mu_of(K, two_n)
    return a.relabel_signed({tau[k - 1]: (-1, k) for k in K})


def rho_all(a: ExtElement) -> dict[Subset, ExtElement]:
    """All components of rho(a) in Q(I) = prod_K E(K), keyed by K."""
    two_n = a.nvars
    return {K: rho_K(a, K) for K in enumerate_sparse(two_n, two_n // 2)}


def q_basis(n: int) -> list[tuple[Subset, Subset]]:
    """The monomial basis of Q(I): pairs (K, T) with T a subset of K."""
    two_n = 2 * n
    out = []
    for K in enumerate_sparse(two_n, n):
        subs = [()]
        for k in K:
            subs = subs + [s + (k,) for s in subs]
        for T in subs:
            out.append((K, tuple(sorted(T))))
    return out


def leading_check(n: int) -> dict:
    """Certify that rho is a split monomorphism.

    (i) For every sparse J the highest term of rho(x_J), in the order where
    x_J eps_K < x_J' eps_K' iff J < J' or (J = J' and K > K'), must be
    x_J eps_{bar(J)} with coefficient exactly +1.
    (ii) For n <= 3 only (it follows from (i)), assemble the integer matrix
    of rho from the sparse basis to the monomial basis of Q(I) and check
    through the Smith normal form that every elementary divisor is 1.
    Each rho_K is a table of signed ints (x_i -> x_k is k, x_i -> -x_k is
    -k); ``rho_all`` on ``ExtElement`` is the test oracle.
    """
    two_n = 2 * n
    do_snf = n <= 3
    sparse_all = enumerate_sparse(two_n, "all")
    failures = []
    rows = []
    cols = q_basis(n) if do_snf else ()
    col_index = {c: i for i, c in enumerate(cols)}
    tables = []
    for K in enumerate_sparse(two_n, n):
        tau = mu_of(K, two_n)        # pairs each k in K with an i outside K
        table = [0] + [i if i in K else -tau[i - 1]
                       for i in range(1, two_n + 1)]
        tables.append((K, tuple(-k for k in K), table))
    for J in sparse_all:
        best = None  # (J', K) maximal: larger J' wins, then smaller K
        best_coeff = 0
        row = {}
        for K, neg_K, table in tables:
            image = [table[j] for j in J]
            T = tuple(sorted({abs(k) for k in image}))
            if len(T) < len(J):       # x_k^2 = 0
                continue
            c = -1 if sum(k < 0 for k in image) % 2 else 1
            if do_snf:
                row[col_index[(K, T)]] = c
            key = (T, neg_K)
            if best is None or key > best:
                best = key
                best_coeff = c
        rows.append(row)
        lead_support = best[0] if best else None
        lead_K = tuple(-k for k in best[1]) if best else None
        if lead_support != J or lead_K != sparse_closure(J, two_n, "bar") \
                or best_coeff != 1:
            failures.append({"J": J, "leading": (lead_support, lead_K),
                             "coefficient": best_coeff})
    report = {
        "n": n,
        "basis_size": len(sparse_all),
        # len(q_basis(n)): 2^n subsets T of each sparse size-n K
        "q_dimension": len(enumerate_sparse(two_n, n)) * 2 ** n,
        "leading_failures": failures,
    }
    if do_snf:
        divisors = snf_invariants(rows, len(cols))
        report["snf_divisors_all_one"] = (
            len(divisors) == len(sparse_all) and all(d == 1 for d in divisors)
        )
        report["snf_rank"] = len(divisors)
    return report


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def hilbert_ranks(n: int) -> list[int]:
    """Rank of R(n) in x-degree k for k = 0..n."""
    return [sparse_count(n, k) for k in range(n + 1)]
