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
holds each term x_T eps_K of rho(x_J) as one int, with x_i at bit 2n - i
so that the highest term is the smallest int, and extends the terms of
J's parent J[:-1] by the image of x_{J[-1]} under every rho_K: each of
the (J, K) images is computed.  ``rho_K`` and ``rho_all`` on
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


def _subset(mask: int, two_n: int) -> Subset:
    """The subset of a mask that holds x_i at bit 2n - i."""
    return tuple(i for i in range(1, two_n + 1) if mask >> (two_n - i) & 1)


def leading_check(n: int) -> dict:
    """Certify that rho is a split monomorphism.

    (i) For every sparse J the highest term of rho(x_J), in the order where
    x_J eps_K < x_J' eps_K' iff J < J' or (J = J' and K > K'), must be
    x_J eps_{bar(J)} with coefficient exactly +1.
    (ii) For n <= 3 only (it follows from (i)), assemble the integer matrix
    of rho from the sparse basis to the monomial basis of Q(I) and check
    through the Smith normal form that every elementary divisor is 1.

    Each term x_T eps_K of rho(x_J) is one int: from the highest bits
    down, the mask of T (x_i at bit 2n - i), the complement of the mask of
    K, and the sign.  Among sets of one size a smaller mask is the
    lexicographically larger set, so the highest term is the smallest
    int.  ``enumerate_sparse`` lists
    each J after its parent J[:-1], so the terms of J extend those of its
    parent, for every K at once, by the image of x_{J[-1]}: a term dies
    (x_k^2 = 0) when that bit is set already, and its sign flips when
    J[-1] is not in K.  Every (J, K) image is computed, with no assumption
    on where mu(K) sends an index; masks turn back into tuples only for a
    failure entry and for the SNF columns.  ``rho_all`` on ``ExtElement``
    is the test oracle.
    """
    two_n = 2 * n
    do_snf = n <= 3
    sparse_all = enumerate_sparse(two_n, "all")
    Ks = enumerate_sparse(two_n, n)
    full = (1 << two_n) - 1
    shift = two_n + 1                    # T above the K part and the sign
    dead = 1 << (2 * shift)              # above every live term
    # the complement of K's mask sorts smaller K first
    kpart = {K: full ^ sum(1 << (two_n - k) for k in K) for K in Ks}
    # per index i, one entry per K: the bit of x_i's image, and that bit
    # with the sign flip of x_i -> -x_k for i outside K
    taus = [(set(K), mu_of(K, two_n)) for K in Ks]
    check = [()] * (two_n + 1)
    flip = [()] * (two_n + 1)
    for i in range(1, two_n + 1):
        check[i] = [1 << (two_n - (i if i in Kset else tau[i - 1]) + shift)
                    for Kset, tau in taus]
        flip[i] = [b | (i not in Kset) for b, (Kset, _) in zip(check[i], taus)]
    terms = [[k << 1 for k in kpart.values()]]   # of the last J per size
    failures = []
    rows = []
    cols = q_basis(n) if do_snf else ()
    col_index = {c: i for i, c in enumerate(cols)}
    for J in sparse_all:
        if J:
            i = J[-1]
            del terms[len(J):]
            terms.append([dead if t & c else t ^ f for t, c, f in
                          zip(terms[-1], check[i], flip[i])])
        current = terms[-1]
        best = min(current)
        live = best < dead
        coeff = (-1 if best & 1 else 1) if live else 0
        if do_snf:
            rows.append({col_index[(K, _subset(t >> shift, two_n))]:
                         -1 if t & 1 else 1
                         for K, t in zip(Ks, current) if t < dead})
        bar = sparse_closure(J, two_n, "bar")
        if not live or best >> shift != sum(1 << (two_n - j) for j in J) \
                or kpart.get(bar) != best >> 1 & full or coeff != 1:
            lead = (_subset(best >> shift, two_n),
                    _subset(full ^ best >> 1 & full, two_n)) \
                if live else (None, None)
            failures.append({"J": J, "leading": lead, "coefficient": coeff})
    report = {
        "n": n,
        "basis_size": len(sparse_all),
        # len(q_basis(n)): 2^n subsets T of each sparse size-n K
        "q_dimension": len(Ks) * 2 ** n,
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
