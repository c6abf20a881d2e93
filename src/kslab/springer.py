"""The ring R(I) = E(I) / (sigma_1, ..., sigma_2n) and its normal form.

R(n) has the sparse monomials BR(n) = {x_J : J sparse} as a Z-basis.  The
normal form is computed by the rewriting rule: for a non-sparse support J
with largest sparsity-violating index j, put K = J_{<j}, L = J_{>=j},
p = |L| - 1 and M = L + {1, ..., j-1}; then x_K * sigma_{p+1}(M) vanishes in
R(I) (its degree is too large relative to |M|), its highest term is x_J, and
so x_J can be replaced by x_J - x_K * sigma_{p+1}(M), which only involves
lexicographically smaller supports.  Iterating on the largest non-sparse
support terminates and lands on the sparse normal form.

The module also provides the evaluation maps rho_K into E(K) (one for each
size-n sparse K, via the matching mu(K)), their product rho which is a split
monomorphism into Q(I) = prod_K E(K), Hilbert ranks, and the dihedral action
on indices.
"""

from __future__ import annotations

from functools import lru_cache

from .combinatorics import (
    enumerate_sparse,
    is_sparse,
    mu_of,
    sparse_closure,
    sparse_count,
)
from .exterior import ExtElement, sigma
from .intlinalg import snf_invariants

Subset = tuple[int, ...]


@lru_cache(maxsize=None)
def rewrite_step(J: Subset, two_n: int) -> ExtElement:
    """The strictly-lower-terms replacement for a non-sparse x_J."""
    if is_sparse(J, two_n):
        raise ValueError(f"{J} is sparse; rewrite_step needs a non-sparse support")
    j = max(
        x for x in J
        if (two_n - x - sum(1 for y in J if y > x)) <= sum(1 for y in J if y > x)
    )
    K = tuple(y for y in J if y < j)
    L = tuple(y for y in J if y >= j)
    p = len(L) - 1
    M = sorted(L + tuple(range(1, j)))
    relation = ExtElement.monomial(K, two_n) * sigma(p + 1, M, two_n)
    out = ExtElement.monomial(J, two_n) - relation
    if out.coefficient(J) != 0 or not all(T < J for T in out.terms):
        raise RuntimeError(f"relation for {J} does not lower it: {out}")
    return out


def reduce(a: ExtElement) -> ExtElement:
    """Normal form of a in R(I): rewrite the largest non-sparse support, repeat."""
    two_n = a.nvars
    terms = dict(a.terms)
    while True:
        bad = max((J for J in terms if not is_sparse(J, two_n)), default=None)
        if bad is None:
            break
        c = terms.pop(bad)
        if c == 0:
            continue
        for T, v in rewrite_step(bad, two_n).terms.items():
            terms[T] = terms.get(T, 0) + c * v
            if terms[T] == 0:
                del terms[T]
    return ExtElement(two_n, terms)


def reduce_in(a: ExtElement, ambient: Subset) -> ExtElement:
    """Normal form in R(ambient) for an arbitrary even-size ordered ambient.

    The ambient is transported along its unique order isomorphism with
    {1..len(ambient)}, reduced there, and transported back.
    """
    m = len(ambient)
    if m % 2:
        raise ValueError("ambient must have even size")
    fwd = {v: (1, i + 1) for i, v in enumerate(ambient)}
    bwd = {i + 1: (1, v) for i, v in enumerate(ambient)}
    small = a.relabel_signed(fwd, m)
    red = reduce(small)
    return red.relabel_signed(bwd, a.nvars)


# ---------------------------------------------------------------------------
# the evaluation maps rho_K and the product map rho
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rho_mapping(K: Subset, two_n: int) -> dict:
    """The relabelling of rho_K, after checking that K is sparse of size n.

    ``lru_cache`` keeps no exceptions, so a bad K raises on every call.
    """
    if len(K) != two_n // 2 or not is_sparse(K, two_n):
        raise ValueError(f"{K} is not a size-n sparse subset")
    tau = mu_of(K, two_n)
    mapping: dict[int, tuple[int, int]] = {}
    for k in K:
        mapping[tau[k - 1]] = (-1, k)
    return mapping


def rho_K(a: ExtElement, K: Subset) -> ExtElement:
    """Evaluation into E(K): x_k -> x_k for k in K, x_{tau(k)} -> -x_k."""
    return a.relabel_signed(_rho_mapping(K, a.nvars))


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


def leading_check(n: int, do_snf: bool = True) -> dict:
    """Certify that rho is a split monomorphism.

    (i) For every sparse J the highest term of rho(x_J), in the order where
    x_J eps_K < x_J' eps_K' iff J < J' or (J = J' and K > K'), must be
    x_J eps_{bar(J)} with coefficient exactly +1.
    (ii) Optionally assemble the full integer matrix of rho from the sparse
    basis to the monomial basis of Q(I) and check through the Smith normal
    form that every elementary divisor is 1.
    """
    two_n = 2 * n
    sparse_all = enumerate_sparse(two_n, "all")
    failures = []
    rows = []
    cols = q_basis(n) if do_snf else ()
    col_index = {c: i for i, c in enumerate(cols)}
    for J in sparse_all:
        comps = rho_all(ExtElement.monomial(J, two_n))
        best = None  # (J', K) maximal: larger J' wins, then smaller K
        best_coeff = 0
        for K, comp in comps.items():
            neg_K = tuple(-k for k in K)
            for T, c in comp.terms.items():
                key = (T, neg_K)
                if best is None or key > best:
                    best = key
                    best_coeff = c
        if do_snf:
            rows.append({col_index[(K, T)]: c for K, comp in comps.items()
                         for T, c in comp.terms.items()})
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
# ranks and symmetries
# ---------------------------------------------------------------------------

def hilbert_ranks(n: int) -> list[int]:
    """Rank of R(n) in x-degree k for k = 0..n."""
    return [sparse_count(n, k) for k in range(n + 1)]


def dihedral_act(a: ExtElement, g: tuple[bool, int]) -> ExtElement:
    """Action of the dihedral group element s^eps r^k on R(n) representatives.

    g = (reflect, k): first rotate k times (x_i -> x_{i+k}, indices mod 2n
    with representatives 1..2n), then optionally reflect (x_i -> x_{1-i}),
    and re-reduce to normal form.
    """
    two_n = a.nvars
    reflect, k = g

    def wrap(i: int) -> int:
        r = i % two_n
        return r if r else two_n

    mapping = {i: (1, wrap(i + k)) for i in range(1, two_n + 1)}
    if reflect:
        mapping = {i: (1, wrap(1 - wrap(i + k)))
                   for i in range(1, two_n + 1)}
    return reduce(a.relabel_signed(mapping))


def sigma_vanishing(J: Subset, k: int, two_n: int) -> bool:
    """Whether sigma_k(J) reduces to zero in R(I).

    Guaranteed whenever k + |J| > |I| = two_n.
    """
    return reduce(sigma(k, J, two_n)).is_zero()
