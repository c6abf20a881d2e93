"""The normal form of R(n) on ``ExtElement``, the oracle of ``springer``.

``springer.reduce`` rewrites {mask: coeff} polynomials (bit j-1 for x_j)
with a memoised normal form per monomial.  This is the rewriting it
replaced: rescan every support for sparsity, rewrite the largest
non-sparse one by an ``ExtElement`` product, repeat.  ``to_ext`` and
``to_masks`` convert between the two representations, and ``sigma``
builds the elementary symmetric elements.
"""

from functools import lru_cache
from itertools import combinations

from kslab.combinatorics import is_sparse
from kslab.exterior import ExtElement

Subset = tuple[int, ...]


def sigma(k: int, variables, nvars: int) -> ExtElement:
    """The k-th elementary symmetric function of the given variables."""
    return ExtElement(nvars, dict.fromkeys(
        combinations(sorted(variables), k), 1))


def to_ext(poly: dict[int, int], nvars: int) -> ExtElement:
    """A {mask: coeff} polynomial (bit j-1 for x_j) as an ExtElement."""
    return ExtElement(nvars, {
        tuple(j + 1 for j in range(nvars) if M >> j & 1): c
        for M, c in poly.items()})


def to_masks(elem: ExtElement) -> dict[int, int]:
    return {sum(1 << (j - 1) for j in J): c for J, c in elem.terms.items()}


@lru_cache(maxsize=None)
def rewrite_step(J: Subset, two_n: int) -> ExtElement:
    """The strictly-lower-terms replacement x_J - x_K sigma_{p+1}(M) for a
    non-sparse x_J (see the ``springer`` module docstring)."""
    if is_sparse(J, two_n):
        raise ValueError(f"{J} is sparse; rewrite_step needs a non-sparse support")
    j = max(
        x for x in J
        if (two_n - x - sum(1 for y in J if y > x)) <= sum(1 for y in J if y > x)
    )
    K = tuple(y for y in J if y < j)
    L = tuple(y for y in J if y >= j)
    M = sorted(L + tuple(range(1, j)))
    relation = ExtElement.monomial(K, two_n, -1) * sigma(len(L), M, two_n)
    out = ExtElement.monomial(J, two_n) + relation
    if out.terms.get(J, 0) != 0 or not all(T < J for T in out.terms):
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
        for T, v in rewrite_step(bad, two_n).terms.items():
            terms[T] = terms.get(T, 0) + c * v
            if terms[T] == 0:
                del terms[T]
    return ExtElement(two_n, terms)


def reduce_in(a: ExtElement, ambient: Subset) -> ExtElement:
    """Normal form in R(ambient), transported along the order isomorphism
    of the ambient with {1..len(ambient)}."""
    m = len(ambient)
    if m % 2:
        raise ValueError("ambient must have even size")
    fwd = {v: (1, i + 1) for i, v in enumerate(ambient)}
    bwd = {i + 1: (1, v) for i, v in enumerate(ambient)}
    return reduce(a.relabel_signed(fwd, m)).relabel_signed(bwd, a.nvars)
