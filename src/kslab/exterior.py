"""The square-free commutative ring E(I) = Z[x_i : i in I] / (x_i^2).

Elements are integer combinations of monomials x_J = prod_{j in J} x_j for
subsets J of {1..nvars}; each x_J has (cohomological) degree 2|J|, so E(I) is
commutative with no signs anywhere.  Multiplication kills any repeated index.

The program computes on {mask: coeff} polynomials (bit j-1 for x_j).
``ExtElement`` remains for what is built from products, the t-coefficients
of r(t) that ``graph_rings.r_masks`` reads off as masks, and for the
evaluation maps ``springer.rho_K`` and ``springer.rho_all``, the oracle of
``springer.leading_check``.  Supports are sorted tuples, compared by Python
tuple order, the lexicographic order of combinatorics.
"""

from __future__ import annotations

Subset = tuple[int, ...]


class ExtElement:
    """An element of E({1..nvars}); terms maps support tuples to nonzero ints."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Subset, int] | None = None):
        self.nvars = nvars
        self.terms = {J: c for J, c in (terms or {}).items() if c != 0}

    @classmethod
    def monomial(cls, J, nvars: int, coeff: int = 1) -> "ExtElement":
        J = tuple(sorted(J))
        if len(set(J)) != len(J):
            raise ValueError(f"repeated index in monomial support {J}")
        if any(j < 1 or j > nvars for j in J):
            raise ValueError(f"support {J} outside 1..{nvars}")
        return cls(nvars, {J: coeff})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self) -> str:
        return f"ExtElement({self.nvars}, {self.terms})"

    def _check(self, other: "ExtElement") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"ambient mismatch: {self.nvars} vs {other.nvars} variables")

    def __add__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        out = dict(self.terms)
        for J, c in other.terms.items():
            out[J] = out.get(J, 0) + c
        return ExtElement(self.nvars, out)

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        self._check(other)
        out: dict[Subset, int] = {}
        for J, a in self.terms.items():
            Jset = set(J)
            for K, b in other.terms.items():
                if Jset.isdisjoint(K):
                    M = tuple(sorted(J + K))
                    out[M] = out.get(M, 0) + a * b
        return ExtElement(self.nvars, out)

    def relabel_signed(self, mapping: dict[int, tuple[int, int]],
                       nvars_out: int | None = None) -> "ExtElement":
        """Apply the monomial substitution x_i -> sign * x_j.

        ``mapping[i] = (sign, j)`` sends x_i to sign*x_j; unmapped variables
        are kept as themselves.  Any monomial whose image has a repeated
        variable dies (x_j^2 = 0).
        """
        m = nvars_out if nvars_out is not None else self.nvars
        out: dict[Subset, int] = {}
        for J, c in self.terms.items():
            sign = 1
            image = []
            for i in J:
                s, j = mapping.get(i, (1, i))
                sign *= s
                image.append(j)
            if len(set(image)) == len(image):
                M = tuple(sorted(image))
                out[M] = out.get(M, 0) + sign * c
        return ExtElement(m, out)


def r_poly(variables, nvars: int, signs) -> list[ExtElement]:
    """Coefficient list of r(t) = prod_i (1 + t * sign_i * x_i) in E(I)[t].

    Entry k is the t^k coefficient, i.e. sigma_k of the signed variables.
    ``signs`` is a parallel sequence of +-1; variables may repeat, which is
    how traversals that use an edge in both directions contribute
    (1 + t x)(1 - t x) = 1.
    """
    out = [ExtElement.monomial((), nvars)]
    for i, s in zip(variables, signs):
        xi = ExtElement.monomial((i,), nvars, s)
        out = [out[0]] + [out[k] + out[k - 1] * xi
                          for k in range(1, len(out))] + [out[-1] * xi]
    return out
