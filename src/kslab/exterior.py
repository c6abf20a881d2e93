"""The square-free commutative ring E(I) = Z[x_i : i in I] / (x_i^2).

Elements are integer combinations of monomials x_J = prod_{j in J} x_j for
subsets J of {1..nvars}; each x_J has (cohomological) degree 2|J|, so E(I) is
commutative with no signs anywhere.  Multiplication kills any repeated index.

The monomial supports are sorted tuples, compared by Python tuple order,
which is exactly the lexicographic order used for all leading-term arguments
in this package (see combinatorics).
"""

from __future__ import annotations

from itertools import combinations

Subset = tuple[int, ...]


class ExtElement:
    """An element of E({1..nvars}); terms maps support tuples to nonzero ints."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Subset, int] | None = None):
        self.nvars = nvars
        self.terms = {J: c for J, c in (terms or {}).items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "ExtElement":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "ExtElement":
        return cls(nvars, {(): 1})

    @classmethod
    def monomial(cls, J, nvars: int, coeff: int = 1) -> "ExtElement":
        J = tuple(sorted(J))
        if len(set(J)) != len(J):
            raise ValueError(f"repeated index in monomial support {J}")
        if any(j < 1 or j > nvars for j in J):
            raise ValueError(f"support {J} outside 1..{nvars}")
        return cls(nvars, {J: coeff})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "ExtElement":
        return cls.monomial((i,), nvars)

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def coefficient(self, J) -> int:
        return self.terms.get(tuple(sorted(J)), 0)

    def leading_term(self) -> tuple[Subset, int]:
        """(support, coefficient) of the lexicographically largest support."""
        if not self.terms:
            raise ValueError("zero element has no leading term")
        J = max(self.terms)
        return J, self.terms[J]

    def homogeneous_degree(self) -> int | None:
        """|J| common to all supports, or None if mixed/zero."""
        sizes = {len(J) for J in self.terms}
        return sizes.pop() if len(sizes) == 1 else None

    # -- arithmetic ----------------------------------------------------------

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

    def __neg__(self) -> "ExtElement":
        return ExtElement(self.nvars, {J: -c for J, c in self.terms.items()})

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def scale(self, k: int) -> "ExtElement":
        return ExtElement(self.nvars, {J: k * c for J, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out: dict[Subset, int] = {}
        for J, a in self.terms.items():
            Jset = set(J)
            for K, b in other.terms.items():
                if Jset.isdisjoint(K):
                    M = tuple(sorted(J + K))
                    out[M] = out.get(M, 0) + a * b
        return ExtElement(self.nvars, out)

    __rmul__ = __mul__

    def relabel_signed(self, mapping: dict[int, tuple[int, int] | None],
                       nvars_out: int | None = None) -> "ExtElement":
        """Apply the monomial substitution x_i -> sign * x_j (or 0).

        ``mapping[i] = (sign, j)`` sends x_i to sign*x_j; ``mapping[i] = None``
        sends it to zero; unmapped variables are kept as themselves.  Any
        monomial whose image has a repeated variable dies (x_j^2 = 0).
        """
        m = nvars_out if nvars_out is not None else self.nvars
        out: dict[Subset, int] = {}
        for J, c in self.terms.items():
            sign = 1
            image = []
            for i in J:
                tgt = mapping.get(i, (1, i))
                if tgt is None:
                    break
                s, j = tgt
                sign *= s
                image.append(j)
            else:
                if len(set(image)) == len(image):
                    M = tuple(sorted(image))
                    out[M] = out.get(M, 0) + sign * c
        return ExtElement(m, out)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for J in sorted(self.terms):
            c = self.terms[J]
            mono = "*".join(f"x{j}" for j in J) or "1"
            bits.append(f"{'+' if c >= 0 else '-'}{abs(c) if abs(c) != 1 or not J else ''}{mono if J else (abs(c) if abs(c) != 1 else '1')}")
        return "".join(bits)


def sigma(k: int, variables, nvars: int) -> ExtElement:
    """The k-th elementary symmetric function of the given variables."""
    variables = tuple(sorted(variables))
    if k < 0:
        raise ValueError("negative degree")
    if k > len(variables):
        return ExtElement.zero(nvars)
    return ExtElement(nvars, {J: 1 for J in combinations(variables, k)})


def r_poly(variables, nvars: int, signs=None) -> list[ExtElement]:
    """Coefficient list of r(t) = prod_i (1 + t * sign_i * x_i) in E(I)[t].

    Entry k is the t^k coefficient, i.e. sigma_k of the signed variables.
    ``signs`` is a parallel sequence of +-1 (default all +1); variables may
    repeat, which is how traversals that use an edge in both directions
    contribute (1 + t x)(1 - t x) = 1.
    """
    variables = tuple(variables)
    if signs is None:
        signs = [1] * len(variables)
    out = [ExtElement.one(nvars)]
    for i, s in zip(variables, signs):
        xi = ExtElement.monomial((i,), nvars, s)
        out = [out[0]] + [out[k] + out[k - 1] * xi
                          for k in range(1, len(out))] + [out[-1] * xi]
    return out
