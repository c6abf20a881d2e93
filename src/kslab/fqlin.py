"""Submodules of V(m) = (F_q[t]/t^m)^2 as lattices in Hermite form.

A submodule is a lattice t^m Lambda <= L <= Lambda = F_q[[t]]^2 with a
unique basis {t^a e_0, c(t) e_0 + t^b e_1}, 0 <= a, b <= m, deg c < a
(Serre, *Trees*, ch. II.1).  It is stored as ``(a, b, c)``, with c the
tuple of its a coefficients in [0, q): canonical and hashable.  L/t^m
Lambda has dimension 2m - a - b; the zero submodule is (m, m, 0^m).

``hermite`` is the one normaliser, elimination over F_q[[t]].  Under
the pairing u . v = u_0 v_0 + u_1 v_1 mod t^m, t is self-adjoint, so
t-preimage is perp o t-image o perp, and intersection is the perp of
the sum of the perps.  The operations are memoised on the canonical
form.  Vectors use coordinates 2i + j for t^i e_j; ``rows`` is the RREF
basis of L/t^m Lambda in them, for reports and the flag order.  Only
prime q is supported; inverses come from a lookup table.
"""

from __future__ import annotations

from functools import lru_cache

Vector = tuple[int, ...]
Rows = tuple[Vector, ...]
Lattice = tuple[int, int, tuple[int, ...]]


@lru_cache(maxsize=None)
def _inverses(q: int) -> tuple[int, ...]:
    if q < 2 or any(q % p == 0 for p in range(2, int(q ** 0.5) + 1)):
        raise ValueError(f"{q} is not prime")
    return tuple(pow(a, q - 2, q) if a else 0 for a in range(q))


def rref(rows, q: int) -> Rows:
    """Reduced row echelon form; zero rows dropped, canonical output.

    Rows left in ``mat`` are zero (mod q) before ``col``, and so is the
    pivot row, so elimination starts at ``col``; zero rows stay in
    ``mat`` and are passed over by the pivot search.
    """
    inv = _inverses(q)
    mat = [list(r) for r in rows]
    out: list[list[int]] = []
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    col = 0
    while mat and col < ncols:
        pivot_row = next((r for r in mat if r[col] % q != 0), None)
        if pivot_row is None:
            col += 1
            continue
        mat.remove(pivot_row)
        c = inv[pivot_row[col] % q]
        pivot_row = [(c * x) % q for x in pivot_row]
        for other in mat + out:
            f = other[col] % q
            if f:
                for i in range(col, ncols):
                    other[i] = (other[i] - f * pivot_row[i]) % q
        out.append(pivot_row)
        pivots.append(col)
        col += 1
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return tuple(tuple(out[i]) for i in order)


def member(v: Vector, W: Rows, q: int) -> bool:
    """Whether v lies in the span of the RREF rows W."""
    v = list(v)
    for row in W:
        p = next(i for i, x in enumerate(row) if x)
        f = v[p] % q
        if f:
            v = [(a - f * b) % q for a, b in zip(v, row)]
    return not any(x % q for x in v)


def _val(p) -> int:
    """t-adic valuation; len(p) (that is, m) for the zero polynomial."""
    return next((i for i, x in enumerate(p) if x), len(p))


def _mul(p, r, q: int) -> list[int]:
    """p r mod t^len(p), for polynomials given as coefficient lists."""
    return [sum(p[i] * r[k - i] for i in range(k + 1)) % q
            for k in range(len(p))]


def _unit_inverse(u, q: int) -> list[int]:
    """u^-1 mod t^len(u), for u with a nonzero constant term."""
    w = [_inverses(q)[u[0]]]
    for k in range(1, len(u)):
        w.append(-w[0] * sum(u[i] * w[k - i] for i in range(1, k + 1)) % q)
    return w


def _mono(k: int, m: int) -> list[int]:
    """t^k mod t^m."""
    return [int(i == k) for i in range(m)]


def _vector(x0, x1) -> Vector:
    """The vector x_0(t) e_0 + x_1(t) e_1 in coordinates 2i + j."""
    return tuple(x for pair in zip(x0, x1) for x in pair)


@lru_cache(maxsize=None)
def hermite(gens: Rows, m: int, q: int) -> Lattice:
    """Hermite form of the submodule of V(m) spanned by ``gens``.

    b is the least valuation among the e_1 parts; the pivot with that
    valuation is scaled by a unit so that its e_1 part is t^b, and it
    clears the other e_1 parts.  L meets F_q[[t]] e_0 in t^a, where a is
    the least valuation among the cleared e_0 parts, t^(m-b) times the
    pivot's e_0 part, and t^m; c is the pivot's e_0 part mod t^a.
    """
    pairs = [([x % q for x in v[0::2]], [x % q for x in v[1::2]])
             for v in gens]
    b = min([m] + [_val(x1) for _, x1 in pairs])
    # each x_1 is t^b u with u known mod t^(m-b); any lift of u will do
    units = [x1[b:] + [0] * b for _, x1 in pairs]
    c = [0] * m
    if b < m:
        i = next(i for i, (_, x1) in enumerate(pairs) if _val(x1) == b)
        c = _mul(pairs[i][0], _unit_inverse(units[i], q), q)
    cleared = [[(y - z) % q for y, z in zip(x0, _mul(u, c, q))]
               for (x0, _), u in zip(pairs, units)]
    a = min([m, m - b + _val(c)] + [_val(x) for x in cleared])
    return a, b, tuple(c[:a])


def dim(L: Lattice, m: int) -> int:
    """Dimension over F_q of L / t^m Lambda."""
    return 2 * m - L[0] - L[1]


def generators(L: Lattice, m: int) -> Rows:
    """The Hermite basis t^a e_0, c e_0 + t^b e_1 as vectors of V(m)."""
    a, b, c = L
    return (_vector(_mono(a, m), [0] * m),
            _vector(list(c) + [0] * (m - a), _mono(b, m)))


@lru_cache(maxsize=None)
def rows(L: Lattice, m: int, q: int) -> Rows:
    """RREF basis of L / t^m Lambda in the coordinates 2i + j."""
    return rref([((0, 0) * k + g)[:2 * m]
                 for g in generators(L, m) for k in range(m)], q)


def perp(L: Lattice, m: int, q: int) -> Lattice:
    """The annihilator of L under u . v mod t^m.

    It is spanned by (t^(m-a), -c t^(m-a-b)) and (0, t^(m-b)).  When
    a + b > m, t^(a+b-m) divides c (t^(m-b) times the second basis
    vector of L lies in L), so c is shifted down.
    """
    a, b, c = L
    s = m - a - b
    neg = [(-x) % q for x in c]
    x1 = [0] * s + neg if s >= 0 else neg[-s:]
    return hermite((_vector(_mono(m - a, m), x1 + [0] * b),
                    _vector([0] * m, _mono(m - b, m))), m, q)


def add(L: Lattice, K: Lattice, m: int, q: int) -> Lattice:
    return hermite(generators(L, m) + generators(K, m), m, q)


def contains(L: Lattice, K: Lattice, m: int, q: int) -> bool:
    """Whether K <= L."""
    return add(L, K, m, q) == L


@lru_cache(maxsize=None)
def t_image(L: Lattice, m: int, q: int, r: int = 1) -> Lattice:
    """t^r L."""
    return hermite(tuple(((0, 0) * r + g)[:2 * m]
                         for g in generators(L, m)), m, q)


@lru_cache(maxsize=None)
def t_preimage(L: Lattice, m: int, q: int, r: int = 1) -> Lattice:
    """{v in V(m) : t^r v in L}, which is (t^r L^perp)^perp."""
    return perp(t_image(perp(L, m, q), m, q, r), m, q)


@lru_cache(maxsize=None)
def intersect(L: Lattice, K: Lattice, m: int, q: int) -> Lattice:
    return perp(add(perp(L, m, q), perp(K, m, q), m, q), m, q)
