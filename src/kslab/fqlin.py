"""Submodules of V(m) = (F_q[t]/t^m)^2 as lattices in Hermite form.

A submodule is a lattice t^m Lambda <= L <= Lambda = F_q[[t]]^2 with a
unique basis {t^a e_0, c(t) e_0 + t^b e_1}, 0 <= a, b <= m, deg c < a
(Serre, *Trees*, ch. II.1).  It is stored as ``(a, b, c)``, with c the
tuple of its a coefficients in [0, q): canonical and hashable.  L/t^m
Lambda has dimension 2m - a - b; the zero submodule is (m, m, 0^m).

``hermite`` is the one normaliser, elimination over F_q[[t]] in plain
loops: one scan finds b and the pivot, forward substitution against the
pivot's unit gives c, and each other generator's cleared e_0 part is
read only below the least a found so far.  ``t_image`` and ``offsets``
(hence ``contains``) are closed forms on (a, b, c) and call no
normaliser.  Under the pairing u . v = u_0 v_0 + u_1 v_1 mod t^m, t is
self-adjoint, so t-preimage is perp o t-image o perp, and intersection
is the perp of the sum of the perps.  ``hermite``, ``generators``,
``rows``, ``perp``, ``t_image``, ``t_preimage`` and ``intersect`` are
memoised on the canonical form.  Vectors use coordinates 2i + j for
t^i e_j; ``rows`` is the RREF basis of L/t^m Lambda in them, which only
orders the flag lab's candidate lines and formats reports.  Only prime
q is supported; inverses come from a lookup table.
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


def _mono(k: int, m: int) -> list[int]:
    """t^k mod t^m."""
    return [int(i == k) for i in range(m)]


def _vector(x0, x1) -> Vector:
    """The vector x_0(t) e_0 + x_1(t) e_1 in coordinates 2i + j."""
    return tuple(x for pair in zip(x0, x1) for x in pair)


@lru_cache(maxsize=None)
def hermite(gens: Rows, m: int, q: int) -> Lattice:
    """Hermite form of the submodule of V(m) spanned by ``gens``.

    b is the least valuation among the e_1 parts x_1; the first
    generator with that valuation is the pivot, and its x_1 is t^b u
    with u known mod t^(m-b) (any lift will do; zeros are put above).
    c solves u c = x_0 (the pivot's e_0 part) by forward substitution,
    so the pivot's e_1 part becomes t^b and it clears the other e_1
    parts, leaving x_0 - w c for a generator with x_1 = t^b w.  L meets
    F_q[[t]] e_0 in t^a, where a is the least of m, m - b + val(c) (the
    pivot times t^(m-b)), and the valuations of those cleared parts; a
    part is scanned only below the least a found so far.  With every
    e_1 part zero there is no pivot: b = m and c = 0.
    """
    x0s = [[x % q for x in v[0::2]] for v in gens]
    x1s = [[x % q for x in v[1::2]] for v in gens]
    b, pivot = m, -1
    for j, x1 in enumerate(x1s):
        for k in range(b):
            if x1[k]:
                b, pivot = k, j
                break
    c = [0] * m
    if pivot >= 0:
        u, x0 = x1s[pivot][b:], x0s[pivot]
        inv0 = _inverses(q)[u[0]]
        for k in range(m):
            s = x0[k]
            for i in range(1, min(k + 1, m - b)):
                s -= u[i] * c[k - i]
            c[k] = s * inv0 % q
    a = min(m, m - b + next((k for k, x in enumerate(c) if x), m))
    for j, x0 in enumerate(x0s):
        if j == pivot:
            continue
        w = x1s[j][b:]
        for k in range(a):
            s = x0[k]
            for i in range(min(k + 1, m - b)):
                s -= w[i] * c[k - i]
            if s % q:
                a = k
                break
    return a, b, tuple(c[:a])


def dim(L: Lattice, m: int) -> int:
    """Dimension over F_q of L / t^m Lambda."""
    return 2 * m - L[0] - L[1]


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


def offsets(L: Lattice, K: Lattice) -> tuple[int, int, int]:
    """(a_K - a_L, b_K - b_L, v - a_L), v the valuation of c_K - t^db c_L.

    K <= L iff none is negative: the basis vectors t^(a_K) e_0 and
    c_K e_0 + t^(b_K) e_1 of K lie in L iff a_K >= a_L, b_K >= b_L and
    t^(a_L) divides c_K - t^db c_L, db = b_K - b_L.  v is read up to a_K
    only, and the coefficients lie in [0, q), so no q is needed.
    """
    (a_l, b_l, c_l), (a_k, b_k, c_k) = L, K
    db = b_k - b_l
    lifted = (0,) * db + c_l + (0,) * a_k
    v = next((i for i, x in enumerate(c_k) if x != lifted[i]), a_k)
    return a_k - a_l, db, v - a_l


def contains(L: Lattice, K: Lattice) -> bool:
    """Whether K <= L."""
    return min(offsets(L, K)) >= 0


@lru_cache(maxsize=None)
def t_image(L: Lattice, m: int, q: int, r: int = 1) -> Lattice:
    """t^r L, in closed form.

    t^r L is spanned by t^(a+r) e_0 and t^r c e_0 + t^(b+r) e_1; let v
    be the valuation of c (m if c = 0).  While b + r < m the second
    vector is the pivot, with c shifted by r, and the e_0 axis meets
    t^r L in t^(a+r) and t^(m-b+v) (the pivot times t^(m-b-r)).  Past
    that, t^(b+r) = 0 and the second vector is t^r c e_0, on the axis.
    ``q`` is not used: shifting keeps coefficients in [0, q).
    """
    a, b, c = L
    v = next((k for k, x in enumerate(c) if x), m)
    if b + r < m:
        top = min(m, a + r, m - b + v)
        return top, b + r, ((0,) * r + c)[:top]
    top = min(m, a + r, r + v)
    return top, m, (0,) * top


@lru_cache(maxsize=None)
def t_preimage(L: Lattice, m: int, q: int, r: int = 1) -> Lattice:
    """{v in V(m) : t^r v in L}, which is (t^r L^perp)^perp."""
    return perp(t_image(perp(L, m, q), m, q, r), m, q)


@lru_cache(maxsize=None)
def intersect(L: Lattice, K: Lattice, m: int, q: int) -> Lattice:
    return perp(add(perp(L, m, q), perp(K, m, q), m, q), m, q)
