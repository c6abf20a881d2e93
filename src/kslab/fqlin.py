"""Exact linear algebra over small prime fields F_q.

Subspaces are stored as tuples of reduced-row-echelon basis vectors
(tuples of ints in [0, q)), which makes the representation canonical:
two subspaces are equal iff their representations are equal, and it is
hashable.  ``intersect`` is memoised per process on that representation,
so callers must pass tuples (as ``rref`` returns them), never lists.
Only prime q is supported; inverses come from a lookup table.
"""

from __future__ import annotations

from functools import lru_cache

Vector = tuple[int, ...]
Rows = tuple[Vector, ...]


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


def dim(W: Rows) -> int:
    return len(W)


def member(v: Vector, W: Rows, q: int) -> bool:
    """Whether v lies in the span of the RREF rows W."""
    v = list(v)
    for row in W:
        p = next(i for i, x in enumerate(row) if x)
        f = v[p] % q
        if f:
            v = [(a - f * b) % q for a, b in zip(v, row)]
    return not any(x % q for x in v)


def contains(W: Rows, U: Rows, q: int) -> bool:
    return all(member(u, W, q) for u in U)


@lru_cache(maxsize=None)
def intersect(U: Rows, W: Rows, ncols: int, q: int) -> Rows:
    """Zassenhaus: rref of [[u|u],[w|0]]; zero-left rows carry the answer."""
    stacked = [tuple(u) + tuple(u) for u in U] + \
              [tuple(w) + (0,) * ncols for w in W]
    reduced = rref(stacked, q)
    out = [row[ncols:] for row in reduced if not any(row[:ncols])]
    return rref(out, q) if out else ()


def constraint_matrix(W: Rows, ncols: int, q: int) -> Rows:
    """Rows f with f . v = 0 for all v iff v in W (a basis of the annihilator)."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in W]
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c in free:
        f = [0] * ncols
        f[c] = 1
        for p, row in zip(pivots, W):
            f[p] = (-row[c]) % q
        out.append(tuple(f))
    return tuple(out)


def nullspace(rows, ncols: int, q: int) -> Rows:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    R = rref(rows, q)
    pivots = [next(i for i, x in enumerate(row) if x) for row in R]
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for p, row in zip(pivots, R):
            v[p] = (-row[c]) % q
        out.append(tuple(v))
    return rref(out, q)

