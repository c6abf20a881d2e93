"""Exact integer linear algebra: the Smith normal form.

Everything in the package that needs homology, quotient-group structure,
integral exactness or split-injectivity funnels through these routines.

The workhorse is a two-phase Smith normal form:

1. a lazy unit-echelon pass, the "lowest-one" reduction of persistent
   homology.  The rows are taken in input order; a row's largest column
   is cancelled against the pivot row that owns that column until the
   row is empty or its largest column has no owner.  If its entry there
   is +-1 the row becomes the pivot row of that column, and else it is
   kept aside.  Once every column has a pivot the pass stops: the row
   lattice is all of Z^ncols.  Each kept-aside row is then cancelled at
   the pivot columns it meets, highest first, until it is zero on all
   of them;
2. a dense core on those residual rows, with arbitrary-precision
   integers: Euclid's algorithm, by unimodular row and column
   operations, brings them to a diagonal D = UAV, and one gcd/lcm pass
   turns D into the invariant factors.  Each pivot of phase 1
   contributes an invariant factor 1.

Why this is exact.  Only unimodular row operations are used, so the row
lattice never changes.  A pivot row's largest column is its own, so the
pivot rows restricted to the pivot columns form a triangular matrix T
with +-1 on the diagonal, and the residual rows are zero on those
columns.  In the column order (pivot columns, the others) the matrix is
[[T, X], [0, R]]; T is unimodular, so column operations clear X, and the
invariant factors are 1 (once per pivot) followed by those of R.

The diagonal D = diag(d_1, ..., d_r) of the dense core need not be a
divisor chain.  At each prime p, the p-parts of its invariant factors
are p^a for the valuations a = v_p(d_i) in ascending order (Newman,
*Integral Matrices*, 1972, ch. II).  The step (d_i, d_j) <- (gcd, lcm)
turns each pair of valuations (a, b) into (min, max): it keeps the
multiset, and so the invariant factors.  Taken for i < j in order, the
steps selection-sort the valuations at every prime at once, so the d_i
end as a divisor chain d_1 | ... | d_r: the invariant factors.

The pivot columns can be handed back to the caller, which is what lets a
chain complex be reduced with *clearing* (Chen-Kerber, "Persistent
homology computation with a twist", 2011; Bauer-Kerber-Reininghaus,
"Clear and compress", 2014).  Multiplying the pivot rows by T^-1 stays
in the row lattice, so the lattice holds, for every pivot column c, a
vector e_c + (terms off the pivot columns).  If the rows are the
coboundary delta_k, this vector lies in the image of delta_k, so
delta_(k+1) kills it: the row of delta_(k+1) at c is an integer
combination of the rows at the other columns.  Leaving those rows out of
delta_(k+1) keeps its row lattice, hence its invariant factors, exactly.
Pivots of the dense core need not be units, so they clear nothing.

Matrices are lists of dict rows {col: int} with 0 <= col < ncols; a
column outside that range raises ``ValueError``.
"""

from __future__ import annotations

from math import gcd


def _to_sparse_rows(rows, ncols):
    """Checked copies of the rows (the echelon pass edits them in place),
    with their zero entries dropped."""
    out = []
    for r in rows:
        if r and (min(r) < 0 or max(r) >= ncols):
            raise ValueError("row column outside 0..ncols-1")
        out.append({c: v for c, v in r.items() if v}
                   if 0 in r.values() else dict(r))
    return out


def _cancel(row: dict[int, int], prow: dict[int, int], factor: int) -> None:
    """row -= factor * prow, in place, dropping the entries that vanish."""
    for c, v in prow.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            del row[c]


def _dense_snf(mat: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a dense matrix, in divisibility order.

    Euclid brings the matrix to a diagonal, pivot by pivot, and one
    gcd/lcm pass normalises it (module docstring).
    """
    mat = [row[:] for row in mat]
    diag: list[int] = []
    while mat and mat[0]:
        nr, nc = len(mat), len(mat[0])
        # smallest |entry| to (0, 0), from the first row and column with it
        least = min((min(map(abs, filter(None, row)))
                     for row in mat if any(row)), default=None)
        if least is None:
            break
        pi = next(i for i, row in enumerate(mat)
                  if least in row or -least in row)
        pj = next(j for j, x in enumerate(mat[pi]) if abs(x) == least)
        mat[0], mat[pi] = mat[pi], mat[0]
        for row in mat:
            row[0], row[pj] = row[pj], row[0]
        while True:
            p = mat[0][0]
            # clear column 0 with row operations
            for i in range(1, nr):
                if mat[i][0]:
                    q = mat[i][0] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[0])]
            rem = [i for i in range(1, nr) if mat[i][0]]
            if rem:
                i = min(rem, key=lambda i: abs(mat[i][0]))
                mat[0], mat[i] = mat[i], mat[0]
                continue
            # clear row 0 with column operations; column 0 is clear, so
            # they change row 0 alone
            mat[0][1:] = [a % p for a in mat[0][1:]]
            rem = [j for j in range(1, nc) if mat[0][j]]
            if not rem:
                break
            j = min(rem, key=lambda j: abs(mat[0][j]))
            for row in mat:
                row[0], row[j] = row[j], row[0]
        diag.append(abs(mat[0][0]))
        mat = [row[1:] for row in mat[1:]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def snf_invariants(rows, ncols: int,
                   unit_pivots: list[int] | None = None) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of the matrix.

    When ``unit_pivots`` is a list, the column of every +-1 pivot of the
    echelon pass is appended to it (see the module docstring).
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    residual: list[dict[int, int]] = []
    for row in _to_sparse_rows(rows, ncols):
        while row:
            c = max(row)
            prow = pivot_rows.get(c)
            if prow is not None:
                _cancel(row, prow, row[c] * prow[c])
                continue
            if row[c] in (1, -1):
                pivot_rows[c] = row
                if unit_pivots is not None:
                    unit_pivots.append(c)
            else:
                residual.append(row)
            break
        if len(pivot_rows) == ncols:
            return [1] * ncols

    dense_rows = []
    for row in residual:
        while (c := max((c for c in row if c in pivot_rows),
                        default=None)) is not None:
            _cancel(row, pivot_rows[c], row[c] * pivot_rows[c][c])
        if row:
            dense_rows.append(row)
    divisors = [1] * len(pivot_rows)
    if dense_rows:
        cols = sorted({c for r in dense_rows for c in r})
        divisors += _dense_snf([[r.get(c, 0) for c in cols]
                                for r in dense_rows])
    return divisors


def quotient_structure(rows, ncols: int) -> tuple[int, list[int]]:
    """Structure of Z^ncols / (row space): (free rank, torsion coefficients).

    Torsion coefficients are the invariant factors > 1, in divisibility order.
    """
    divisors = snf_invariants(rows, ncols)
    torsion = [d for d in divisors if d > 1]
    return ncols - len(divisors), torsion
