"""Exact integer linear algebra: the Smith normal form.

Everything in the package that needs homology, quotient-group structure,
integral exactness or split-injectivity funnels through these routines.

The workhorse is a two-phase Smith normal form:

1. a sparse elimination phase that repeatedly pivots on +-1 entries (chosen
   by a Markowitz-style fill estimate); each such pivot contributes an
   invariant factor 1 and keeps all arithmetic exact with no growth;
2. a dense classical SNF on whatever small core survives, with
   arbitrary-precision integers.

The columns of the +-1 pivots of the sparse phase can be handed back to
the caller, which is what lets a chain complex be reduced with
*clearing* (Chen-Kerber, "Persistent homology computation with a twist",
2011; Bauer-Kerber-Reininghaus, "Clear and compress", 2014).  Each pivot
row is an integer combination of the input rows, and it is 0 at the
columns of all earlier pivots: the elimination cleared them from every
live row.  Restricted to the pivot columns, the pivot rows therefore form
a triangular matrix with +-1 on the diagonal, and back substitution over
Z puts into the row lattice, for every pivot column c, a vector
e_c + (terms off the pivot columns).  If the rows are the coboundary
delta_k, this vector lies in the image of delta_k, so delta_(k+1) kills
it: the row of delta_(k+1) at c is an integer combination of the rows
at the other columns.  Leaving those rows out of delta_(k+1) keeps its
row lattice, hence its invariant factors, exactly.  Pivots of the dense
core need not be units, so they clear nothing.

Matrices are given as lists of rows; a row is either a list of ints of
length ncols or a dict {col: nonzero int} (0-based columns).
"""

from __future__ import annotations

import heapq
from math import gcd


def _to_sparse_rows(rows, ncols):
    out = []
    for r in rows:
        if isinstance(r, dict):
            out.append({c: v for c, v in r.items() if v})
        else:
            if len(r) != ncols:
                raise ValueError("row length does not match ncols")
            out.append({c: v for c, v in enumerate(r) if v})
    return out


def _dense_snf(mat: list[list[int]]) -> list[int]:
    """Classical Smith normal form; returns the nonzero invariant factors.

    Enforcing divisibility of the remaining block by each pivot before
    recursing makes the divisor chain property automatic.
    """
    mat = [row[:] for row in mat]
    divisors: list[int] = []
    while mat and mat[0]:
        nr, nc = len(mat), len(mat[0])
        # smallest-magnitude nonzero entry to (0, 0)
        pivot = min(
            ((i, j) for i in range(nr) for j in range(nc) if mat[i][j]),
            key=lambda ij: abs(mat[ij[0]][ij[1]]),
            default=None,
        )
        if pivot is None:
            break
        pi, pj = pivot
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
            # clear row 0 with column operations (column 0 stays clear)
            p = mat[0][0]
            for j in range(1, nc):
                if mat[0][j]:
                    q = mat[0][j] // p
                    for row in mat:
                        row[j] -= q * row[0]
            rem = [j for j in range(1, nc) if mat[0][j]]
            if rem:
                j = min(rem, key=lambda j: abs(mat[0][j]))
                for row in mat:
                    row[0], row[j] = row[j], row[0]
                continue
            # pivot isolated; force it to divide the remaining block
            p = abs(mat[0][0])
            offender = next(
                (i for i in range(1, nr)
                 if any(mat[i][j] % p for j in range(1, nc))),
                None,
            )
            if offender is None:
                break
            mat[0] = [a + b for a, b in zip(mat[0], mat[offender])]
        divisors.append(abs(mat[0][0]))
        mat = [row[1:] for row in mat[1:]]
    return divisors


def snf_invariants(rows, ncols: int,
                   unit_pivots: list[int] | None = None) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of the matrix.

    When ``unit_pivots`` is a list, the column of every +-1 pivot of the
    sparse phase is appended to it (see the module docstring).
    """
    sparse = _to_sparse_rows(rows, ncols)
    live_rows: dict[int, dict[int, int]] = {i: r for i, r in enumerate(sparse) if r}
    col_index: dict[int, set[int]] = {}
    for i, r in live_rows.items():
        for c in r:
            col_index.setdefault(c, set()).add(i)

    # candidate +-1 pivots in a lazy heap keyed by the Markowitz fill
    # estimate; stale entries are re-validated (and re-pushed with their
    # current score) when popped, so selection is O(log n) amortized
    # instead of a full scan per pivot
    heap: list[tuple[int, int, int]] = []
    for i, r in live_rows.items():
        rl = len(r) - 1
        for c, v in r.items():
            if v in (1, -1):
                heap.append((rl * (len(col_index[c]) - 1), i, c))
    heapq.heapify(heap)

    ones = 0
    while heap:
        score, pi, pc = heapq.heappop(heap)
        row = live_rows.get(pi)
        if row is None or row.get(pc) not in (1, -1):
            continue
        current = (len(row) - 1) * (len(col_index[pc]) - 1)
        if current > score:
            heapq.heappush(heap, (current, pi, pc))
            continue
        prow = live_rows.pop(pi)
        pval = prow[pc]
        for c in prow:
            col_index[c].discard(pi)
        for j in list(col_index.get(pc, ())):
            row = live_rows[j]
            factor = row[pc] * pval  # row[pc] / pval since pval is +-1
            for c, v in prow.items():
                new = row.get(c, 0) - factor * v
                if new:
                    if c not in row:
                        col_index.setdefault(c, set()).add(j)
                    row[c] = new
                    if new in (1, -1):
                        heapq.heappush(
                            heap,
                            ((len(row) - 1) * (len(col_index[c]) - 1), j, c))
                else:
                    if c in row:
                        del row[c]
                        col_index[c].discard(j)
            if not row:
                del live_rows[j]
        col_index.pop(pc, None)
        ones += 1
        if unit_pivots is not None:
            unit_pivots.append(pc)

    divisors = [1] * ones
    if live_rows:
        cols = sorted({c for r in live_rows.values() for c in r})
        cmap = {c: k for k, c in enumerate(cols)}
        dense = []
        for r in live_rows.values():
            row = [0] * len(cols)
            for c, v in r.items():
                row[cmap[c]] = v
            dense.append(row)
        divisors += _dense_snf(dense)
    return divisors


def quotient_structure(rows, ncols: int) -> tuple[int, list[int]]:
    """Structure of Z^ncols / (row space): (free rank, torsion coefficients).

    Torsion coefficients are the invariant factors > 1, in divisibility order.
    """
    divisors = snf_invariants(rows, ncols)
    torsion = [d for d in divisors if d > 1]
    return ncols - len(divisors), torsion
