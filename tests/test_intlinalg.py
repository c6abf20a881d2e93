import heapq
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kslab import graph_rings, intlinalg, topology
from kslab.graphs import make_standard
from kslab.intlinalg import (_dense_snf, _to_sparse_rows, quotient_structure,
                             snf_invariants)


def dict_rows(mat):
    """The rows of a dense matrix as the dict rows that ``snf_invariants``
    takes, zero entries kept."""
    return [dict(enumerate(r)) for r in mat]


def rational_rank(rows, ncols):
    """Independent oracle: Gaussian elimination over Q."""
    mat = []
    for r in rows:
        row = [Fraction(0)] * ncols
        for c, v in r.items():
            row[c] = Fraction(v)
        mat.append(row)
    rk = 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        for i in range(len(mat)):
            if i != rk and mat[i][col]:
                f = mat[i][col] / mat[rk][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def divisibility_snf(mat):
    """Oracle: the classical dense SNF that keeps a divisor chain.

    The earlier dense core of ``snf_invariants``: once a pivot stands
    alone, a row of the remaining block that it does not divide is added
    to the pivot row, and the pivot is cleared again.
    """
    mat = [row[:] for row in mat]
    divisors: list[int] = []
    while mat and mat[0]:
        nr, nc = len(mat), len(mat[0])
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
            for i in range(1, nr):
                if mat[i][0]:
                    q = mat[i][0] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[0])]
            rem = [i for i in range(1, nr) if mat[i][0]]
            if rem:
                i = min(rem, key=lambda i: abs(mat[i][0]))
                mat[0], mat[i] = mat[i], mat[0]
                continue
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


def heap_snf(rows, ncols):
    """Oracle: two-sided Gauss-Jordan on +-1 pivots, then the dense SNF.

    The earlier sparse phase of ``snf_invariants``: every +-1 entry sits
    in a lazy heap keyed by the Markowitz fill estimate (row length - 1)
    * (column length - 1), and the cheapest live one eliminates its
    column from every other row.
    """
    live = {i: r for i, r in enumerate(_to_sparse_rows(rows, ncols)) if r}
    col_index: dict[int, set[int]] = {}
    for i, r in live.items():
        for c in r:
            col_index.setdefault(c, set()).add(i)
    heap = [((len(r) - 1) * (len(col_index[c]) - 1), i, c)
            for i, r in live.items() for c, v in r.items() if v in (1, -1)]
    heapq.heapify(heap)
    ones = 0
    while heap:
        score, pi, pc = heapq.heappop(heap)
        row = live.get(pi)
        if row is None or row.get(pc) not in (1, -1):
            continue
        current = (len(row) - 1) * (len(col_index[pc]) - 1)
        if current > score:
            heapq.heappush(heap, (current, pi, pc))
            continue
        prow = live.pop(pi)
        for c in prow:
            col_index[c].discard(pi)
        for j in list(col_index.get(pc, ())):
            row = live[j]
            factor = row[pc] * prow[pc]
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
                elif c in row:
                    del row[c]
                    col_index[c].discard(j)
            if not row:
                del live[j]
        col_index.pop(pc, None)
        ones += 1
    cols = sorted({c for r in live.values() for c in r})
    dense = [[r.get(c, 0) for c in cols] for r in live.values()]
    return [1] * ones + (divisibility_snf(dense) if dense else [])


def checked_snf(rows, ncols):
    """``snf_invariants``, checked against the oracle and its pivots."""
    pivots: list[int] = []
    divs = snf_invariants(rows, ncols, pivots)
    assert divs == heap_snf(rows, ncols)
    assert len(set(pivots)) == len(pivots) <= len(divs)
    assert all(0 <= c < ncols for c in pivots)
    return divs


def test_known_snf_examples():
    assert snf_invariants(dict_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]),
                          3) == [2, 2, 156]
    assert snf_invariants(dict_rows([[1, 0], [0, 1]]), 2) == [1, 1]
    assert snf_invariants(dict_rows([[0, 0], [0, 0]]), 2) == []
    assert snf_invariants(dict_rows([[2, 0], [0, 3]]), 2) == [1, 6]


def test_dense_core_normalises_its_diagonal():
    assert _dense_snf([[2, 0], [0, 3]]) == [1, 6]
    assert _dense_snf([[4, 0], [0, 6]]) == [2, 12]
    assert _dense_snf([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == [1, 30, 30]
    assert _dense_snf([[0, 0], [0, 0]]) == []


def _random_dense_matrix(rng):
    """A dense integer matrix, half the time with torsion built in.

    Either uniform entries, or a diagonal of torsion and zeros spread by
    unimodular row and column shears.
    """
    nr, nc = rng.randint(1, 7), rng.randint(1, 7)
    if rng.random() < 0.5:
        return [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    mat = [[0] * nc for _ in range(nr)]
    for i in range(min(nr, nc)):
        mat[i][i] = rng.choice((1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 0))
    for _ in range(2 * (nr + nc)):
        a, b, k = rng.randrange(nr), rng.randrange(nr), rng.randint(-2, 2)
        if a != b:
            mat[a] = [x + k * y for x, y in zip(mat[a], mat[b])]
        a, b, k = rng.randrange(nc), rng.randrange(nc), rng.randint(-2, 2)
        if a != b:
            for row in mat:
                row[a] += k * row[b]
    return mat


def test_dense_core_matches_the_divisibility_oracle():
    rng = random.Random(1800)
    torsion_seen = 0
    for _ in range(600):
        mat = _random_dense_matrix(rng)
        want = divisibility_snf(mat)
        assert _dense_snf(mat) == want, mat
        torsion_seen += any(d > 1 for d in want)
    assert torsion_seen > 200


@pytest.mark.parametrize("n", [4, 5])
def test_dense_core_matches_the_divisibility_oracle_on_sg_residuals(
        n, monkeypatch):
    # S(cube), S(K33) and S(theta) leave no residual for the dense core
    fed = []

    def recording(mat):
        fed.append(mat)
        return _dense_snf(mat)

    monkeypatch.setattr(intlinalg, "_dense_snf", recording)
    graph_rings.graded_structure(make_standard("C", n))
    assert len(fed) == n - 1
    for mat in fed:
        assert _dense_snf(mat) == divisibility_snf(mat)


def test_quotient_structure():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 with invariant factors 1, 6
    assert quotient_structure(dict_rows([[2, 0], [0, 3]]), 2) == (0, [6])
    assert quotient_structure(dict_rows([[1, 2, 3]]), 3) == (2, [])
    assert quotient_structure([{0: 2}], 3) == (2, [2])


def test_divisor_chain_property():
    rng = random.Random(7)
    for _ in range(50):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)]
        divs = snf_invariants(dict_rows(rows), nc)
        assert all(b % a == 0 for a, b in zip(divs, divs[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rank_matches_rational_elimination(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 7), rng.randint(1, 7)
    rows = dict_rows([[rng.randint(-5, 5) for _ in range(nc)]
                      for _ in range(nr)])
    assert len(snf_invariants(rows, nc)) == rational_rank(rows, nc)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_snf_invariant_under_unimodular_ops(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
    divs = snf_invariants(dict_rows(rows), nc)
    # random row shear and swap must not change the invariant factors
    i, j = rng.sample(range(nr), 2)
    sheared = [r[:] for r in rows]
    k = rng.randint(-3, 3)
    sheared[i] = [a + k * b for a, b in zip(sheared[i], sheared[j])]
    sheared[i], sheared[j] = sheared[j], sheared[i]
    assert snf_invariants(dict_rows(sheared), nc) == divs


def test_sparse_and_dense_rows_agree():
    # zero entries in a row are ignored
    rows_dense = dict_rows([[0, 2, 0, -1], [3, 0, 0, 0], [0, 4, 6, 0]])
    rows_sparse = [{1: 2, 3: -1}, {0: 3}, {1: 4, 2: 6}]
    assert snf_invariants(rows_dense, 4) == snf_invariants(rows_sparse, 4)


def test_snf_leaves_its_rows_as_they_were():
    # the echelon pass cancels the second and third rows in place; the
    # intake copies a row with no zero, and drops the zero of another
    rows = [{0: 1, 1: 1}, {1: 1, 0: 2}, {2: 0, 1: 3, 0: 1}]
    before = [dict(r) for r in rows]
    assert snf_invariants(rows, 3) == [1, 1]
    assert rows == before


def test_largest_entry_need_not_be_a_unit():
    assert checked_snf(dict_rows([[2, 1]]), 2) == [1]
    assert checked_snf(dict_rows([[1, 1], [1, -1]]), 2) == [1, 2]
    assert checked_snf([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == [1, 2]
    # every column gets a pivot before the last rows are read
    assert checked_snf(dict_rows([[1, 0], [3, 1], [4, 6], [0, 2]]),
                       2) == [1, 1]


def test_dict_row_column_out_of_range_raises():
    with pytest.raises(ValueError):
        snf_invariants([{-1: 1}], 3)
    with pytest.raises(ValueError):
        snf_invariants([{0: 1}, {3: 2}], 3)
    with pytest.raises(ValueError):     # after every column has a pivot
        snf_invariants([{0: 1}, {1: 2}], 1)
    with pytest.raises(ValueError):
        quotient_structure([{5: 1}], 3)


def _random_sparse_matrix(rng):
    """A sparse integer matrix, zero entries in some rows, and its
    invariant factors.

    A diagonal of 1s, torsion and zeros is spread by a few sparse row and
    column shears, which keep the invariant factors; zero rows are mixed in.
    """
    nr, nc = rng.randint(1, 14), rng.randint(1, 14)
    diag = [rng.choice((1, 1, 1, 2, 3, 4, 6, 0)) for _ in range(min(nr, nc))]
    mat = [[diag[i] if i == j and i < len(diag) else 0 for j in range(nc)]
           for i in range(nr)]
    for _ in range(rng.randint(0, 3 * (nr + nc))):
        a, b, k = rng.randrange(nr), rng.randrange(nr), rng.choice((-1, 1, 2))
        if a != b:
            mat[a] = [x + k * y for x, y in zip(mat[a], mat[b])]
        a, b, k = rng.randrange(nc), rng.randrange(nc), rng.choice((-1, 1, 2))
        if a != b:
            for row in mat:
                row[a] += k * row[b]
    mat += [[0] * nc for _ in range(rng.randint(0, 2))]
    rng.shuffle(mat)
    rows = [dict(enumerate(r)) if rng.random() < 0.5
            else {c: v for c, v in enumerate(r) if v} for r in mat]
    nonzero = [d for d in diag if d]
    square = [[d if i == j else 0 for j in range(len(nonzero))]
              for i, d in enumerate(nonzero)]
    return rows, nc, divisibility_snf(square)


@pytest.mark.parametrize("seed", range(4))
def test_snf_matches_the_heap_oracle_on_random_sparse_matrices(seed):
    rng = random.Random(1700 + seed)
    torsion_seen = 0
    for _ in range(150):
        rows, nc, expected = _random_sparse_matrix(rng)
        assert checked_snf(rows, nc) == expected
        torsion_seen += any(d > 1 for d in expected)
    assert torsion_seen > 20


@pytest.mark.parametrize("model", ["octahedron", "small"])
def test_snf_matches_the_heap_oracle_on_c2_coboundaries(model, monkeypatch):
    _, cx = topology.y_complex(make_standard("C", 2), model=model)
    for k in range(len(cx)):
        checked_snf(*topology.coboundary_rows(cx, k))
    fed = []

    def recording(rows, ncols, unit_pivots=None):
        fed.append((rows, ncols))
        return snf_invariants(rows, ncols, unit_pivots)

    monkeypatch.setattr(topology, "snf_invariants", recording)
    topology.integral_cohomology(cx)
    assert len(fed) == len(cx)
    for rows, ncols in fed:                 # the cleared coboundaries
        checked_snf(rows, ncols)


@pytest.mark.parametrize("name", ["K33", "C4", "cube"])
def test_snf_matches_the_heap_oracle_on_sg_degrees(name, monkeypatch):
    fed = []

    def recording(rows, ncols):
        fed.append((rows, ncols))
        return quotient_structure(rows, ncols)

    monkeypatch.setattr(graph_rings, "quotient_structure", recording)
    G = make_standard("C", 4) if name == "C4" else make_standard(name)
    graph_rings.graded_structure(G)
    assert fed
    for rows, ncols in fed:
        checked_snf(rows, ncols)
