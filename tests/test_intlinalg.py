import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from kslab.intlinalg import quotient_structure, snf_invariants


def rational_rank(rows, ncols):
    """Independent oracle: Gaussian elimination over Q."""
    mat = []
    for r in rows:
        if isinstance(r, dict):
            row = [Fraction(0)] * ncols
            for c, v in r.items():
                row[c] = Fraction(v)
        else:
            row = [Fraction(v) for v in r]
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


def test_known_snf_examples():
    assert snf_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], 3) == [2, 2, 156]
    assert snf_invariants([[1, 0], [0, 1]], 2) == [1, 1]
    assert snf_invariants([[0, 0], [0, 0]], 2) == []
    assert snf_invariants([[2, 0], [0, 3]], 2) == [1, 6]


def test_quotient_structure():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6 with invariant factors 1, 6
    assert quotient_structure([[2, 0], [0, 3]], 2) == (0, [6])
    assert quotient_structure([[1, 2, 3]], 3) == (2, [])
    assert quotient_structure([{0: 2}], 3) == (2, [2])


def test_divisor_chain_property():
    rng = random.Random(7)
    for _ in range(50):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-8, 8) for _ in range(nc)] for _ in range(nr)]
        divs = snf_invariants(rows, nc)
        assert all(b % a == 0 for a, b in zip(divs, divs[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rank_matches_rational_elimination(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
    assert len(snf_invariants(rows, nc)) == rational_rank(rows, nc)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_snf_invariant_under_unimodular_ops(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(2, 5), rng.randint(2, 5)
    rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
    divs = snf_invariants(rows, nc)
    # random row shear and swap must not change the invariant factors
    i, j = rng.sample(range(nr), 2)
    sheared = [r[:] for r in rows]
    k = rng.randint(-3, 3)
    sheared[i] = [a + k * b for a, b in zip(sheared[i], sheared[j])]
    sheared[i], sheared[j] = sheared[j], sheared[i]
    assert snf_invariants(sheared, nc) == divs


def test_sparse_and_dense_rows_agree():
    rows_dense = [[0, 2, 0, -1], [3, 0, 0, 0], [0, 4, 6, 0]]
    rows_sparse = [{1: 2, 3: -1}, {0: 3}, {1: 4, 2: 6}]
    assert snf_invariants(rows_dense, 4) == snf_invariants(rows_sparse, 4)
