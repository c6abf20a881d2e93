import random

import pytest

from kslab import flags, fqlin
from kslab.combinatorics import enumerate_sparse
from kslab.flags import (
    chain_lemma_scan,
    cover_scan,
    enumerate_flags,
    flag_is_valid,
    in_xni,
    in_xnk,
    is_balanced,
    point_count_report,
    submodules,
    thin_invariants,
    tree_from_flag,
    unrolled_metric,
)
from kslab.fqlin import (
    add,
    contains,
    dim,
    hermite,
    intersect,
    member,
    perp,
    rows,
    rref,
    t_image,
    t_preimage,
)

# ---------------------------------------------------------------------------
# oracles: the submodule algebra on RREF subspaces of F_q^(2m), in the
# coordinates 2i + j of t^i e_j
# ---------------------------------------------------------------------------


def oracle_contains(W, U, q):
    return all(member(u, W, q) for u in U)


def oracle_intersect(U, W, ncols, q):
    """Zassenhaus: rref of [[u|u],[w|0]]; zero-left rows carry the answer."""
    stacked = [tuple(u) + tuple(u) for u in U] + \
              [tuple(w) + (0,) * ncols for w in W]
    reduced = rref(stacked, q)
    out = [row[ncols:] for row in reduced if not any(row[:ncols])]
    return rref(out, q) if out else ()


def oracle_constraint_matrix(W, ncols, q):
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


def oracle_nullspace(matrix, ncols, q):
    """Basis of {v : M v = 0} for the matrix M with the given rows."""
    R = rref(matrix, q)
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


def oracle_pairing(u, v, m, q):
    """u . v = u_0 v_0 + u_1 v_1 mod t^m, as a coefficient list."""
    out = [0] * m
    for i in range(m):
        for k in range(m - i):
            out[i + k] += u[2 * i] * v[2 * k] + u[2 * i + 1] * v[2 * k + 1]
    return [x % q for x in out]


def oracle_t_shift(v, m):
    """t . (t^i e_j) = t^(i+1) e_j, truncated at t^m."""
    out = [0] * (2 * m)
    for i in range(m - 1):
        out[2 * (i + 1)] = v[2 * i]
        out[2 * (i + 1) + 1] = v[2 * i + 1]
    return tuple(out)


def oracle_t_image(W, m, q):
    return rref([oracle_t_shift(v, m) for v in W], q) if W else ()


def oracle_t_preimage(W, m, q):
    """{v in V(m) : t v in W}."""
    composed = []
    for f in oracle_constraint_matrix(W, 2 * m, q):
        g = [0] * (2 * m)
        for i in range(m - 1):
            g[2 * i] = f[2 * (i + 1)]
            g[2 * i + 1] = f[2 * (i + 1) + 1]
        composed.append(tuple(g))
    return oracle_nullspace(composed, 2 * m, q)


def oracle_thin_invariants(L, K, m, q):
    """(eta, beta, delta, dim) of L/K by the image and preimage loops."""
    if not oracle_contains(L, K, q):
        raise ValueError("K is not contained in L")
    d = len(L) - len(K)
    rank = len(oracle_intersect(oracle_t_preimage(K, m, q), L, 2 * m, q)) \
        - len(K)
    if rank > 2:
        raise ValueError(f"subquotient has rank {rank} > 2, not thin")
    X, eta = L, 0
    while not oracle_contains(K, X, q):
        X = oracle_t_image(X, m, q)
        eta += 1
    beta, P = 0, K
    while True:
        P = oracle_t_preimage(P, m, q)
        if len(oracle_intersect(P, L, 2 * m, q)) - len(K) == 2 * (beta + 1):
            beta += 1
        else:
            break
    delta = 2 * eta - d
    if beta + delta != eta or delta < 0:
        raise AssertionError(f"inconsistent invariants for a thin module "
                             f"(eta={eta}, beta={beta}, delta={delta})")
    return eta, beta, delta, d


def oracle_unrolled_window(F, n, q):
    """d(i, j) of the unrolled flag, with F given by RREF bases, in the
    model module V(3n) = t^-2n V / t^n V: W~_i is t^n lift(W_i) +
    t^2n V(3n) for i <= 2n, and W~_(i+2n) = t^-n W~_i."""
    m = 3 * n
    tail = [tuple(1 if c == 2 * s + j else 0 for c in range(2 * m))
            for s in range(2 * n, 3 * n) for j in (0, 1)]
    spaces = []
    for W in F:
        shifted = [(0, 0) * n + v + (0, 0) * n for v in W]
        spaces.append(rref(shifted + tail, q))
    for i in range(1, 2 * n + 1):
        W = spaces[i]
        for _ in range(n):
            W = oracle_t_preimage(W, m, q)
        spaces.append(W)
    return {(i, j): oracle_thin_invariants(spaces[j], spaces[i], m, q)[2]
            for i in range(4 * n + 1)
            for j in range(i, min(i + 2 * n, 4 * n) + 1)}



def reference_rref(rows, q):
    """Reference RREF: full-width elimination, zero rows filtered per pivot."""
    inv = [pow(a, q - 2, q) if a else 0 for a in range(q)]
    mat = [list(r) for r in rows]
    out, pivots = [], []
    ncols = len(mat[0]) if mat else 0
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
                for i in range(ncols):
                    other[i] = (other[i] - f * pivot_row[i]) % q
        mat = [r for r in mat if any(x % q for x in r)]
        out.append(pivot_row)
        pivots.append(col)
        col += 1
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return tuple(tuple(out[i]) for i in order)


def all_vectors(ncols, q):
    """All q^ncols coordinate vectors (small search spaces only)."""
    out = [()]
    for _ in range(ncols):
        out = [v + (a,) for v in out for a in range(q)]
    return out


def oracle_submodules(n, q):
    """Every submodule of V(n) as the span of the t-orbits of two vectors
    (each has at most two generators): q^(4n) RREFs."""
    vectors = all_vectors(2 * n, q)
    orbits = {}
    for v in vectors:
        orbit, w = [], v
        while any(w):
            orbit.append(w)
            w = oracle_t_shift(w, n)
        orbits[v] = tuple(orbit)
    seen = {rref(orbits[u] + orbits[v], q) for u in vectors for v in vectors}
    return tuple(sorted(seen, key=lambda W: (len(W), W)))


def oracle_chains(n, q):
    """Every chain 0 = M_0 < ... < M_d (d >= 1) of submodules with
    dim M_i = i, by depth-first search over the oracle lattice."""
    by_dim = {}
    for W in oracle_submodules(n, q):
        by_dim.setdefault(len(W), []).append(W)
    chains = []

    def grow(chain):
        chains.append(tuple(chain))
        for W in by_dim.get(len(chain), []):
            if oracle_contains(W, chain[-1], q):
                chain.append(W)
                grow(chain)
                chain.pop()

    grow([()])
    return [c for c in chains if len(c) > 1]


def identity(m, q):
    return rref([tuple(1 if c == i else 0 for c in range(m)) for i in range(m)], q)


def zero(m):
    return (m, m, (0,) * m)


def test_rref_is_canonical_under_change_of_basis():
    rng = random.Random(20240817)
    for q in (2, 3, 5):
        for _ in range(50):
            ncols = rng.randint(2, 6)
            k = rng.randint(1, ncols)
            rows = [tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(k)]
            W = rref(rows, q)
            # random invertible combinations of the rows span the same space
            mixed = []
            for _ in range(k + 2):
                coeffs = [rng.randrange(q) for _ in rows]
                mixed.append(tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % q
                                   for i in range(ncols)))
            assert rref(mixed + list(rows), q) == W


def test_rref_matches_reference_on_random_matrices():
    rng = random.Random(5101)
    for q in (2, 3, 5):
        for _ in range(300):
            ncols = rng.randint(1, 7)
            rows = [tuple(rng.randrange(3 * q) for _ in range(ncols))
                    for _ in range(rng.randint(0, 6))]
            rows += [(0,) * ncols] * rng.randint(0, 2)
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))
                     if rows]
            rng.shuffle(rows)
            assert rref(rows, q) == reference_rref(rows, q), (q, rows)


def test_cached_lattice_ops_match_uncached():
    n, q = 2, 3
    subs = submodules(n, q)
    cached = (fqlin.t_image, fqlin.t_preimage, flags.thin_invariants,
              fqlin.intersect)
    for fn in cached:
        fn.cache_clear()
    calls = [(fn, (L, n, q)) for fn in cached[:2] for L in subs]
    calls += [(fqlin.intersect, (L, K, n, q)) for L in subs for K in subs]
    calls += [(flags.thin_invariants, (L, K)) for L in subs
              for K in subs if contains(L, K, n, q)]
    for fn, args in calls:
        # computed, then reused: both equal the undecorated result
        assert fn(*args) == fn(*args) == fn.__wrapped__(*args)
    for fn in cached:
        assert fn.cache_info().hits > 0


def test_sum_intersection_dimension_formula():
    rng = random.Random(7)
    for _ in range(60):
        q, ncols = rng.choice([(2, 6), (3, 4)])
        U = rref([tuple(rng.randrange(q) for _ in range(ncols))
                  for _ in range(rng.randint(1, 3))], q)
        W = rref([tuple(rng.randrange(q) for _ in range(ncols))
                  for _ in range(rng.randint(1, 3))], q)
        S = rref(U + W, q)
        X = oracle_intersect(U, W, ncols, q)
        assert len(S) + len(X) == len(U) + len(W)
        assert oracle_contains(U, X, q) and oracle_contains(W, X, q)
        assert oracle_contains(S, U, q) and oracle_contains(S, W, q)
        # the same formula for the submodules these vectors span
        m = ncols // 2
        U, W = hermite(U, m, q), hermite(W, m, q)
        S, X = add(U, W, m, q), intersect(U, W, m, q)
        assert dim(S, m) + dim(X, m) == dim(U, m) + dim(W, m)
        assert contains(U, X, m, q) and contains(W, X, m, q)
        assert contains(S, U, m, q) and contains(S, W, m, q)


@pytest.mark.parametrize("n, q", [(1, 2), (2, 2), (2, 3), (3, 2), (2, 5),
                                  (3, 3)])
def test_hermite_round_trips_rows(n, q):
    for L in submodules(n, q):
        R = rows(L, n, q)
        assert len(R) == dim(L, n)
        assert hermite(R, n, q) == L


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (2, 5)])
def test_lattice_ops_match_rref_oracles(n, q):
    subs = submodules(n, q)
    for L in subs:
        RL = rows(L, n, q)
        assert rows(t_image(L, n, q), n, q) == oracle_t_image(RL, n, q)
        assert rows(t_preimage(L, n, q), n, q) == \
            oracle_t_preimage(RL, n, q)
        P = perp(L, n, q)
        assert dim(P, n) + dim(L, n) == 2 * n and perp(P, n, q) == L
        assert not any(any(oracle_pairing(u, v, n, q))
                       for u in rows(P, n, q) for v in RL)
        up, down = RL, RL
        for r in range(n + 2):
            assert rows(t_image(L, n, q, r), n, q) == down
            assert rows(t_preimage(L, n, q, r), n, q) == up
            up, down = oracle_t_preimage(up, n, q), oracle_t_image(down, n, q)
        for K in subs:
            RK = rows(K, n, q)
            assert rows(intersect(L, K, n, q), n, q) == \
                oracle_intersect(RL, RK, 2 * n, q)
            inside = oracle_contains(RL, RK, q)
            assert contains(L, K, n, q) == inside
            if inside:
                ti = thin_invariants(L, K)
                assert (ti.eta, ti.beta, ti.delta, ti.dim) == \
                    oracle_thin_invariants(RL, RK, n, q)
            else:
                with pytest.raises(ValueError):
                    thin_invariants(L, K)


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3)])
def test_unrolled_metric_matches_v3n_model(n, q):
    for F in enumerate_flags(n, q):
        RF = [rows(W, n, q) for W in F]
        assert unrolled_metric(F, n)["window"] == \
            oracle_unrolled_window(RF, n, q)


def test_t_image_preimage_adjunction():
    for n, q in ((2, 2), (3, 2), (2, 3)):
        full = hermite(identity(2 * n, q), n, q)
        for W in submodules(n, q):
            up = t_preimage(W, n, q)
            assert contains(up, W, n, q)  # t W <= W for submodules
            assert t_image(up, n, q) == intersect(
                W, t_image(full, n, q), n, q)


def test_thin_invariant_examples():
    # A_1 + A_3 inside V(3): generators e_0 and t^2 e_1
    q, m = 2, 3
    gen = [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0),
           (0, 0, 0, 0, 0, 1)]
    ti = thin_invariants(hermite(rref(gen, q), m, q), zero(m))
    assert (ti.eta, ti.beta, ti.delta, ti.dim) == (3, 1, 2, 4)
    # balanced A_d^2 has delta 0: take t^(m-d) V(m)
    for d in (1, 2):
        W = rref([tuple(1 if c == 2 * s + j else 0 for c in range(2 * m))
                  for s in range(m - d, m) for j in (0, 1)], q)
        assert is_balanced(hermite(W, m, q), zero(m))
    # V(n) itself
    for n, q2 in ((2, 2), (3, 2), (2, 3)):
        ti = thin_invariants(hermite(identity(2 * n, q2), n, q2), zero(n))
        assert (ti.eta, ti.beta, ti.delta, ti.dim) == (n, n, 0, 2 * n)


def test_thin_invariants_rejects_non_nested():
    with pytest.raises(ValueError):
        thin_invariants(zero(2), hermite(identity(4, 2), 2, 2))


def test_flag_counts():
    assert sum(1 for _ in enumerate_flags(1, 2)) == 3
    assert sum(1 for _ in enumerate_flags(1, 3)) == 4
    assert sum(1 for _ in enumerate_flags(2, 2)) == 15
    assert sum(1 for _ in enumerate_flags(2, 3)) == 28
    assert sum(1 for _ in enumerate_flags(3, 2)) == 87


def test_flags_are_valid_and_distinct():
    flags = list(enumerate_flags(2, 2))
    assert len(set(flags)) == len(flags)
    for F in flags:
        assert flag_is_valid(F, 2, 2)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_flags(12, 2))


def test_point_count_reports():
    # reported as data: the counts happen to match the Poincare values
    for n, q in ((2, 2), (3, 2), (2, 3)):
        assert point_count_report(n, q)["equal"]


def test_xni_equivalent_characterisations():
    # t W_{i+1} = W_{i-1} iff W_{i+1}/W_{i-1} is balanced
    for F in enumerate_flags(2, 2):
        for i in (1, 2, 3):
            assert in_xni(F, i, 2, 2) == is_balanced(F[i + 1], F[i - 1])


def test_x1k_is_everything():
    for F in enumerate_flags(1, 2):
        assert in_xnk(F, (1,), 1)


def test_cover_scans():
    r = cover_scan(2, 2)
    assert r["covered"]
    assert r["xni_counts"] == {1: 9, 2: 9}
    assert set(r["xnk_counts"].values()) == {9}  # X(n,K) has (q+1)^n points
    r3 = cover_scan(3, 2)
    assert r3["covered"]
    assert r3["xni_counts"] == {1: 45, 2: 45, 3: 45}
    assert set(r3["xnk_counts"].values()) == {27}
    assert cover_scan(2, 3)["covered"]


@pytest.mark.parametrize("n, q, count", [(4, 2, 543), (3, 3, 232)])
def test_cover_scan_at_larger_sizes(n, q, count):
    r = cover_scan(n, q)
    assert r["covered"]
    assert r["flags"] == point_count_report(n, q)["poincare_value"] == count


def test_unrolled_metric_axioms_exhaustive_n2():
    for F in enumerate_flags(2, 2):
        rep = unrolled_metric(F, 2)
        assert rep["pseudometric_ok"]
        assert rep["unit_steps"] and rep["wraparound_zero"]


def test_tree_from_flag_exhaustive_n2():
    edge_counts = {}
    for F in enumerate_flags(2, 2):
        T, rep = tree_from_flag(F, 2)
        assert rep["is_tree"] and rep["path_metric_matches"]
        edge_counts[rep["edge_count"]] = edge_counts.get(rep["edge_count"], 0) + 1
    # data for the open question: the canonical tree need not have n edges
    assert edge_counts == {2: 12, 1: 3}


def test_tree_from_flag_n1():
    for F in enumerate_flags(1, 2):
        T, rep = tree_from_flag(F, 1)
        assert rep["is_tree"] and rep["edge_count"] == 1


def test_submodule_counts():
    assert len(submodules(2, 2)) == 15
    assert len(submodules(3, 2)) == 37


def test_chain_lemma_scan_n2():
    r = chain_lemma_scan(2, 2)
    assert r["all_clear"]
    counts = {k: v["instances"] for k, v in r.items() if isinstance(v, dict)}
    assert counts == {"count_K": 4, "W_exponent": 72, "interval": 45,
                      "treelike": 1128, "triangle": 69, "gap": 118,
                      "one_step_a": 42, "one_step_b": 87}


def test_chain_lemma_scan_q3():
    assert chain_lemma_scan(2, 3)["all_clear"]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2)])
def test_flag_lattice_matches_brute_force(n, q):
    # the lattice read off the flags equals the vector-pair search, and
    # the distinct flag prefixes are exactly the unit-step chains from 0
    assert tuple(rows(W, n, q) for W in submodules(n, q)) == \
        oracle_submodules(n, q)
    chains = oracle_chains(n, q)
    prefixes = {tuple(rows(W, n, q) for W in F[:d + 1])
                for F in enumerate_flags(n, q) for d in range(1, 2 * n + 1)}
    assert len(set(chains)) == len(chains)
    assert prefixes == set(chains)
    rep = chain_lemma_scan(n, q)
    assert rep["one_step_a"]["instances"] == len(chains)
    subs = oracle_submodules(n, q)
    assert rep["triangle"]["instances"] == sum(
        1 for N in subs for M in subs if oracle_contains(M, N, q))


def test_chain_lemma_scan_n4_counts():
    # n = 4 now gets the gap and triangle lemmas and every chain
    r = chain_lemma_scan(4, 2)
    assert r["all_clear"]
    counts = {k: v["instances"] for k, v in r.items() if isinstance(v, dict)}
    assert counts == {"count_K": 56, "W_exponent": 9072, "interval": 6804,
                      "treelike": 450384, "triangle": 987, "gap": 3257,
                      "one_step_a": 1770, "one_step_b": 4179}


def test_all_vectors_and_nullspace():
    assert len(all_vectors(3, 2)) == 8
    N = oracle_nullspace([(1, 1, 0), (0, 1, 1)], 3, 2)
    assert N == ((1, 1, 1),)
    assert member((1, 1, 1), N, 2)
