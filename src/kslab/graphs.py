"""Bipartite graphs with parity, foldings, trees and hedgehogs.

A graph here is connected, bipartite via an explicit parity map to {0, 1},
and irreflexive; directed edges always come in opposite pairs, so we store
undirected edges (frozensets {u, v}) as the primary citizens and recover the
directed count as twice the undirected count.  Every edge joins opposite
parities, so each undirected edge has a canonical positive orientation
(even endpoint -> odd endpoint).

A folding is a parity-respecting partition of the vertices; its quotient is
again a graph (no loops can arise: identified vertices share parity, and
edges join opposite parities), and quotient maps are automatically
surjective on vertices and edges.  A tree folding is one with a tree
quotient.  The quotient of a connected graph is connected, and its edges
are the distinct (even class, odd class) pairs met by the positive edges,
so a partition is a tree folding iff that pair count is the number of
classes minus one; ``enumerate_tree_foldings`` tests exactly this and
builds no quotient graph.

Standard graphs:

* C(n): cycle with vertex set Z/2n, edges e_i = {i-1, i} for i in N_2n;
  C(1) is a single undirected edge (2 directed edges).
* L(n): line with vertices 0..2n, edges e_i = {i-1, i}.
* B: the single-edge graph on {0, 1}.
* theta: two squares 0-1-2-3 and 0-1-4-5 sharing the edge {0, 1}.
* K23, K33: complete bipartite graphs, even vertices first.
* cube: the 3-cube on {0..7}, v ~ w iff they differ in one bit; parity
  is the bit count mod 2.

Hedgehogs: pinching L(n) along A (identifying i-1 with i+1 for i in A) and
rolling (0 = 2n) folds C(n) onto a body cycle C(m) with attached spines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .combinatorics import (
    Tau,
    check_matching,
    is_noncrossing,
    matching_from_pairs,
)

Edge = frozenset
Partition = tuple[tuple, ...]


# ---------------------------------------------------------------------------
# the graph type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiGraph:
    vertices: tuple
    parity: dict
    edges: frozenset  # of frozenset({u, v})

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            twice = [v for i, v in enumerate(self.vertices)
                     if v in self.vertices[:i]]
            raise ValueError(f"vertex {twice[0]!r} is listed twice")
        for e in self.edges:
            if len(e) == 1:                # frozenset({u, u}) == {u}
                raise ValueError(f"loop at {next(iter(e))!r}")
            u, v = tuple(e)
            if u not in vs or v not in vs:
                raise ValueError(f"edge {set(e)} leaves the vertex set")
            if self.parity[u] == self.parity[v]:
                raise ValueError(f"edge {set(e)} joins equal parities")
        if not self.is_connected():
            raise ValueError("graph must be connected")

    # -- basics -------------------------------------------------------------

    def neighbours(self, v):
        return {u for e in self.edges if v in e for u in e if u != v}

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for u in self.neighbours(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    def positive_orientation(self, e: Edge) -> tuple:
        """(even vertex, odd vertex) of an undirected edge."""
        u, v = tuple(e)
        return (u, v) if self.parity[u] == 0 else (v, u)

    def positive_edges(self) -> list[tuple]:
        return sorted(self.positive_orientation(e) for e in self.edges)

    def distance(self, u, v) -> int:
        frontier, seen, d = {u}, {u}, 0
        while frontier:
            if v in frontier:
                return d
            frontier = {w for x in frontier for w in self.neighbours(x)} - seen
            seen |= frontier
            d += 1
        raise ValueError("vertices not connected")

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": v, "parity": self.parity[v]} for v in self.vertices],
            "edges": sorted(sorted(e, key=str) for e in self.edges),
        }


def _is_json_id(x) -> bool:
    # a bool, 0.0 or 1.0 would collide with the id 0 or 1
    return isinstance(x, (int, str)) and not isinstance(x, bool)


def graph_from_json(data: dict) -> BiGraph:
    """A graph from {"vertices": [{"id": ..., "parity": 0|1}, ...],
    "edges": [[u, v], ...]}; any other shape raises ValueError naming the
    key at fault."""
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object with keys "
                         "'vertices' and 'edges'")
    for key in ("vertices", "edges"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"graph JSON needs a list under {key!r}")
    for item in data["vertices"]:
        for key in ("id", "parity"):
            if not isinstance(item, dict) or key not in item:
                raise ValueError(f"graph JSON vertex {item!r} has no {key!r}")
        # false, true and 1.0 equal a parity of 0 or 1 but are not one
        if not _is_json_id(item["id"]) or type(item["parity"]) is not int \
                or item["parity"] not in (0, 1):
            raise ValueError(f"graph JSON vertex {item!r} needs an int or "
                             f"string 'id' and a 'parity' of 0 or 1")
    edges = set()
    for e in data["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise ValueError(f"graph JSON 'edges' entry {e!r} is not a pair")
        if not (_is_json_id(e[0]) and _is_json_id(e[1])):
            raise ValueError(f"graph JSON edge {e!r} needs int or string "
                             f"endpoints")
        if frozenset(e) in edges:
            raise ValueError(f"graph JSON edge {e!r} is listed twice")
        edges.add(frozenset(e))
    vertices = tuple(item["id"] for item in data["vertices"])
    parity = {item["id"]: item["parity"] for item in data["vertices"]}
    if not vertices:
        raise ValueError("empty vertex set")
    return BiGraph(vertices, parity, frozenset(edges))


def is_tree(G: BiGraph) -> bool:
    """For connected graphs: tree iff |edges| = |vertices| - 1."""
    return len(G.edges) == len(G.vertices) - 1


def is_tree_by_deletion(G: BiGraph) -> bool:
    """Cross-check: G is a tree iff removing any edge disconnects it."""
    for e in G.edges:
        smaller = BiGraph.__new__(BiGraph)
        object.__setattr__(smaller, "vertices", G.vertices)
        object.__setattr__(smaller, "parity", G.parity)
        object.__setattr__(smaller, "edges", G.edges - {e})
        if smaller.is_connected():
            return False
    return True


# ---------------------------------------------------------------------------
# standard graphs
# ---------------------------------------------------------------------------

# the standard graphs without a size parameter: (parities, edges) on 0..k-1
FIXED_GRAPHS = {
    "B": ([0, 1], [(0, 1)]),
    "theta": ([v % 2 for v in range(6)],
              [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]),
    "K23": ([0, 0, 1, 1, 1], [(a, b) for a in range(2) for b in range(2, 5)]),
    "K33": ([0, 0, 0, 1, 1, 1],
            [(a, b) for a in range(3) for b in range(3, 6)]),
    "cube": ([bin(v).count("1") % 2 for v in range(8)],
             [(v, v | bit) for v in range(8) for bit in (1, 2, 4)
              if not v & bit]),
}


def make_standard(kind: str, n: int = 0) -> BiGraph:
    """C(n) and L(n) for kind "C" / "L", else a name in ``FIXED_GRAPHS``."""
    if kind == "C":
        if n < 1:
            raise ValueError("C(n) needs n >= 1")
        two_n = 2 * n
        vertices = tuple(range(two_n))
        parity = {v: v % 2 for v in vertices}
        edges = frozenset(
            frozenset({(i - 1) % two_n, i % two_n}) for i in range(1, two_n + 1)
        )
        return BiGraph(vertices, parity, edges)
    if kind == "L":
        vertices = tuple(range(2 * n + 1))
        parity = {v: v % 2 for v in vertices}
        edges = frozenset(frozenset({i - 1, i}) for i in range(1, 2 * n + 1))
        return BiGraph(vertices, parity, edges)
    if kind in FIXED_GRAPHS:
        parity, edges = FIXED_GRAPHS[kind]
        return BiGraph(tuple(range(len(parity))), dict(enumerate(parity)),
                       frozenset(frozenset(e) for e in edges))
    raise ValueError(f"unknown standard graph kind {kind!r}")


# ---------------------------------------------------------------------------
# foldings
# ---------------------------------------------------------------------------

def normalise_partition(classes) -> Partition:
    return tuple(sorted(tuple(sorted(c)) for c in classes))


def partition_map(partition: Partition) -> dict:
    """vertex -> representative (smallest member of its class)."""
    out = {}
    for cls in partition:
        rep = min(cls)
        for v in cls:
            out[v] = rep
    return out


def quotient(G: BiGraph, partition: Partition) -> tuple[BiGraph, dict]:
    """Quotient graph of a foldable partition, plus the vertex map."""
    seen = [v for cls in partition for v in cls]
    if sorted(seen) != sorted(G.vertices):
        raise ValueError("partition does not cover the vertex set exactly once")
    for cls in partition:
        if len({G.parity[v] for v in cls}) > 1:
            raise ValueError(f"class {cls} mixes parities")
    pmap = partition_map(partition)
    qedges = set()
    for e in G.edges:
        u, v = tuple(e)
        if pmap[u] == pmap[v]:
            raise ValueError(f"partition merges adjacent vertices {u}, {v}")
        qedges.add(frozenset({pmap[u], pmap[v]}))
    qvertices = tuple(sorted({pmap[v] for v in G.vertices}))
    qparity = {pmap[v]: G.parity[v] for v in G.vertices}
    return BiGraph(qvertices, qparity, frozenset(qedges)), pmap


# ---------------------------------------------------------------------------
# tree foldings of C(n) <-> non-crossing matchings
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> Partition:
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return normalise_partition(groups.values())


def ncm_to_folding(tau: Tau) -> Partition:
    """The folding of C(n) generated by i ~ tau(i) - 1 (vertices mod 2n)."""
    check_matching(tau)
    if not is_noncrossing(tau):
        raise ValueError("matching must be non-crossing")
    two_n = len(tau)
    uf = _UnionFind(range(two_n))
    for i in range(1, two_n + 1):
        uf.union(i % two_n, (tau[i - 1] - 1) % two_n)
    return uf.classes()


def folding_to_ncm(partition: Partition, n: int) -> Tau:
    """Inverse of ncm_to_folding for tree foldings of C(n) with n edges.

    Each quotient edge must have exactly two preimage edges e_i, e_j; these
    are traversed with opposite orientations, and pairing i with j recovers
    the matching.
    """
    two_n = 2 * n
    G = make_standard("C", n)
    T, pmap = quotient(G, partition)
    if not is_tree(T) or len(T.edges) != n:
        raise ValueError("not a tree folding with n edges")
    fibres: dict[Edge, list[int]] = {}
    for i in range(1, two_n + 1):
        u, v = (i - 1) % two_n, i % two_n
        fibres.setdefault(frozenset({pmap[u], pmap[v]}), []).append(i)
    pairs = []
    for e, idxs in fibres.items():
        if len(idxs) != 2:
            raise ValueError(f"edge {set(e)} has {len(idxs)} preimages, need 2")
        pairs.append(tuple(sorted(idxs)))
    tau = matching_from_pairs(pairs, two_n)
    if not is_noncrossing(tau):
        raise ValueError("recovered matching is not non-crossing")
    return tau


def _set_partitions(items: list):
    """All set partitions of items (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in _set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield [[first]] + smaller


def enumerate_tree_foldings(G: BiGraph) -> list[Partition]:
    """All parity-respecting partitions whose quotient is a tree, sorted.

    Runs over (partition of even vertices) x (partition of odd vertices).
    No class holds two adjacent vertices, since edges join opposite
    parities, and the quotient is connected because G is.  So a partition
    into m classes is a tree folding iff the positive edges meet exactly
    m - 1 distinct (even class, odd class) pairs, the quotient's edges.
    The odd-side class of every edge is computed once per odd partition.
    """
    evens = sorted(v for v in G.vertices if G.parity[v] == 0)
    odds = sorted(v for v in G.vertices if G.parity[v] == 1)
    edges = G.positive_edges()
    odd_sides = []
    for po in _set_partitions(odds):
        cls = {v: j for j, c in enumerate(po) for v in c}
        odd_sides.append((po, [cls[o] for _, o in edges]))
    out = []
    for pe in _set_partitions(evens):
        cls = {v: j for j, c in enumerate(pe) for v in c}
        even_side = [cls[e] for e, _ in edges]
        for po, odd_side in odd_sides:
            if len(set(zip(even_side, odd_side))) == len(pe) + len(po) - 1:
                out.append(normalise_partition(pe + po))
    return sorted(out)


# ---------------------------------------------------------------------------
# hedgehogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hedgehog:
    n: int
    pinch: tuple[int, ...]              # A
    a_sharp: tuple[int, ...]            # A^# inside {0..2n}
    spine_indices: tuple[int, ...]      # K_0: i_t with i_{t+1} - i_t even
    body_indices: tuple[int, ...]       # K_1: i_t with i_{t+1} - i_t odd
    body_length: int                    # m, |K_1| = 2m
    rolled_partition: Partition = field(compare=False)
    rolled_graph: BiGraph = field(compare=False)


def hedgehog_analyze(n: int, A) -> Hedgehog:
    """Pinch data of H(A): A^#, spine/body classification, rolled graph.

    A subset of {1..2n-1}; the unrolled hedgehog has vertices A^# (listing
    i_0 = 0 < i_1 = 1 < ... < i_r, with sentinel i_{r+1} = 2n+1) and edges
    d_t for 1 <= t <= r; d_t is a spine when i_{t+1} - i_t is even and a
    body edge when it is odd.  Rolling identifies 0 with 2n, i.e. performs
    the same pinching inside C(n).
    """
    two_n = 2 * n
    A = tuple(sorted(A))
    if any(a < 1 or a >= two_n for a in A):
        raise ValueError(f"pinch set {A} not inside {{1..{two_n - 1}}}")
    a_sharp = tuple(i for i in range(two_n + 1) if i - 1 not in A)
    ivals = list(a_sharp) + [two_n + 1]
    spines, body = [], []
    for t in range(1, len(a_sharp)):
        if (ivals[t + 1] - ivals[t]) % 2 == 0:
            spines.append(ivals[t])
        else:
            body.append(ivals[t])
    # the gaps i_{t+1} - i_t, t = 1..r, sum to i_{r+1} - i_1 = 2n, so the
    # odd gaps, the body edges, are even in number
    if len(body) % 2:
        raise RuntimeError("odd number of body edges")
    uf = _UnionFind(range(two_n))
    for i in A:
        uf.union((i - 1) % two_n, (i + 1) % two_n)
    partition = uf.classes()
    rolled, _ = quotient(make_standard("C", n), partition)
    return Hedgehog(
        n=n,
        pinch=A,
        a_sharp=a_sharp,
        spine_indices=tuple(spines),
        body_indices=tuple(body),
        body_length=len(body) // 2,
        rolled_partition=partition,
        rolled_graph=rolled,
    )


# ---------------------------------------------------------------------------
# canonical forms for tiny-graph isomorphism
# ---------------------------------------------------------------------------

def canonical_form(G: BiGraph):
    """A label-independent isomorphism invariant (not a canonical form).

    Returns (vertex count, edge count, sorted multiset of profiles), where
    the profile of a vertex v is its parity and, for each BFS layer from
    v, the sorted (parity, degree) pairs of that layer.  Isomorphic graphs
    get equal values; unequal values prove non-isomorphism, but equal
    values do not prove isomorphism.
    """
    profiles = []
    for v in G.vertices:
        layers = []
        frontier, seen = [v], {v}
        while frontier:
            layers.append(sorted(
                (G.parity[u], len(G.neighbours(u))) for u in frontier))
            nxt = []
            for u in frontier:
                for w in G.neighbours(u):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        profiles.append((G.parity[v], tuple(map(tuple, layers))))
    return (len(G.vertices), len(G.edges), tuple(sorted(profiles)))
