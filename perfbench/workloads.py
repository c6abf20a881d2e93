"""Workload op lists and the seeded input generator.

The seed drives only this generator.  Graph inputs are relabelled
(vertex ids permuted, parity optionally flipped, vertex and edge order
shuffled) and written as the graph JSON files that ``kslab`` reads; the
hedgehog op gets a seeded pinch set.  Ops whose only inputs are (n, q)
are the same for every seed.  The seed is never passed to the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

# -- base graphs, as (parity list, edge list) over vertices 0..len-1 --------


def cycle(n: int):
    """C(n): the 2n-cycle."""
    return [v % 2 for v in range(2 * n)], \
        [(i, (i + 1) % (2 * n)) for i in range(2 * n)]


def path(n: int):
    """L(n): the path with 2n edges."""
    return [v % 2 for v in range(2 * n + 1)], \
        [(i, i + 1) for i in range(2 * n)]


BASE_GRAPHS = {
    "C2": cycle(2),
    "C4": cycle(4),
    "C5": cycle(5),
    "L2": path(2),
    "L3": path(3),
    "theta": ([v % 2 for v in range(6)],
              [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]),
    "K33": ([0, 0, 0, 1, 1, 1],
            [(a, b) for a in range(3) for b in range(3, 6)]),
}


def relabel(name: str, rng: random.Random) -> dict:
    """A graph JSON dict isomorphic to BASE_GRAPHS[name], drawn from rng.

    Vertex ids are permuted, all parities are flipped with probability
    1/2 (which reverses every positive orientation), and the vertex
    list, the edge list and each edge's endpoint order are shuffled.
    """
    parity, edges = BASE_GRAPHS[name]
    nv = len(parity)
    ids = rng.sample(range(nv), nv)
    flip = rng.random() < 0.5
    vertices = [{"id": ids[v], "parity": parity[v] ^ flip} for v in range(nv)]
    rng.shuffle(vertices)
    out_edges = []
    for u, v in edges:
        e = [ids[u], ids[v]]
        rng.shuffle(e)
        out_edges.append(e)
    rng.shuffle(out_edges)
    return {"vertices": vertices, "edges": out_edges}


PINCH_N = 5


def pinch_candidates(n: int = PINCH_N) -> list[tuple[int, ...]]:
    """Sparse pinch sets of size 2 or 3 in {1..2n-1} (no two consecutive)."""
    return [A for r in (2, 3) for A in combinations(range(1, 2 * n), r)
            if all(b - a > 1 for a, b in zip(A, A[1:]))]


def choose_pinch(rng: random.Random) -> tuple[int, ...]:
    return rng.choice(pinch_candidates())


# -- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class OpSpec:
    """One CLI call.  ``graph`` names a base graph to relabel; ``fields``
    lists the report keys the frozen certificate holds (None: all)."""
    id: str
    argv: tuple[str, ...]
    graph: str | None = None
    pinch: bool = False
    fields: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Op:
    """A generated op: the argv the program gets and its certificate key."""
    id: str
    argv: list[str]
    cert: str
    fields: tuple[str, ...] | None


WORKLOADS: dict[str, list[OpSpec]] = {
    "rings": [
        OpSpec("ring-n5", ("ring", "--n", "5")),
        OpSpec("mvss-n3", ("mvss", "--n", "3")),
        OpSpec("conjecture-n6", ("conjecture", "--n", "6")),
        OpSpec("sgring-K33", ("sgring",), graph="K33"),
        OpSpec("sgring-C4", ("sgring",), graph="C4"),
        OpSpec("sgring-theta", ("sgring",), graph="theta"),
        OpSpec("fold-n5-pinch", ("fold", "--n", str(PINCH_N)), pinch=True),
        OpSpec("sparse-n8", ("sparse", "--n", "8"),
               fields=("counts", "catalan_size_n", "generating_function_row")),
        OpSpec("ncm-n7", ("ncm", "--n", "7"),
               fields=("count", "catalan", "roundtrip_failures")),
    ],
    "topology": [
        OpSpec("cohomology-C2-oct-a", ("cohomology",), graph="C2"),
        OpSpec("cohomology-C2-large-a", ("cohomology", "--large"), graph="C2"),
        OpSpec("cohomology-C2-oct-b", ("cohomology",), graph="C2"),
        OpSpec("cohomology-C2-large-b", ("cohomology", "--large"), graph="C2"),
        OpSpec("cohomology-L2", ("cohomology",), graph="L2"),
        OpSpec("cohomology-L3", ("cohomology",), graph="L3"),
        OpSpec("fold-C5", ("fold",), graph="C5", fields=("count",)),
    ],
    "flags": [
        OpSpec("flags-n2-q3-lemmas", ("flags", "--n", "2", "--q", "3",
                                      "--op", "lemmas")),
        OpSpec("flags-n3-cover", ("flags", "--n", "3", "--op", "cover")),
        OpSpec("flags-n2-q5-cover", ("flags", "--n", "2", "--q", "5",
                                     "--op", "cover")),
        OpSpec("flags-n2-q3-enumerate", ("flags", "--n", "2", "--q", "3",
                                         "--op", "enumerate")),
    ],
}

# The op whose time is reported as largest_op_s: the largest certificate
# of the workload that fits the run length.
LARGEST = {
    "rings": "sgring-K33",
    "topology": "cohomology-C2-oct-a",
    "flags": "flags-n2-q3-lemmas",
}


def cert_key(spec: OpSpec, pinch: tuple[int, ...] | None = None) -> str:
    """Certificate key: the op id, plus the pinch set for the hedgehog op."""
    if pinch is None:
        return spec.id
    return f"{spec.id}[{','.join(map(str, pinch))}]"


def generate(workload: str, seed: int, input_dir: Path) -> list[Op]:
    """The ops of a workload for one seed; graph files go to input_dir."""
    rng = random.Random(seed)
    input_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for spec in WORKLOADS[workload]:
        argv = list(spec.argv)
        key = cert_key(spec)
        if spec.graph is not None:
            path = input_dir / f"{spec.id}.json"
            path.write_text(json.dumps(relabel(spec.graph, rng)))
            argv += ["--graph", str(path)]
        if spec.pinch:
            pinch = choose_pinch(rng)
            argv += ["--pinch", ",".join(map(str, pinch))]
            key = cert_key(spec, pinch)
        ops.append(Op(spec.id, argv, key, spec.fields))
    return ops


def certificate(report, fields: tuple[str, ...] | None):
    """The part of a report that the frozen certificate pins down."""
    if fields is None:
        return report
    return {f: report.get(f) for f in fields}
