"""Tests of the benchmark itself (not of kslab).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kslab import graph_rings, intlinalg, topology  # noqa: E402
from kslab.graphs import graph_from_json, make_standard  # noqa: E402


def test_self_and_busy_time_on_a_synthetic_span_tree():
    # a.x [0, 10] > b.y [1, 4] > a.x [2, 3];  a.x [0, 10] > b.z [5, 9]
    tree = [
        ["a.x", 0.0, 10.0, -1, "op"],
        ["b.y", 1.0, 4.0, 0, "op"],
        ["a.x", 2.0, 3.0, 1, "op"],
        ["b.z", 5.0, 9.0, 0, "op"],
    ]
    agg = spans.aggregate(tree)
    assert agg["a.x.calls"] == 2 and agg["a.calls"] == 2
    assert agg["a.x.busy_s"] == 10.0          # the nested a.x adds nothing
    assert agg["a.busy_s"] == 10.0
    assert agg["a.self_s"] == (10 - 3 - 4) + 1
    assert agg["b.busy_s"] == 3.0 + 4.0
    assert agg["b.self_s"] == (3 - 1) + 4
    assert agg["b.y.busy_s"] == 3.0 and agg["b.z.busy_s"] == 4.0


@pytest.mark.parametrize("name", ["C2", "theta", "K33", "L2"])
def test_relabeller_preserves_graph_ring_structure(name):
    parity, edges = workloads.BASE_GRAPHS[name]
    base = graph_from_json({
        "vertices": [{"id": v, "parity": p} for v, p in enumerate(parity)],
        "edges": [list(e) for e in edges]})
    want = graph_rings.graded_structure(base)
    rng = random.Random(7)
    for _ in range(4):
        G = graph_from_json(workloads.relabel(name, rng))
        assert graph_rings.graded_structure(G) == want


def test_relabeller_is_seeded_and_varies():
    one = workloads.relabel("theta", random.Random(3))
    assert one == workloads.relabel("theta", random.Random(3))
    assert any(workloads.relabel("theta", random.Random(s)) != one
               for s in range(4, 8))


def test_every_seed_maps_to_frozen_certificates(tmp_path):
    certs = json.loads(worker.CERTS.read_text())
    for seed in range(40):
        for name in workloads.WORKLOADS:
            for op in workloads.generate(name, seed, tmp_path):
                assert op.cert in certs, op.cert
                assert "--seed" not in op.argv


def _worker_rep(tmp_path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert worker.main(["--workload", "topology", "--seed", "5",
                            "--dir", str(tmp_path / "rep")]) == 0
    rep = json.loads(buf.getvalue().strip().splitlines()[-1])
    rep["setup_s"] = 0.0
    rep["wall_s"] = sum(op["seconds"] for op in rep["ops"])
    return rep


def test_op_times_are_means_over_repetitions():
    def rep(setup, times):
        return {"setup_s": setup, "rss_kb": 1024,
                "wall_s": sum(times.values()),
                "ops": [{"id": i, "seconds": t, "ok": True}
                        for i, t in times.items()]}
    largest = workloads.LARGEST["rings"]
    reps = [rep(0.3, {largest: 2.0, "a": 1.0, "b": 5.0}),
            rep(0.1, {largest: 3.0, "a": 0.5, "b": 6.0}),
            rep(0.2, {largest: 4.0, "a": 3.0, "b": 4.0})]
    got = run.end_to_end("rings", reps)
    assert got["wall_s"] == pytest.approx((8.0 + 9.5 + 11.0) / 3)
    assert got["op_p50_s"] == pytest.approx(3.0)  # means 3.0, 1.5, 5.0
    assert got["largest_op_s"] == pytest.approx(3.0)
    assert got["setup_s"] == 0.2
    assert got["peak_rss_mb"] == 1.0 and got["ok_frac"] == 1.0


def test_tampered_certificate_counts_as_a_failed_op(tmp_path, monkeypatch):
    certs = json.loads(worker.CERTS.read_text())
    good = _worker_rep(tmp_path)
    assert run.end_to_end("topology", [good])["ok_frac"] == 1.0
    assert run.problems([good], []) == []

    certs["cohomology-L3"]["s_ranks"][1] += 1
    tampered = tmp_path / "certs.json"
    tampered.write_text(json.dumps(certs))
    monkeypatch.setattr(worker, "CERTS", tampered)
    bad = _worker_rep(tmp_path)
    assert run.end_to_end("topology", [bad])["ok_frac"] < 1.0
    assert [op["id"] for op in bad["ops"] if not op["ok"]] == ["cohomology-L3"]
    assert any("cohomology-L3" in p for p in run.problems([bad], []))


def test_tracer_wraps_every_holder_and_restores_all():
    original = intlinalg.snf_invariants
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert topology.snf_invariants is intlinalg.snf_invariants
        assert topology.snf_invariants is not original
        assert spans.leftover_wrappers()
        traced = topology.compare_with_S(make_standard("C", 2))
    finally:
        tracer.restore()
    assert spans.leftover_wrappers() == []
    assert topology.snf_invariants is original
    assert graph_rings.quotient_structure.__module__ == "kslab.intlinalg"
    assert traced == topology.compare_with_S(make_standard("C", 2))
    names = {s[0] for s in tracer.spans}
    assert {"topology.compare", "topology.complex", "topology.coboundary",
            "intlinalg.snf", "graphs.tree_foldings"} <= names
    assert tracer.counts["topology.simplices"] > 0
    assert tracer.counts["exterior.mul.calls"] > 0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rings",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
