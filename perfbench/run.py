"""Certificate benchmark for kslab: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run repeats one workload (see workloads.py) in fresh worker processes,
so every repetition starts with cold caches and pays the import, as a
CLI user does, until ``--seconds`` are used (at least MIN_REPS).  Op
times are means over the repetitions; setup_s and peak_rss_mb are
medians (see end_to_end).  With ``--trace 1`` the run
alternates untraced and traced repetitions and reports the per-layer
metrics; every traced report must be byte-identical to the untraced
one.  Prints a table, then one JSON line: correct, attempted, failed,
metrics.  Exits 1 without a result if a repetition cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SCRATCH = ROOT / ".perfbench"
MIN_REPS = 3
RUN_LIMIT_S = 170  # every run must end well inside 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "largest_op_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}
PER_LAYER = {
    "intlinalg.snf.calls": "count", "intlinalg.snf.busy_s": "s",
    "intlinalg.snf.rows_in": "count", "intlinalg.snf.nnz_in": "count",
    "intlinalg.snf.max_nnz": "count", "intlinalg.snf.rank_per_row": "ratio",
    "topology.complex.busy_s": "s", "topology.simplices": "count",
    "topology.coboundary.busy_s": "s", "topology.coboundary.nnz": "count",
    "topology.self_s": "s",
    "graphs.tree_foldings.calls": "count",
    "graphs.tree_foldings.busy_s": "s",
    "graphs.tree_foldings.hit_rate": "ratio",
    "graph_rings.cycle_relations.busy_s": "s",
    "graph_rings.relations": "count", "graph_rings.self_s": "s",
    "springer.busy_s": "s", "springer.self_s": "s",
    "springer.reduce.calls": "count",
    "mvss.busy_s": "s", "mvss.self_s": "s", "mvss.d1.calls": "count",
    "mvss.normal_form.busy_s": "s",
    "combinatorics.busy_s": "s", "combinatorics.calls": "count",
    "exterior.mul.calls": "count", "exterior.relabel.calls": "count",
    "fqlin.rref.calls": "count", "fqlin.rref.busy_s": "s",
    "fqlin.rref.rows_in": "count", "fqlin.rref.rank_per_row": "ratio",
    "flags.enumerated": "count", "flags.unrolled_metric.calls": "count",
    "flags.unrolled_metric.busy_s": "s",
    "flags.thin_invariants.calls": "count", "flags.self_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "run.cpu_s": "s", "trace.overhead_s": "s",
}


class RepError(RuntimeError):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_rep(workload: str, seed: int, rep_dir: Path, timeout: float,
            trace_path: Path | None = None) -> dict:
    """One repetition in a fresh worker process; setup_s is measured from
    just before the process is started until the worker has imported
    kslab.cli and written its inputs (same system-wide monotonic clock)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--dir", str(rep_dir)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    start = monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"worker exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["setup_done"] - start
    rep["wall_s"] = sum(op["seconds"] for op in rep["ops"])
    return rep


def repeat(workload: str, seed: int, seconds: float, traced: bool,
           work: Path) -> tuple[list[dict], list[dict]]:
    """Untraced (and, if traced, interleaved traced) repetitions."""
    plain, with_trace = [], []
    start = monotonic()
    rounds = 0
    while True:
        left = RUN_LIMIT_S - (monotonic() - start)
        plain.append(run_rep(workload, seed, work / f"rep{rounds}", left))
        if traced:
            left = RUN_LIMIT_S - (monotonic() - start)
            with_trace.append(run_rep(
                workload, seed, work / f"trace{rounds}", left,
                SCRATCH / f"trace-{workload}-seed{seed}.jsonl"))
        rounds += 1
        elapsed = monotonic() - start
        need = 1 if traced else MIN_REPS
        if rounds >= need and elapsed * (rounds + 1) / rounds > seconds:
            return plain, with_trace


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, reps: list[dict]) -> dict:
    """Op times are means over the repetitions.  The host's speed drifts
    over seconds to minutes, and the mean weighs every second of the run
    alike, so it moves less between runs than the fastest or the median
    repetition (README.md, "Why the mean").  setup_s and peak_rss_mb are
    medians over the repetitions."""
    ops = [op for rep in reps for op in rep["ops"]]
    times: dict[str, list[float]] = {}
    for op in ops:
        times.setdefault(op["id"], []).append(op["seconds"])
    mean = {op_id: statistics.fmean(t) for op_id, t in times.items()}
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "wall_s": statistics.fmean(r["wall_s"] for r in reps),
        "op_p50_s": median(mean.values()),
        "largest_op_s": mean[workloads.LARGEST[workload]],
        "peak_rss_mb": median([r["rss_kb"] / 1024 for r in reps]),
        "ok_frac": sum(op["ok"] for op in ops) / len(ops),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    def ratio(num, den):
        return num / den if den else 0.0

    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for rep in traced:
        agg, counts = rep["aggregate"], rep["counts"]
        value = {**agg, **counts}
        value["intlinalg.snf.rank_per_row"] = ratio(
            counts.get("intlinalg.snf.rank", 0),
            counts.get("intlinalg.snf.rows_in", 0))
        value["fqlin.rref.rank_per_row"] = ratio(
            counts.get("fqlin.rref.rank", 0),
            counts.get("fqlin.rref.rows_in", 0))
        value["graphs.tree_foldings.hit_rate"] = ratio(
            counts.get("graphs.tree_foldings.found", 0),
            counts.get("graphs.tree_foldings.tried", 0))
        value["cli.report_bytes"] = sum(op["bytes"] for op in rep["ops"])
        for name in PER_LAYER:
            if name not in ("run.cpu_s", "trace.overhead_s"):
                samples[name].append(value.get(name, 0))
    out = {name: median(v) for name, v in samples.items()}
    out["run.cpu_s"] = median([r["cpu_s"] for r in plain])
    out["trace.overhead_s"] = median([r["wall_s"] for r in traced]) - \
        median([r["wall_s"] for r in plain])
    return out


def problems(plain: list[dict], traced: list[dict]) -> list[str]:
    """Failed ops, reports that differ between repetitions (traced or
    not), and tracer wrappers left behind."""
    out = []
    digests: dict[str, set[str]] = {}
    for rep in plain + traced:
        for op in rep["ops"]:
            if not op["ok"]:
                out.append(f"{op['cert']}: exit {op['rc']}, certificate "
                           f"mismatch or crash {op['error']}".rstrip())
            digests.setdefault(op["id"], set()).add(op["sha256"])
        out += [f"wrapper left behind: {name}"
                for name in rep.get("leftover_wrappers", ())]
    out += [f"{op_id}: reports differ between repetitions"
            for op_id, seen in digests.items() if len(seen) > 1]
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = SCRATCH / f"run-{os.getpid()}-{workload}"
    try:
        plain, with_trace = repeat(workload, seed, seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    found = problems(plain, with_trace)
    ops = [op for rep in plain + with_trace for op in rep["ops"]]
    units = PER_LAYER if traced else END_TO_END
    values = per_layer(plain, with_trace) if traced \
        else end_to_end(workload, plain)
    return {
        "correct": not found,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "problems": found,
        "reps": len(plain),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "kslab" / "cli.py").is_file():
        print("perfbench: kslab sources (src/kslab) not found", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
    except RepError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"{name}: {res['reps']} repetitions, "
              f"{res['attempted']} ops, {res['failed']} failed")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
        for line in res["problems"]:
            print(f"  PROBLEM {line}")
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, res in results.items()
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
