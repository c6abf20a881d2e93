"""One repetition of a workload, in a fresh process.

Generates the seeded inputs, imports ``kslab.cli``, then runs the ops as
a closed loop with one client: each op is one in-process call to
``kslab.cli.main(argv + ["--out", report])`` and the next starts only
after it returns.  After each op, outside the timed region, the report
is checked against the frozen certificate.  Prints one JSON line.

    python3 perfbench/worker.py --workload rings --seed 1 --dir DIR [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CERTS = HERE / "certs.json"


def check(op, rc, report_path: Path, frozen: dict) -> tuple[bool, str, int]:
    """(certificate matches, report sha256, report bytes)."""
    if rc != 0 or not report_path.exists():
        return False, "", 0
    data = report_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    want = frozen.get(op.cert)
    try:
        got = workloads.certificate(json.loads(data), op.fields)
    except ValueError:
        return False, digest, len(data)
    return want is not None and got == want, digest, len(data)


def run_op(cli, op, out: Path) -> tuple[int | None, float, str]:
    """Time one CLI call; returns (exit code or None, seconds, error)."""
    err = ""
    t0 = time.perf_counter()
    try:
        rc = cli.main(op.argv + ["--out", str(out)])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a failed run
        rc, err = None, repr(exc)
    return rc, time.perf_counter() - t0, err


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True, help="scratch dir for this rep")
    p.add_argument("--trace", default="", help="write spans here")
    args = p.parse_args(argv)

    if not (SRC / "kslab" / "cli.py").is_file():
        print(f"kslab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = Path(args.dir)
    ops = workloads.generate(args.workload, args.seed, work / "inputs")
    from kslab import cli
    setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)

    frozen = json.loads(CERTS.read_text())
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    results = []
    cpu_s = 0.0
    try:
        for op in ops:
            out = work / f"{op.id}.report.json"
            if tracer is not None:
                tracer.op = op.id
            cpu0 = time.process_time()
            rc, seconds, err = run_op(cli, op, out)
            cpu_s += time.process_time() - cpu0
            ok, digest, nbytes = check(op, rc, out, frozen)
            results.append({"id": op.id, "cert": op.cert, "rc": rc,
                            "seconds": seconds, "ok": ok, "sha256": digest,
                            "bytes": nbytes, "error": err})
    finally:
        if tracer is not None:
            tracer.restore()
    line = {"setup_done": setup_done, "ops": results, "cpu_s": cpu_s,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        line["leftover_wrappers"] = spans.leftover_wrappers()
        line["aggregate"] = spans.aggregate(tracer.spans)
        line["counts"] = dict(tracer.counts)
        tracer.write(args.trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
