"""Record the frozen certificates from the program as it stands.

Runs every op of every workload once (the hedgehog op once per pinch
candidate) and writes the certificate part of each report, with its
exit code, to certs.json.  Run it on the commit whose answers are the
reference; the recorded file is that commit's answers.

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from worker import CERTS, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from kslab import cli

    certs = {}
    with tempfile.TemporaryDirectory(dir=SRC.parent) as tmp:
        tmp = Path(tmp)
        for name in workloads.WORKLOADS:
            for op in workloads.generate(name, 0, tmp / "inputs"):
                variants = [op]
                if "--pinch" in op.argv:  # the seeded pinch: every candidate
                    spec = next(s for s in workloads.WORKLOADS[name]
                                if s.id == op.id)
                    base = op.argv[:op.argv.index("--pinch")]
                    variants = [workloads.Op(
                        op.id, base + ["--pinch", ",".join(map(str, A))],
                        workloads.cert_key(spec, A), op.fields)
                        for A in workloads.pinch_candidates()]
                for v in variants:
                    out = tmp / "report.json"
                    rc = cli.main(v.argv + ["--out", str(out)])
                    if rc != 0:
                        print(f"{v.cert}: exit {rc}", file=sys.stderr)
                        return 1
                    report = json.loads(out.read_text())
                    certs[v.cert] = workloads.certificate(report, v.fields)
                    print(v.cert, file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(certs[k], sort_keys=True)}"
             for k in sorted(certs)]
    CERTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
