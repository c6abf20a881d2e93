"""Every benchmark op's report matches its frozen certificate.

The benchmark (``perfbench/``, outside ``testpaths``) counts a report
that differs from ``perfbench/certs.json`` as a failed op, which shows
only as a lower ``ok_frac``.  This tier-1 test runs the same ops, one
seed, through ``cli.main`` and compares each certificate directly.  It
loads the workload module and the certificates by path and writes
nothing under ``perfbench/``: graph inputs and reports go to tmp_path.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from kslab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load_workloads():
    """Execute workloads.py from source, so no bytecode cache is written."""
    path = PERFBENCH / "workloads.py"
    module = types.ModuleType("_perfbench_workloads")
    module.__file__ = str(path)
    # dataclasses look their module up in sys.modules
    sys.modules[module.__name__] = module
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


workloads = _load_workloads()
CERTS = json.loads((PERFBENCH / "certs.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reports_match_frozen_certificates(workload, tmp_path):
    ops = workloads.generate(workload, SEED, tmp_path / "inputs")
    assert len(ops) == len(workloads.WORKLOADS[workload])
    for op in ops:
        out = tmp_path / f"{op.id}.json"
        assert cli.main(op.argv + ["--out", str(out)]) == 0, op.id
        report = json.loads(out.read_text())
        assert op.cert in CERTS, op.cert
        assert workloads.certificate(report, op.fields) == CERTS[op.cert], \
            op.id


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_report_writer_matches_json_dumps(workload, tmp_path):
    # each report, as the handler returns it, written by cli._write_json
    # and by json.dumps(indent=2) after _jsonable: the same bytes
    parser = cli.build_parser()
    for op in workloads.generate(workload, SEED, tmp_path / "inputs"):
        args = parser.parse_args(op.argv)
        report, _ = cli._handlers()[args.command](args)
        chunks: list = []
        cli._write_json(report, chunks, "")
        assert "".join(chunks) == json.dumps(
            cli._jsonable(report), indent=2, default=str), op.id
