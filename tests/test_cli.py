import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import kslab
from kslab import cli, topology
from kslab.cli import graph_parse, main
from kslab.graphs import make_standard


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_ranks(capsys):
    code, out, _ = run(capsys, "ring", "--n", "2", "--ranks")
    assert code == 0
    assert json.loads(out) == [1, 3, 2]


def test_ring_full_report(capsys):
    code, out, _ = run(capsys, "ring", "--n", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["ranks"] == [1, 5, 9, 5]
    assert rep["leading_check"]["leading_failures"] == []


def test_conjecture_scan(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "3")
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_mvss_exit_zero(capsys):
    code, out, _ = run(capsys, "mvss", "--n", "2")
    assert code == 0
    assert json.loads(out)["all_exact"] is True


def test_sparse_and_ncm(capsys):
    code, out, _ = run(capsys, "sparse", "--n", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["counts"] == {"0": 1, "1": 3, "2": 2}
    code, out, _ = run(capsys, "ncm", "--n", "3")
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_csv_format(capsys):
    code, out, _ = run(capsys, "sparse", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("counts.2,") for line in out.splitlines())


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_graph_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(make_standard("C", 2).to_json()))
    G = graph_parse(str(path))
    assert sorted(G.vertices) == [0, 1, 2, 3]
    code, out, _ = run(capsys, "sgring", "--graph", str(path))
    assert code == 0
    ranks = json.loads(out)["ranks"]
    assert ranks[:3] == [1, 3, 2] and not any(ranks[3:])


def test_malformed_graphs_exit_two(tmp_path, capsys):
    odd_odd = tmp_path / "bad.json"
    odd_odd.write_text(json.dumps({
        "vertices": [{"id": 0, "parity": 1}, {"id": 1, "parity": 1}],
        "edges": [[0, 1]]}))
    code, _, err = run(capsys, "sgring", "--graph", str(odd_odd))
    assert code == 2 and "parit" in err
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    code, _, err = run(capsys, "sgring", "--graph", str(empty))
    assert code == 2
    code, _, err = run(capsys, "sgring", "--graph", str(tmp_path / "no.json"))
    assert code == 2


@pytest.mark.parametrize("data, key", [
    ([1, 2], "vertices"),
    ({"vertices": [{"id": 0, "parity": 0}]}, "edges"),
    ({"vertices": [{"id": 0}], "edges": []}, "parity"),
    ({"vertices": [{"parity": 0}], "edges": []}, "id"),
    ({"vertices": [{"id": 0, "parity": 0}, {"id": 1, "parity": 1}],
      "edges": [[0, 1, 1]]}, "edges"),
])
def test_misshapen_graph_json_exits_two(tmp_path, capsys, data, key):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "sgring", "--graph", str(path))
    assert code == 2 and out == ""
    assert repr(key) in err and "Traceback" not in err


def test_budget_exit_two(capsys, monkeypatch):
    code, _, err = run(capsys, "cohomology", "--graph", "theta",
                       "--budget", "1000")
    assert code == 2 and "budget" in err
    monkeypatch.setenv("KRL_BUDGET", "1000")
    code, _, err = run(capsys, "cohomology", "--graph", "theta")
    assert code == 2 and "budget" in err


def test_cohomology_and_fold(capsys):
    code, out, _ = run(capsys, "cohomology", "--graph", "C2")
    assert code == 0
    assert json.loads(out)["match"] is True
    code, out, _ = run(capsys, "fold", "--graph", "theta")
    assert code == 0
    assert json.loads(out)["count"] == 11


def test_complex_export(tmp_path, capsys):
    out_file = tmp_path / "complex.txt"
    code, _, _ = run(capsys, "cohomology", "--graph", "C1",
                     "--export", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 6 + 12 + 8


def test_export_writes_the_complex_of_the_report(tmp_path, capsys):
    # --large reports on the small-sphere model, and exports that complex
    for flags, simplices, vertices in (((), 4974, 66),
                                       (("--large",), 1290, 28)):
        out_file = tmp_path / "complex.txt"
        code, out, _ = run(capsys, "cohomology", "--graph", "C2", *flags,
                           "--export", str(out_file))
        assert code == 0 and json.loads(out)["y_size"] == vertices
        lines = out_file.read_text().splitlines()
        assert len(lines) == simplices
        assert sum(1 for line in lines if line.count("(") == 1) == vertices


def test_export_builds_the_complex_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = topology.y_complex

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)
    monkeypatch.setattr(topology, "y_complex", counted)
    code, out, _ = run(capsys, "cohomology", "--graph", "C2",
                       "--export", str(tmp_path / "complex.txt"))
    assert code == 0 and json.loads(out)["match"] is True
    assert len(calls) == 1


def test_out_file_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["flags", "--n", "2", "--op", "cover",
                 "--out", str(a)]) == 0
    assert main(["flags", "--n", "2", "--op", "cover",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["flags", "--n", "0", "--op", "cover"],
    ["ring", "--n", "-1"],
    ["flags", "--n", "2", "--q", "1"],
])
def test_out_of_range_n_and_q_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be at least" in out.err


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("internal check failed")
    monkeypatch.setattr(cli, "cmd_sparse", broken)
    code, out, err = run(capsys, "sparse", "--n", "2")
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "internal check failed" in err


def test_removed_flags_are_refused():
    for flag in ("--jobs", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["sparse", "--n", "2", flag, "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ring", "--n", "2", "--large"],
    ["ring", "--n", "2", "--graph", "C9"],
    ["sparse", "--n", "2", "--q", "3"],
    ["mvss", "--n", "2", "--pinch", "1"],
    ["flags", "--n", "2", "--budget", "3"],
])
def test_options_of_other_subcommands_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_standard_graph_names(capsys):
    for name, edges in (("K23", 6), ("K33", 9), ("cube", 12), ("theta", 7)):
        assert len(graph_parse(name).edges) == edges
    code, out, _ = run(capsys, "sgring", "--graph", "K23")
    assert code == 0
    assert json.loads(out)["ranks"] == [1, 4, 4, 1, 0, 0, 0]


def test_cli_import_does_not_load_networkx():
    src = str(Path(kslab.__file__).resolve().parents[1])
    probe = "import sys, kslab.cli; print('networkx' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], cwd=src,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_repeated_pinch_index_exits_two(capsys):
    code, out, err = run(capsys, "fold", "--n", "3", "--pinch", "2,2")
    assert code == 2
    assert out == "" and "repeats an index" in err
    code, out, _ = run(capsys, "fold", "--n", "3", "--pinch", "2,4")
    assert code == 0 and json.loads(out)["pinch"] == [2, 4]


def dumps_oracle(report) -> str:
    """The report text as ``json.dumps`` writes it, after ``_jsonable``."""
    return json.dumps(cli._jsonable(report), indent=2, default=str) + "\n"


def write_json(report) -> str:
    chunks: list = []
    cli._write_json(report, chunks, "")
    return "".join(chunks) + "\n"


@dataclass(frozen=True)
class Leaf:
    x: int


class Num(int):
    """An int whose str and repr are not its digits (json uses neither)."""

    def __repr__(self):
        return "Num"

    __str__ = __repr__


@pytest.mark.parametrize("report", [
    {},
    [],
    (),
    0,
    "plain",
    None,
    {(1, 2): "tuple key", 3: "int", 1.5: "float", True: "bool",
     False: "bool", None: "none", "s": "str"},
    {"nan": float("nan"), "inf": [float("inf"), -float("inf")],
     float("nan"): 1, float("-inf"): 2, 2.0: 3},
    {"ünïcode": "snow ☃ and \U0001f600", "esc": "quote \" slash \\ \n\t"},
    {"empty": [{}, [], (), {"a": []}], "nested": [[[]], [{}]]},
    [1, 2, True, 3],
    [True, False],
    [1, None, 2],
    [10 ** 40, -(10 ** 40), 0, -1],
    {Num(7): [Num(8), 9], "n": Num(10)},
    [1.0, 2, 0.1, -0.0, 1e300],
    {"leaf": Leaf(3), "leaves": [Leaf(1), (Leaf(2), 4)], Leaf(5): "key"},
    {"set": {1, 2}, "frozen": frozenset(), (1, (2, 3)): [(4, 5), []]},
    {(1, 2): "tuple first", "(1, 2)": "string later"},
    {"(1, 2)": "string first", (1, 2): "tuple later", 1: "a", "1": "b"},
])
def test_writer_matches_json_dumps(report):
    assert write_json(report) == dumps_oracle(report)


def test_emitted_report_matches_json_dumps(capsys):
    # the text main writes: a Hedgehog dataclass leaf, a bare-list report
    parser = cli.build_parser()
    for argv in (["fold", "--n", "3", "--pinch", "1,3"],
                 ["ring", "--n", "2", "--ranks"]):
        args = parser.parse_args(argv)
        report, _ = args.handler(args)
        assert main(argv) == 0
        assert capsys.readouterr().out == dumps_oracle(report), argv


# Under ``python -O`` asserts are stripped; no certificate may depend on one.
OPTIMISED_RUNS = [
    ["ring", "--n", "3"],
    ["ring", "--n", "4"],
    ["mvss", "--n", "2"],
    ["conjecture", "--n", "4"],
    ["fold", "--n", "4", "--pinch", "1,4"],
    ["fold", "--n", "3", "--pinch", "2,2"],
    ["flags", "--n", "2", "--op", "cover"],
]


def test_certificates_do_not_depend_on_assert():
    src = str(Path(kslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for argv in OPTIMISED_RUNS:
        plain, optimised = [
            subprocess.run([sys.executable, *flag, "-m", "kslab.cli", *argv],
                           env=env, capture_output=True)
            for flag in ([], ["-O"])]
        assert plain.returncode == optimised.returncode, argv
        assert plain.stdout == optimised.stdout, argv
        assert plain.returncode == (2 if "2,2" in argv else 0), argv
