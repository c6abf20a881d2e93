import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import kslab
from kslab import cli, combinatorics, graph_rings, mvss, topology
from kslab.cli import graph_parse, main
from kslab.graphs import make_standard
from test_mvss import _broken_pinch_substitution


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
    # ints and strings have no order, which the edge sort needs
    ({"vertices": [{"id": 0, "parity": 0}, {"id": "a", "parity": 1},
                   {"id": "b", "parity": 0}, {"id": 1, "parity": 1}],
      "edges": [[0, "a"], ["a", "b"], ["b", 1], [1, 0]]}, "id"),
])
def test_misshapen_graph_json_exits_two(tmp_path, capsys, data, key):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "sgring", "--graph", str(path))
    assert code == 2 and out == ""
    assert repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("graph, message", [
    ({"vertices": [{"id": 1, "parity": 0}, {"id": 2, "parity": 1}],
      "edges": [[1, 1], [1, 2]]}, "loop at 1"),
    ({"vertices": [{"id": 1, "parity": 0}, {"id": 2, "parity": 1},
                   {"id": 1, "parity": 0}],
      "edges": [[1, 2]]}, "vertex 1 is listed twice"),
    ({"vertices": [{"id": True, "parity": 0}, {"id": 1, "parity": 1}],
      "edges": [[True, 1]]}, "needs an int or string 'id'"),
    ({"vertices": [{"id": 0, "parity": False}, {"id": 1, "parity": 1}],
      "edges": [[0, 1]]}, "a 'parity' of 0 or 1"),
    ({"vertices": [{"id": 0, "parity": 0}, {"id": 1, "parity": True}],
      "edges": [[0, 1]]}, "a 'parity' of 0 or 1"),
    ({"vertices": [{"id": 0, "parity": 0}, {"id": 1, "parity": 1.0}],
      "edges": [[0, 1]]}, "a 'parity' of 0 or 1"),
    ({"vertices": [{"id": 0, "parity": 0}, {"id": 1, "parity": 1}],
      "edges": [[[0], 1]]}, "needs int or string endpoints"),
    ({"vertices": [{"id": 0, "parity": 0}, {"id": 1, "parity": 1}],
      "edges": [[0.0, True]]}, "needs int or string endpoints"),
    ({"vertices": [{"id": 0, "parity": 0}, {"id": 1, "parity": 1}],
      "edges": [[0, 1], [1, 0]]}, "edge [1, 0] is listed twice"),
])
def test_graph_input_errors_name_the_fault(tmp_path, capsys, graph, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "sgring", "--graph", str(path))
    assert code == 2 and out == ""
    assert message in err and "connected" not in err and "unpack" not in err


def test_budget_exit_two(capsys):
    code, _, err = run(capsys, "cohomology", "--graph", "theta",
                       "--budget", "1000")
    assert code == 2 and "budget" in err


def test_budget_refusal_comes_before_s_of_g(capsys):
    # S(C(6)) alone takes many seconds; the complex is refused first
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", "--graph", "C6")
    assert code == 2 and out == "" and "budget" in err
    assert time.perf_counter() - start < 2.0


def test_fold_pinch_mode_fails_on_a_wrong_relation_image(
        monkeypatch, capsys, cold_kslab_caches):
    code, out, _ = run(capsys, "fold", "--n", "3", "--pinch", "1")
    ring = json.loads(out)["ring"]
    assert code == 0 and ring["match"] and ring["relation_image_ok"]
    cold_kslab_caches()
    monkeypatch.setattr(graph_rings, "pinch_substitution",
                        _broken_pinch_substitution)
    code, out, _ = run(capsys, "fold", "--n", "3", "--pinch", "1")
    ring = json.loads(out)["ring"]
    # the graded ranks still match: only the relation image sees the mutant
    assert code == 1 and ring["match"] and not ring["relation_image_ok"]


def test_cohomology_and_fold(capsys):
    code, out, _ = run(capsys, "cohomology", "--graph", "C2")
    assert code == 0
    assert json.loads(out)["match"] is True
    code, out, _ = run(capsys, "fold", "--graph", "theta")
    assert code == 0
    assert json.loads(out)["count"] == 11


def test_large_note_only_on_the_simplicial_route(capsys):
    code, out, err = run(capsys, "cohomology", "--graph", "L2", "--large")
    assert code == 0 and json.loads(out)["route"] == "product"
    assert err == ""
    code, out, err = run(capsys, "cohomology", "--graph", "C2", "--large")
    assert code == 0 and json.loads(out)["route"] == "direct-small"
    assert "union-of-sphere-products" in err


@pytest.mark.parametrize("graph", ["B", "C1", "L1", "L2"])
def test_export_is_refused_on_the_product_route(tmp_path, capsys, graph):
    # a tree's report builds no complex, so there is none to export
    before = topology.staircase_product_complex.cache_info()
    out_file = tmp_path / "complex.txt"
    code, out, err = run(capsys, "cohomology", "--graph", graph,
                         "--export", str(out_file))
    assert code == 2 and out == "" and "product route" in err
    assert not out_file.exists()
    assert topology.staircase_product_complex.cache_info() == before
    code, out, _ = run(capsys, "cohomology", "--graph", graph)
    assert code == 0 and json.loads(out)["route"] == "product"


def test_complex_export(tmp_path, capsys):
    # one line per simplex: the small-sphere C(2) has f-vector
    # (28, 162, 428, 480, 192); C(1) is a tree, and refused above
    out_file = tmp_path / "complex.txt"
    code, _, _ = run(capsys, "cohomology", "--graph", "C2", "--large",
                     "--export", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert [sum(1 for line in lines if line.count("(") == d)
            for d in range(1, 6)] == [28, 162, 428, 480, 192]


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


@pytest.mark.parametrize("argv, count", [
    (["sparse", "--n", "11"], "705432 sparse subsets"),
    (["ncm", "--n", "13"], "742900 non-crossing matchings"),
    (["ring", "--n", "7"], "1472328 (J, K) pairs"),
    (["conjecture", "--n", "9"], "2489344 dotted matchings"),
    (["sparse", "--n", "1000000"], "more than 2^999999 sparse subsets"),
    (["mvss", "--n", "7"], "940020 BTS basis elements"),
    (["mvss", "--n", "10"], "more than 2^19 BTS basis elements"),
])
def test_oversized_enumerations_are_refused(argv, count, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{count}, above the enumeration cap" in err


def test_enumeration_cap_counts_exactly(monkeypatch, capsys):
    # at a cap equal to the number enumerated the run goes ahead; one
    # below it, it is refused
    n = 3
    subsets = len(combinatorics.enumerate_sparse(2 * n))
    matchings = len(combinatorics.enumerate_matchings(n))
    dottings = combinatorics.conjecture_scan(n)["dotted_matchings_scanned"]
    for command, count in (("sparse", subsets), ("ncm", matchings),
                           ("ring", subsets * matchings),
                           ("conjecture", dottings),
                           ("mvss", len(mvss.enumerate_bts(n)))):
        for cap, want in ((count, 0), (count - 1, 2)):
            monkeypatch.setattr(cli, "ENUMERATION_CAP", cap)
            code, _, _ = run(capsys, command, "--n", str(n))
            assert code == want, (command, cap)


def test_ring_ranks_enumerate_nothing(capsys):
    code, out, _ = run(capsys, "ring", "--n", "40", "--ranks")
    assert code == 0 and json.loads(out)[40] == 2622127042276492108820


def test_ring_ranks_refuse_what_cannot_be_written(capsys, monkeypatch):
    # the ranks are bounded by 4^n: past the digit limit of int-to-str
    # conversion nothing is computed
    start = time.perf_counter()
    code, out, err = run(capsys, "ring", "--n", "8000", "--ranks")
    assert code == 2 and out == "" and "--n 8000" in err
    assert time.perf_counter() - start < 0.5
    # at a 641-digit limit, 4^1064 = 2^2128 < 10^641 < 2^2130 = 4^1065
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 641)
    assert run(capsys, "ring", "--n", "1065", "--ranks")[0] == 2
    code, out, _ = run(capsys, "ring", "--n", "1064", "--ranks")
    assert code == 0 and len(json.loads(out)) == 1065


def test_parser_is_built_once_and_binds_no_handler(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert not hasattr(cli.build_parser().parse_args(["ring"]), "handler")
    monkeypatch.setattr(cli, "cmd_ring", lambda args: ([args.n], True))
    assert run(capsys, "ring", "--n", "2")[:2] == (0, "[\n  2\n]\n")


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


@pytest.mark.parametrize("extra", [["--pinch", "1,3"], ["--n", "4"],
                                   ["--pinch", ""]])
def test_fold_graph_refuses_pinch_options(capsys, extra):
    code, out, err = run(capsys, "fold", "--graph", "C2", *extra)
    assert code == 2 and out == ""
    assert "reads neither --n nor --pinch" in err


def test_empty_graph_name_is_not_the_pinch_mode(capsys):
    code, out, err = run(capsys, "fold", "--graph", "")
    assert code == 2 and out == ""
    assert "No such file or directory" in err


@pytest.mark.parametrize("command", ["sgring", "cohomology"])
def test_graph_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "required: --graph" in capsys.readouterr().err


def test_fold_pinch_mode_defaults(capsys):
    code, out, _ = run(capsys, "fold")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 2 and rep["pinch"] == []
    code, out, _ = run(capsys, "fold", "--pinch", "1")
    assert code == 0 and json.loads(out)["n"] == 2


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
    # the text main writes: a Hedgehog dataclass leaf, a bare-list report,
    # lists of int lists (the first sparse subset is []) and of int pairs
    parser = cli.build_parser()
    for argv in (["fold", "--n", "3", "--pinch", "1,3"],
                 ["ring", "--n", "2", "--ranks"],
                 ["sparse", "--n", "8"],
                 ["ncm", "--n", "7"]):
        args = parser.parse_args(argv)
        report, _ = cli._handlers()[args.command](args)
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
