"""Batch driver: every verification and enumeration as a subcommand.

Exit codes: 0 when all assertions pass, 1 when a falsifier was found
(the report carries a minimal counterexample object), 2 for input or
budget errors, 3 for an internal error (the traceback goes to standard
error).  Results go to ``--out`` or standard output; progress notes go
to standard error.  ``cohomology --budget`` sets the simplex budget
(default ``topology.SIMPLEX_BUDGET``).  JSON reports are written byte
for byte as ``json.dumps(report, indent=2, default=str)`` writes them,
with tuple dict keys turned into their ``str``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from functools import lru_cache

from . import combinatorics, flags, graph_rings, mvss, springer, topology
from .graphs import FIXED_GRAPHS, BiGraph, enumerate_tree_foldings, \
    graph_from_json, hedgehog_analyze, is_tree, make_standard


def graph_parse(source: str) -> BiGraph:
    """A graph from a JSON file path or a standard name.

    Standard names: C<n>, L<n> and those of ``graphs.FIXED_GRAPHS``
    (B, theta, K23, K33, cube).  The JSON format is {"vertices": [{"id":
    ..., "parity": 0|1}, ...], "edges": [[u, v], ...]}; parity,
    connectivity, loop and repeated-id checks are enforced by the graph
    constructor.
    """
    if source in FIXED_GRAPHS:
        return make_standard(source)
    if len(source) >= 2 and source[0] in "CL" and source[1:].isdigit():
        return make_standard(source[0], int(source[1:]))
    with open(source) as fh:
        data = json.load(fh)
    return graph_from_json(data)


def _parse_pinch(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    pinch = tuple(sorted(int(x) for x in text.split(",")))
    if len(set(pinch)) != len(pinch):
        raise ValueError(f"pinch set {text!r} repeats an index")
    return pinch


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, json.dumps(value)))
    else:
        rows.append((prefix, value))


_KEY_TYPES = (str, int, float, bool, type(None))


def _jsonable(value):
    """Stringify non-JSON dict keys (tuples) recursively."""
    if isinstance(value, dict):
        return {k if isinstance(k, _KEY_TYPES) else str(k): _jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# C-backed (no indent): encodes one leaf, with str() for unknown objects
_encode_leaf = json.JSONEncoder(default=str).encode


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` spells it before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float) or key is None or key is True or key is False:
        return _encode_leaf(key)
    return int.__repr__(key)


def _int_list(value, indent: str) -> str:
    """A list of ints as ``json.dumps(indent=2)`` writes it at ``indent``."""
    if not value:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(map(repr, value)) \
        + "\n" + indent + "]"


def _write_json(value, out: list, indent: str) -> None:
    """Append to ``out`` the chunks of ``json.dumps(_jsonable(value),
    indent=2, default=str)`` with ``indent`` as the current margin."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(type(k) is str for k in value):
            value = {k if isinstance(k, _KEY_TYPES) else str(k): v
                     for k, v in value.items()}
        inner = indent + "  "
        sep = "{\n" + inner
        for k, v in value.items():
            out.append(sep + _encode_leaf(_json_key(k)) + ": ")
            _write_json(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if all(type(x) is int for x in value):
            out.append(_int_list(value, indent))
            return
        inner = indent + "  "
        if all(isinstance(x, (list, tuple)) and all(type(y) is int for y in x)
               for x in value):
            out.append("[\n" + inner + (",\n" + inner).join(
                _int_list(x, inner) for x in value) + "\n" + indent + "]")
            return
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _write_json(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(_encode_leaf(value))


def _emit(report, args) -> None:
    if args.format == "csv":
        rows: list = []
        _flatten("", _jsonable(report), rows)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        chunks: list[str] = []
        _write_json(report, chunks, "")
        text = "".join(chunks) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each returns (report dict, ok flag)
# ---------------------------------------------------------------------------

# ncm --n 12 (208,012 matchings) peaks near 1 GB, sparse --n 11 near 0.5 GB
ENUMERATION_CAP = 500_000


def _check_count(n: int, what: str, low_bits: int, count) -> None:
    """Exit 2 unless the ``count()`` items fit; as there are at least
    2^low_bits of them, a large n is refused before ``count`` is called."""
    big = low_bits >= ENUMERATION_CAP.bit_length()
    total = f"more than 2^{low_bits}" if big else count()
    if big or total > ENUMERATION_CAP:
        raise ValueError(f"--n {n}: {total} {what}, above the enumeration "
                         f"cap {ENUMERATION_CAP}")


def _check_enumeration(n: int, what: str, size) -> None:
    """Exit 2 unless ``size(Catalan(n))`` items fit (Catalan(n) >= 2^(n-1))."""
    _check_count(n, what, n - 1,
                 lambda: size(combinatorics.sparse_count(n, n)))


def cmd_sparse(args):
    n = args.n
    _check_enumeration(n, "sparse subsets", lambda catalan: (n + 1) * catalan)
    subsets = combinatorics.enumerate_sparse(2 * n)
    counts = dict.fromkeys(range(n + 1), 0)
    for J in subsets:
        counts[len(J)] += 1
    gf = combinatorics.gf_coefficients(n)
    report = {
        "two_n": 2 * n,
        "counts": counts,
        "catalan_size_n": counts[n],
        "generating_function_row": gf[n],
        "subsets": [list(J) for J in subsets],
    }
    ok = all(counts[p] == combinatorics.sparse_count(n, p)
             for p in counts) and gf[n][: n + 1] == list(counts.values())
    return report, ok


def cmd_ncm(args):
    _check_enumeration(args.n, "non-crossing matchings", lambda c: c)
    matchings = combinatorics.enumerate_matchings(args.n)
    two_n = 2 * args.n
    bad = []
    for tau in matchings:
        J = combinatorics.lambda_of(tau)
        if combinatorics.mu_of(J, two_n) != tau:
            bad.append({"matching": combinatorics.matching_pairs(tau),
                        "lambda": list(J)})
    report = {
        "n": args.n,
        "count": len(matchings),
        "catalan": combinatorics.sparse_count(args.n, args.n),
        "matchings": [combinatorics.matching_pairs(t) for t in matchings],
        "roundtrip_failures": bad,
    }
    return report, len(matchings) == report["catalan"] and not bad


def cmd_ring(args):
    if args.ranks:
        # bare ranks output, machine-readable; nothing is enumerated.  The
        # ranks are below 4^n, written in full if 4^n < 10^limit, the digit
        # limit of int-to-str (0, or before Python 3.10.7 none: no limit)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and 2 * args.n >= (10 ** limit).bit_length():
            raise ValueError(f"--n {args.n}: ranks up to 4^{args.n} may pass "
                             f"the {limit}-digit limit of int-to-str")
        return springer.hilbert_ranks(args.n), True
    # C(2n, n) = (n + 1) Catalan(n) sparse J, each against every sparse K
    _check_enumeration(args.n, "(J, K) pairs",
                       lambda catalan: (args.n + 1) * catalan ** 2)
    ranks = springer.hilbert_ranks(args.n)
    lead = springer.leading_check(args.n)
    report = {"n": args.n, "ranks": ranks, "leading_check": lead}
    ok = not lead["leading_failures"] and \
        lead.get("snf_divisors_all_one", True)
    return report, ok


def cmd_fold(args):
    if args.graph is not None:
        if args.n is not None or args.pinch is not None:
            raise ValueError("fold --graph reads neither --n nor --pinch")
        G = graph_parse(args.graph)
        folds = enumerate_tree_foldings(G)
        report = {"graph_vertices": list(G.vertices),
                  "tree_foldings": [[list(c) for c in p] for p in folds],
                  "count": len(folds)}
        return report, True
    n = 2 if args.n is None else args.n
    A = _parse_pinch(args.pinch or "")
    h = hedgehog_analyze(n, A)
    ring = graph_rings.hedgehog_ring(n, A)
    report = {"n": n, "pinch": list(A),
              "spine_indices": list(h.spine_indices),
              "body_indices": list(h.body_indices), "ring": ring}
    return report, ring["match"] and ring["relation_image_ok"]


def cmd_sgring(args):
    G = graph_parse(args.graph)
    structure = graph_rings.graded_structure(G)
    report = {
        "ranks": graph_rings.structure_ranks(structure),
        "structure": [[r, t] for r, t in structure],
        "torsion": graph_rings.has_torsion(structure),
    }
    return report, True


def cmd_mvss(args):
    # each of the 2^(2n-1) pinch sets A gives the basis element x_{} e_A
    _check_count(args.n, "BTS basis elements", 2 * args.n - 1,
                 lambda: mvss.bts_count(args.n))
    result = mvss.exactness_check(args.n)
    return result, result["all_exact"]


def cmd_flags(args):
    op = args.op
    if op == "enumerate":
        flat = [[list(map(list, flags.rows(W, args.n, args.q)))
                 for W in F[1:-1]]
                for F in flags.enumerate_flags(args.n, args.q)]
        report = {"n": args.n, "q": args.q, "count": len(flat),
                  "flags": flat,
                  "point_count": flags.point_count_report(args.n, args.q,
                                                          len(flat))}
        return report, True
    if op == "cover":
        report = flags.cover_scan(args.n, args.q)
        return report, report["covered"]
    if op == "lemmas":
        report = flags.chain_lemma_scan(args.n, args.q)
        return report, report["all_clear"]
    results = []                       # op == "tree", by argparse choices
    ok = True
    for F in flags.enumerate_flags(args.n, args.q):
        _, rep = flags.tree_from_flag(F, args.n)
        ok = ok and rep["is_tree"] and rep["path_metric_matches"]
        results.append(rep)
    report = {"n": args.n, "q": args.q, "flags": len(results),
              "edge_counts": sorted(r["edge_count"] for r in results),
              "all_trees": ok}
    return report, ok


def cmd_cohomology(args):
    G = graph_parse(args.graph)
    if args.export and is_tree(G):
        raise ValueError("--export: a tree takes the product route, which "
                         "builds no complex")
    model = "small" if args.large else "octahedron"
    if args.large and not is_tree(G):      # trees take the product route
        print("large run: union-of-sphere-products over the 4-vertex "
              "sphere model; exact SNF with clearing", file=sys.stderr)
    complex_ = topology.y_complex(G, args.budget, model) \
        if args.export else None
    rep = topology.compare_with_S(G, budget=args.budget, model=model,
                                  complex_=complex_)
    if complex_ is not None:
        with open(args.export, "w") as fh:
            for level in complex_:
                for simplex in level:
                    fh.write(" ".join(
                        "(" + ",".join(str(x) for x in v) + ")"
                        for v in simplex) + "\n")
    return rep, rep["match"]


def cmd_conjecture(args):
    _check_enumeration(args.n, "dotted matchings",
                       lambda catalan: catalan << args.n)
    rep = combinatorics.conjecture_scan(args.n)
    return rep, not rep["counterexamples"]


# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an int no smaller than ``low`` (else exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _add_options(p: argparse.ArgumentParser, name: str) -> None:
    """Register ``--out``, ``--format`` and the options ``name`` reads."""
    p.add_argument("--out", default="", help="write the report here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if name in ("sparse", "ncm", "ring", "fold", "mvss", "flags",
                "conjecture"):
        # fold reads --n only without --graph, so it must see if it was given
        p.add_argument("--n", type=_int_at_least(1),
                       default=None if name == "fold" else 2)
    if name in ("fold", "sgring", "cohomology"):
        p.add_argument("--graph", default=None, required=name != "fold",
                       help="graph JSON file or standard name (C<n>, L<n>, "
                            "B, theta, K23, K33, cube)")
    if name == "fold":
        p.add_argument("--pinch", default=None,
                       help="comma-separated pinch set (not with --graph)")
    if name == "ring":
        p.add_argument("--ranks", action="store_true",
                       help="print the graded ranks only")
    if name == "flags":
        p.add_argument("--q", type=_int_at_least(2), default=2)
        p.add_argument("--op", default="cover",
                       choices=("enumerate", "cover", "lemmas", "tree"))
    if name == "cohomology":
        p.add_argument("--budget", type=int,
                       default=topology.SIMPLEX_BUDGET,
                       help="simplex budget (default %(default)s)")
        p.add_argument("--large", action="store_true",
                       help="compute Y(G) over the 4-vertex sphere model")
        p.add_argument("--export", default="",
                       help="write the simplicial complex of Y(G) in "
                            "the sphere model of the report, one "
                            "simplex per line (not for trees)")


def _handlers() -> dict:
    """Each subcommand's ``cmd_*`` function, as the module holds it now."""
    return {
        "sparse": cmd_sparse, "ncm": cmd_ncm, "ring": cmd_ring,
        "fold": cmd_fold, "sgring": cmd_sgring, "mvss": cmd_mvss,
        "flags": cmd_flags, "cohomology": cmd_cohomology,
        "conjecture": cmd_conjecture,
    }


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (it binds no handler)."""
    parser = argparse.ArgumentParser(
        prog="kslab", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _handlers():
        _add_options(sub.add_parser(name), name)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the handler as the module holds it now, not when parsed
        report, ok = _handlers()[args.command](args)
        _emit(report, args)
    except (ValueError, OSError) as exc:   # json.JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
