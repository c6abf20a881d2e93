"""Committed mutants: each one must make its report a falsifier.

Each row patches one function of the program with a wrong version and
runs one subcommand through ``cli.main``; a function may have a row per
subcommand (``_row_ids`` keeps the test ids apart).  The run must exit 1 (a
falsifier), never 0 (the mutant went unseen), 2 (bad input) or 3 (an
internal error), and the report must name a counterexample under the
row's key; a string part after a list keeps the entries of that kind.
Every row also runs unpatched first and must exit 0 there.
"""

import importlib
import json

import pytest

from kslab import cli, mvss, springer
from test_mvss import _broken_pinch_substitution

_right_mu_of = springer.mu_of
_right_classify_bts = mvss.classify_bts


def _crossing_mu_of(K, two_n):
    """mu(K) with the partners of the two smallest elements of K swapped:
    a crossing matching."""
    tau = list(_right_mu_of(K, two_n))
    a, b = K[0], K[1]
    pa, pb = tau[a - 1], tau[b - 1]
    tau[a - 1], tau[b - 1], tau[pa - 1], tau[pb - 1] = pb, pa, b, a
    return tuple(tau)


def _nested_the_wrong_way(tau, lam):
    """The j in lam with i < j and tau(j) > tau(i): arcs side by side or
    crossing, in place of the nested ones."""
    return {j for j in lam
            if any(i < j and tau[j - 1] > tau[i - 1] for i in lam)}


def _violation_off_by_one(mask, two_n):
    """The largest violating index with 2n - j < 2 |J_{>j}|: a support
    that meets the bound with equality reads as sparse."""
    above = 0
    while mask:
        j = mask.bit_length()
        if two_n - j < 2 * above:
            return j
        above += 1
        mask ^= 1 << (j - 1)
    return 0


def _eta_off_by_one_bit(J, A, n):
    """classify_bts with eta adding e_(q+1) in place of e_q."""
    cls = _right_classify_bts(J, A, n)
    if cls.status == "extendable":
        cls.partner = (J, A | (cls.partner[1] & ~A) << 1)
    return cls


def _in_no_xni(F, i, n, q):
    """X(n, i) empty: no flag has t W_(i+1) = W_(i-1)."""
    return False


# (module, function, mutant, argv, report key naming the counterexample)
MUTANTS = [
    ("springer", "mu_of", _crossing_mu_of, ["ring", "--n", "3"],
     ("leading_check", "leading_failures")),
    ("mvss", "pinch_substitution", _broken_pinch_substitution,
     ["mvss", "--n", "2"], ("counterexamples",)),
    ("combinatorics", "_nested_left_endpoints", _nested_the_wrong_way,
     ["conjecture", "--n", "4"], ("counterexamples",)),
    ("springer", "_largest_violation", _violation_off_by_one,
     ["mvss", "--n", "3"], ("counterexamples",)),
    ("combinatorics", "mu_of", _crossing_mu_of, ["ncm", "--n", "3"],
     ("roundtrip_failures",)),
    ("flags", "in_xni", _in_no_xni, ["flags", "--n", "2", "--op", "lemmas"],
     ("one_step_a", "violations")),
    ("flags", "in_xni", _in_no_xni, ["flags", "--n", "2", "--op", "cover"],
     ("uncovered_by_xni",)),
    ("mvss", "classify_bts", _eta_off_by_one_bit, ["mvss", "--n", "3"],
     ("counterexamples", "eta")),
]


def _row_ids(rows):
    """module.function; a function's later rows add their subcommand
    (flags.in_xni-flags-cover), so every id is unique and a row keeps its
    id when another row of its function is added."""
    ids = []
    for module, name, _, argv, _ in rows:
        row_id = f"{module}.{name}"
        ids.append("-".join([row_id, *filter(str.isalpha, argv)])
                   if row_id in ids else row_id)
    return ids


@pytest.mark.parametrize("module, name, mutant, argv, key", MUTANTS,
                         ids=_row_ids(MUTANTS))
def test_mutant_exits_1_with_a_counterexample(module, name, mutant, argv,
                                              key, monkeypatch, tmp_path,
                                              cold_kslab_caches):
    out = tmp_path / "report.json"
    argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 0
    cold_kslab_caches()
    monkeypatch.setattr(importlib.import_module(f"kslab.{module}"), name,
                        mutant)
    assert cli.main(argv) == 1
    report = json.loads(out.read_text())
    for part in key:
        report = [c for c in report if c["kind"] == part] \
            if isinstance(report, list) else report[part]
    assert report
