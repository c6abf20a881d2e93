"""The benchmark tracer wraps kslab functions by name; they must exist.

``perfbench/spans.py`` looks every name of its tables up with
``getattr`` when a ``--trace 1`` run starts, so a renamed or deleted
function breaks traced runs.  The benchmark's own tests are outside
``testpaths``; this tier-1 test loads the tracer module by path (it only
reads it) and checks its tables against the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_kslab():
    spans = _load_spans()
    missing = []
    for mod_name, table in spans.SPANS.items():
        module = importlib.import_module(f"kslab.{mod_name}")
        missing += [f"{mod_name}.{attr}" for attr in table
                    if not callable(getattr(module, attr, None))]
    for mod_name, cls_name, attr in spans.COUNTED:
        cls = getattr(importlib.import_module(f"kslab.{mod_name}"), cls_name)
        if attr not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{attr}")
    for mod_name, attr in spans.YIELDS:
        module = importlib.import_module(f"kslab.{mod_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_tracer_counts_the_cleared_snf_rows():
    # small C(2) has f-vector (28, 162, 428, 480, 192): 1,098 coboundary
    # rows, less the 27 + 135 + 290 that the unit pivots of delta_0,
    # delta_1 and delta_2 clear.  Octahedral C(2), (66, 564, 1656, 1920,
    # 768), feeds 2,488 of its 4,206 rows.  Both counts pin the clearing
    from kslab.graphs import make_standard
    from kslab.topology import integral_cohomology, y_complex

    spans = _load_spans()
    for mod_name in spans.SPANS:           # install() wraps every module
        importlib.import_module(f"kslab.{mod_name}")
    for model, rows_in in (("small", 646), ("octahedron", 2488)):
        _, cx = y_complex(make_standard("C", 2), model=model)
        tracer = spans.Tracer()
        tracer.install()
        try:
            integral_cohomology(cx)
        finally:
            tracer.restore()
        assert spans.leftover_wrappers() == []
        assert tracer.counts["intlinalg.snf.rows_in"] == rows_in


def test_tracer_counts_the_graded_snf_rows():
    # K_{3,3}: its four unit linear relations eliminate 4 of the 9 edge
    # variables; degrees 0-4 of E(5) take 0 + 0 + 8 + 44 + 81 rows, and
    # degree 4 is (0, []), so degree 5 is not reduced (over E(9), degrees
    # 0-4 took 748 rows and every degree 4,096)
    from kslab.graph_rings import graded_structure
    from kslab.graphs import make_standard

    spans = _load_spans()
    for mod_name in spans.SPANS:           # install() wraps every module
        importlib.import_module(f"kslab.{mod_name}")
    G = make_standard("K33")
    tracer = spans.Tracer()
    tracer.install()
    try:
        graded_structure(G)
    finally:
        tracer.restore()
    assert spans.leftover_wrappers() == []
    assert tracer.counts["intlinalg.snf.rows_in"] == 133
    # the t-coefficients of r(t) are ExtElement products
    assert tracer.counts["exterior.mul.calls"] > 0


def test_the_double_complex_makes_no_exterior_product(cold_kslab_caches):
    # R(n) and TS** normal forms run on {mask: coeff} polynomials alone,
    # and the eta matching decides exactness with no SNF
    from kslab.mvss import exactness_check

    spans = _load_spans()
    for mod_name in spans.SPANS:
        importlib.import_module(f"kslab.{mod_name}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert exactness_check(3)["all_exact"]
    finally:
        tracer.restore()
    assert spans.leftover_wrappers() == []
    assert tracer.counts["exterior.mul.calls"] == 0
    assert tracer.counts["exterior.relabel.calls"] == 0
    assert tracer.counts["intlinalg.snf.rows_in"] == 0


def test_only_graph_rings_and_springer_import_exterior():
    importers = []
    for path in sorted((ROOT / "src" / "kslab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if "exterior" in {name.split(".")[-1] for name in names}:
                importers.append(path.stem)
    assert sorted(set(importers)) == ["graph_rings", "springer"]
