"""The benchmark tracer wraps kslab functions by name; they must exist.

``perfbench/spans.py`` looks every name of its tables up with
``getattr`` when a ``--trace 1`` run starts, so a renamed or deleted
function breaks traced runs.  The benchmark's own tests are outside
``testpaths``; this tier-1 test loads the tracer module by path (it only
reads it) and checks its tables against the package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
