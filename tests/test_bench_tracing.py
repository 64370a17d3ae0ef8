"""The names the benchmark's tracer wraps exist in qshapo."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod, attr, _ in tracing.SPANNED_FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"qshapo.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    # methods are patched through the class dict, so they must be defined
    # on the class itself, not inherited
    for mod, cls_name, attr, _ in tracing.SPANNED_METHODS + tracing.COUNTED_METHODS:
        cls = getattr(importlib.import_module(f"qshapo.{mod}"), cls_name, None)
        if cls is None or attr not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{attr}")
    assert missing == []
