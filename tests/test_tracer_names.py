"""The benchmark's tracer finds every acopt name it wraps.

`perfbench/tracing.py` rebinds functions and methods by name; a renamed
one only prints a warning there and its per-layer metrics read 0. This
test reads the tracer's tables (without installing it) and resolves each
entry in the library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED, module.COUNTED


SPANNED, COUNTED = _tracing_tables()


@pytest.mark.parametrize("mod_name, attr", sorted(SPANNED), ids=lambda v: v)
def test_spanned_function_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None)), f"{mod_name}.{attr}"


@pytest.mark.parametrize("mod_name, cls_name, method", sorted(COUNTED), ids=lambda v: v)
def test_counted_method_resolves(mod_name, cls_name, method):
    cls = getattr(importlib.import_module(mod_name), cls_name, None)
    assert cls is not None, f"{mod_name}.{cls_name}"
    assert method in vars(cls), f"{mod_name}.{cls_name}.{method}"
