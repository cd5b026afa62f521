"""Every name a module exports, and every one the benchmark tracer wraps, must exist."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rsmsim

MODULES = [rsmsim] + [
    importlib.import_module(f"rsmsim.{info.name}") for info in pkgutil.iter_modules(rsmsim.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def load_bench_targets():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_traced_target_resolves():
    # bench/spans.py wraps these attributes; a renamed one would only show
    # up as a missing wrap target in a traced benchmark run.
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in load_bench_targets()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
