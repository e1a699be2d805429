"""The benchmark's tracer wraps curlearn functions by name; keep those names."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parent.parent / "curbench" / "bench_trace.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_trace_names", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return [(layer, name) for layer, names in module.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", traced_names(), ids=lambda v: str(v))
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"curlearn.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_feature_matrix_build_is_a_classmethod():
    from curlearn.toy_model import FeatureMatrix
    assert isinstance(FeatureMatrix.__dict__["build"], classmethod)
