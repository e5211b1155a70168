"""Every name that bench/tracing.py patches still exists where it looks.

The tracer rebinds functions and methods by name; a missing method stops a
traced benchmark run with a KeyError, and a moved function loses its span.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _tracing()
    for name in tracing.FUNCTION_SPANS:
        short, function = name.split(".")
        module = importlib.import_module(f"framesync.{short}")
        obj = vars(module).get(function)
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
    for short, cls_name, method, _ in tracing.METHOD_SPANS:
        cls = getattr(importlib.import_module(f"framesync.{short}"), cls_name)
        assert method in cls.__dict__, f"{cls_name}.{method}"
