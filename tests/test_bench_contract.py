"""The traced benchmark wraps difex functions and methods by name; every
name it lists must still resolve, or traced runs break."""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("difex_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for _span, mod_name, attr in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr)), attr
    for _span, mod_name, cls_name, meth in tracer.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(getattr(cls, meth)), f"{cls_name}.{meth}"
