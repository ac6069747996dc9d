"""The benchmark's traced pass names its per-layer metrics after horoshift
functions (``NAMED`` in ``bench/spans.py``); a function renamed or folded
away would make those metrics read zero instead of failing."""

import importlib
import importlib.util
import inspect
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def test_named_functions_exist():
    path = os.path.join(HERE, os.pardir, "bench", "spans.py")
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.NAMED
    for layer, names in spans.NAMED.items():
        module = importlib.import_module(f"horoshift.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), \
                f"horoshift.{layer}.{name}"
