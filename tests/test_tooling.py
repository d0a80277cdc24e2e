"""The benchmark's span tracer finds every layer it patches in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_in_the_package():
    # a traced run stops with AttributeError when a lookup site is missing,
    # so a rename or deletion has to show up here first
    for name, (sites, work_param) in load_spans().TARGETS.items():
        owner, attr = name.split(".")
        fn = getattr(importlib.import_module(f"twoway_impair.{owner}"), attr)
        for module, site in sites:
            assert getattr(importlib.import_module(f"twoway_impair.{module}"), site) is fn, (name, module)
        if work_param is not None:
            assert work_param in inspect.signature(fn).parameters, name
