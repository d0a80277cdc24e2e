"""The package's layering, and the benchmark's span tracer finds every layer it patches."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "twoway_impair"


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


def package_imports(module: str) -> set[str]:
    """The package modules that `module` imports anywhere in its source, by its ast."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is one from the package: `from . import x`, `from .x import y`
            base = f"twoway_impair.{node.module or ''}" if node.level else node.module
            names = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("twoway_impair.")}
    return found


def test_each_route_imports_only_the_layers_below_it():
    # the three routes check each other only while sampling shares no code with
    # the closed forms and the quadrature: both stand on model, the inputs' one home
    assert {module: package_imports(module) for module in ("specfun", "model", "analytic", "montecarlo")} == {
        "specfun": set(),
        "model": set(),
        "analytic": {"specfun", "model"},
        "montecarlo": {"model"},
    }


def test_analytic_re_exports_the_model_types():
    analytic = importlib.import_module("twoway_impair.analytic")
    model = importlib.import_module("twoway_impair.model")
    for name in ("Modulation", "MODULATIONS", "OutageQuery", "_sweep_powers", "_own_powers"):
        assert getattr(analytic, name) is getattr(model, name), name
