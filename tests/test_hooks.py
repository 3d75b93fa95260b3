"""The names that the benchmark's tracer and the package exports refer to
exist, so that trimming the library cannot break them unnoticed."""

import importlib.util
import pkgutil
from pathlib import Path

import deltawell

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_are_callable():
    # perfbench/tracing.py is loaded from its file, read-only; its install()
    # looks every INSTRUMENTED name up with getattr
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name in tracing.INSTRUMENTED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"deltawell.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert not missing


def test_package_exports_exist():
    assert [a for a in deltawell.__all__ if not hasattr(deltawell, a)] == []


def test_module_exports_exist():
    missing = []
    for info in pkgutil.iter_modules(deltawell.__path__):
        module = importlib.import_module(f"deltawell.{info.name}")
        missing += [f"{info.name}.{a}" for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing
