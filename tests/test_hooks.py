"""The names that the benchmark's tracer and the package exports refer to
exist, so that trimming the library cannot break them unnoticed, the
identity checks start without scipy.integrate or the test-only mpmath and
hypothesis, and every scenario flag overrides the config field it names."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import deltawell
from deltawell.cli import build_parser
from deltawell.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_identity_checks_leave_scipy_integrate_unloaded():
    # scipy.integrate costs about 0.4 s of start-up on every identity-check
    # call, and mpmath and hypothesis are test-only dependencies, which the
    # oracles use and the library must not; a fresh interpreter runs all
    # three selectors on their default grids
    code = (
        "import sys\n"
        "from deltawell.cli import main\n"
        "codes = [main(['identity-check', s]) for s in ('z6', 'airy_fourier', 'airy_erf')]\n"
        "print(codes, [m for m in ('scipy.integrate', 'mpmath', 'hypothesis') if m in sys.modules])\n"
    )
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_scenario_flags_are_config_fields():
    # the CLI finds the flags that override the config file by field name,
    # so a scenario flag whose dest is not a ScenarioConfig field would
    # escape the defaults < file < flags precedence
    parser = build_parser()
    allowed = set(ScenarioConfig.__dataclass_fields__) | {
        "config", "out", "format", "preset", "command", "func",
    }
    for argv in (["solve"], ["approx"], ["fit-c"], ["figures", "fig1a"]):
        dests = set(vars(parser.parse_args(argv)))
        assert dests - allowed == set(), argv
