"""The names that the benchmark's tracer and the package exports refer to
exist and the benchmark's smallest jobs pass its checks, so that trimming
the library cannot break them unnoticed, the
identity checks start without scipy.integrate or the test-only mpmath and
hypothesis, and every scenario flag overrides the config field it names."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import deltawell
from deltawell import volterra
from deltawell.cli import build_parser
from deltawell.params import default_units
from deltawell.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_perfbench(name):
    # a perfbench module loaded from its file, read-only; registered before
    # it runs, as its dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callable():
    # the tracer's install() looks every INSTRUMENTED name up with getattr
    tracing = _load_perfbench("tracing")
    missing = []
    for name in tracing.INSTRUMENTED:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"deltawell.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(name)
    assert not missing


def test_benchmark_minimal_jobs_pass_their_checks(tmp_path):
    # every workload's smallest jobs run and pass the benchmark's own checks,
    # which read the solution (psi0, params, flags), the datasets and
    # y_integral(args, "quadrature")
    jobs = _load_perfbench("jobs")
    for name, workload in jobs.WORKLOADS.items():
        for k, job in enumerate(workload.minimal()):
            tmp = tmp_path / f"{name}-{k}"
            tmp.mkdir()
            problems, _ = workload.check(job, workload.run(job, tmp))
            assert problems == [], (name, job.spec)


def test_tracer_counts_repeat_over_fresh_solves():
    # the benchmark's --trace 1 run traces its deck twice and fails if any
    # count differs, so a cache that outlives a series (a module-level one)
    # must not skip a traced call in the second pass.  An ionization_curve
    # job in small: P at t = 1, 2, ψ(x, 4) at two x and once at an array of
    # three x, twice on fresh solves; the array is one traced call, as its
    # x-by-x loop goes through the private per-x function
    tracing = _load_perfbench("tracing")
    for name in tracing.INSTRUMENTED:
        importlib.import_module(f"deltawell.{name.split('.')[0]}")
    tracer = tracing.Tracer()
    summaries = []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            tracer.active = True
            sol = volterra.solve_psi0(default_units(1.0), volterra.TimeGrid(4.0, 400))
            for t in (1.0, 2.0):
                volterra.bound_overlap(sol, t)
            for x in (-1.0, 2.0):
                volterra.reconstruct_psi_x(sol, x, 4.0)
            volterra.reconstruct_psi_x(sol, [-1.0, 0.0, 2.0], 4.0)
            tracer.active = False
            summaries.append(tracing.summarize(tracer.spans))
    finally:
        tracer.active = False
        tracer.uninstall()
    first, second = summaries
    keys = tracing.count_keys(first)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert first["volterra.bound_overlap.calls"] == 2
    assert first["volterra.reconstruct_psi_x.calls"] == 3


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
