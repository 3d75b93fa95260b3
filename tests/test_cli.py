import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from deltawell.cli import main
from deltawell.scenario import (
    COLUMNS, METHODS, PRESETS, ScenarioConfig, _json, preset_config, result_to_csv,
    result_to_json, run_scenario,
)
from deltawell.volterra import RULE_ORDER


def _read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


def test_solve_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["solve", "--f", "0.3", "--t-max", "4", "--steps", "200"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary.json").exists()


def test_csv_columns_self_consistent(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["solve", "--f", "0.5", "--t-max", "4", "--steps", "400", "--out", str(out)]) == 0
    header, rows = _read_rows(out)
    assert header == ["t", "re", "im", "abs2", "gamma", "delta", "proxy", "method"]
    for row in rows:
        re, im, abs2 = float(row[1]), float(row[2]), float(row[3])
        assert abs(abs2 - (re * re + im * im)) <= 1e-12
        assert row[7] == "exact"


def test_field_free_run_all_methods(tmp_path):
    out = tmp_path / "ff.csv"
    rc = main([
        "approx", "--f", "0", "--t-max", "5", "--steps", "250",
        "--method", "first_scheme", "--method", "decay_combined",
        "--method", "exp_ansatz", "--ansatz", "wkb", "--out", str(out),
    ])
    assert rc == 0
    _, rows = _read_rows(out)
    for row in rows:
        assert abs(float(row[3]) - 1.0) <= 1e-6  # |psi|^2 == B
        assert abs(float(row[6])) <= 1e-6        # proxy == 0


def test_json_format(tmp_path):
    out = tmp_path / "run.json"
    assert main(["solve", "--f", "0.2", "--t-max", "2", "--steps", "100",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["f"] == 0.2
    assert "exact" in doc["rows"]
    assert len(doc["rows"]["exact"]["t"]) == 101
    assert doc["flags"] == []


def test_usage_errors_exit_1(tmp_path, capsys):
    not_an_object = tmp_path / "five.json"
    not_an_object.write_text("5")
    bad_docs = [tmp_path / f"bad{i}.json" for i in range(4)]
    for path, doc in zip(bad_docs, ({"n_steps": 100.5}, {"rule": "cubic"}, {"hbar": -1}, {"mass": 0})):
        path.write_text(json.dumps(doc))
    for argv in (
        ["solve", "--f", "-1", "--t-max", "2", "--steps", "100"],
        ["figures", "fig9z"],
        ["approx", "--method", "bogus"],
        ["identity-check", "nonesuch"],
        ["solve", "--c", "high"],
        ["figures", "fig1a", "--steps", "5"],
        ["figures", "fig1a", "--f", "-1"],
        ["solve", "--t-max", "-1", "--steps", "20"],
        ["solve", "--t-max", "inf", "--steps", "20"],
        ["solve", "--f", "nan", "--t-max", "1", "--steps", "20"],
        ["approx", "--steps", "20", "--t-max", "1", "--c", "2"],
        ["approx", "--steps", "20", "--t-max", "1", "--ansatz", "explicit",
         "--gamma", "-1", "--delta", "0"],
        ["solve", "--config", str(not_an_object)],
        ["identity-check", "airy_fourier", "--points", "6"],
        ["identity-check", "z6", "--points", "nan"],
        ["identity-check", "airy_erf", "--points", "1e9"],
        ["solve", "--t-max", "1e200", "--steps", "100"],
        *(["solve", "--config", str(path)] for path in bad_docs),
    ):
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv


def test_flagged_run_exits_2_with_partial_output(tmp_path, capsys):
    out = tmp_path / "coarse.csv"
    rc = main(["solve", "--f", "2", "--t-max", "20", "--steps", "60", "--out", str(out)])
    assert rc == 2
    assert out.exists()  # partial output preserved
    assert "phase_step_too_coarse" in capsys.readouterr().err


def test_identity_check_exit_codes(capsys):
    assert main(["identity-check", "z6"]) == 0
    assert main(["identity-check", "airy_fourier", "--points", "0,1"]) == 0
    assert main(["identity-check", "airy_erf", "--points", "0,0.3"]) == 0
    assert main(["identity-check", "z6", "--points", "oops"]) == 1
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f": 0.4, "t_max": 3.0, "n_steps": 150}))
    out = tmp_path / "out.json"
    rc = main(["solve", "--config", str(cfg), "--f", "0.1",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["f"] == 0.1       # flag wins
    assert doc["config"]["t_max"] == 3.0   # file value kept
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert main(["solve", "--config", str(bad)]) == 1


def test_presets_cover_all_figures():
    assert len(PRESETS) == 12
    for fig in (1, 2, 3):
        for row in "abcd":
            assert f"fig{fig}{row}" in PRESETS
    cfg = preset_config("fig1b")
    assert cfg.f == 0.5
    assert cfg.c == 0.65
    assert cfg.gamma == 0.1896


def test_figures_preset_smoke(tmp_path):
    out = tmp_path / "fig.csv"
    rc = main(["figures", "fig1b", "--t-max", "6", "--steps", "300", "--out", str(out)])
    assert rc == 0
    summary = json.loads((tmp_path / "fig.csv.summary.json").read_text())
    assert summary["config"]["f"] == 0.5
    assert summary["summary"]["c"] == 0.65
    header, rows = _read_rows(out)
    methods = {row[7] for row in rows}
    assert methods == {"exact", "decay_combined", "first_scheme", "exp_ansatz"}


def test_fit_c_subcommand(tmp_path, capsys):
    out = tmp_path / "fit.json"
    rc = main(["fit-c", "--f", "0.5", "--t-max", "12", "--steps", "600",
               "--ansatz", "explicit", "--gamma", "0.1896", "--delta", "-0.0738",
               "--out", str(out)])
    assert rc == 0
    assert "fitted c" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert 0.4 <= doc["summary"]["fitted_c"] <= 0.8


_ANSATZ_ARGV = st.one_of(
    st.sampled_from(["wkb", "auto", "fit"]).map(lambda src: ["--ansatz", src]),
    st.tuples(st.floats(0.0, 1.5), st.floats(-0.2, 0.05)).map(
        lambda gd: ["--ansatz", "explicit", "--gamma", repr(gd[0]), "--delta", repr(gd[1])]
    ),
)


@settings(max_examples=40, deadline=None)
# a grid too coarse to extract the fitted ansatz from the exact series
@example(f=1.6669712404161685, t_max=12.01953125, steps=48, c=0.0,
         ansatz=["--ansatz", "auto"], methods=["exp_ansatz"])
@given(
    f=st.floats(0.0, 2.0),
    t_max=st.floats(0.05, 20.0),
    steps=st.integers(10, 200),
    c=st.floats(0.0, 1.0),
    ansatz=_ANSATZ_ARGV,
    methods=st.lists(st.sampled_from([m for m in METHODS if m != "exact"]), min_size=1, max_size=3),
)
def test_approx_argv_ends_in_an_exit_code(f, t_max, steps, c, ansatz, methods):
    argv = ["approx", "--f", repr(f), "--t-max", repr(t_max), "--steps", str(steps),
            "--c", repr(c), *ansatz]
    for m in methods:
        argv += ["--method", m]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2), argv


def test_unresolvable_closed_form_exits_2(capsys):
    # a level shift of 1e9 makes Y oscillate beyond the quadrature's panel
    # cap, and a decay rate of 1e3 overflows its integrand
    for gamma, delta in (("0", "1e9"), ("1e3", "0")):
        rc = main(["approx", "--f", "0.5", "--t-max", "5", "--steps", "50",
                   "--ansatz", "explicit", "--gamma", gamma, "--delta", delta])
        assert rc == 2, (gamma, delta)
        assert "numerical failure" in capsys.readouterr().err


def test_degenerate_grid_plateau_is_flagged(tmp_path):
    # on t ≤ 1e-300 the 1/t plateau fit overflows: a flag, not a finite
    # plateau of order 1e133
    out = tmp_path / "tiny.json"
    rc = main(["solve", "--t-max", "1e-300", "--steps", "50", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 2
    assert doc["flags"] == ["exact_extraction_failed"]
    assert "exact_delta_plateau" not in doc["summary"]


def test_dataset_rows_match_per_value_repr():
    # NaN columns from a failed extraction, and more rows than one chunk
    config = ScenarioConfig(t_max=1e-300, n_steps=5000, methods=("exact", "first_scheme"))
    result = run_scenario(config)
    assert "exact_extraction_failed" in result.flags
    rows = {m: [[float(v) for v in tb[c]] for c in COLUMNS[:-1]] for m, tb in result.tables.items()}
    lines = [
        ",".join(repr(float(v)) for v in row) + f",{m}"
        for m in config.methods
        for row in zip(*(result.tables[m][c] for c in COLUMNS[:-1]))
    ]
    csv = result_to_csv(result)
    assert csv.endswith("\n" + ",".join(COLUMNS) + "\n" + "\n".join(lines) + "\n")
    assert result_to_json(result) == _json(result, rows={
        m: dict(zip(COLUMNS[:-1], cols)) for m, cols in rows.items()
    })


def _fresh_python(*args, cwd=None):
    # a fresh interpreter with the package's source on its path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def _in_sys_modules_after_cli_import(module):
    # stdout of a fresh interpreter that imports deltawell.cli and prints
    # whether the module is loaded
    proc = _fresh_python("-c", f"import sys, deltawell.cli; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_overflowing_grid_fails_with_one_line(tmp_path):
    # t_max passes the t_max³ check, but x²/t and the Volkov phases overflow
    # in the forcing; the march's non-finite check is all that is printed
    argv = ("solve", "--t-max", "1e102", "--steps", "100")
    proc = _fresh_python("-m", "deltawell.cli", *argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == "numerical failure: non-finite solution at node 1 (t=1e+100)\n"


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs more than a second of start-up on every CLI call
    assert _in_sys_modules_after_cli_import("scipy.signal") == "False"


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is about 0.4 s of start-up; only the overlap and the
    # z⁶ identity check use it, and they import it when called
    assert _in_sys_modules_after_cli_import("scipy.integrate") == "False"


_NAMES = st.sampled_from([*METHODS, *RULE_ORDER, "wkb", "fit", "explicit", "auto"])
_NON_NUMBERS = st.one_of(_NAMES, st.text(max_size=5), st.booleans(), st.none())
_ANY = st.one_of(st.floats(), st.integers(-5, 50), _NON_NUMBERS)
_PLAUSIBLE = {
    "f": st.floats(0.0, 3.0),
    "hbar": st.floats(0.3, 3.0),
    "mass": st.floats(0.3, 3.0),
    "v0": st.floats(0.3, 3.0),
    "t_max": st.floats(0.05, 20.0),
    "methods": st.lists(st.sampled_from(METHODS), min_size=1, max_size=3),
    "c": st.one_of(st.floats(0.0, 1.0), st.just("fit"), st.none()),
    "ansatz_source": st.sampled_from(["wkb", "fit", "explicit", "auto"]),
    "gamma": st.floats(0.0, 1.5),
    "delta": st.floats(-0.2, 0.05),
    "rule": st.sampled_from(list(RULE_ORDER)),
}
_ANY_TYPE = {name: _ANY for name in _PLAUSIBLE}
_ANY_TYPE["t_max"] = st.one_of(
    st.floats(max_value=20.0), st.sampled_from([math.nan, math.inf]),
    st.integers(max_value=20), _NON_NUMBERS,
)
_ANY_TYPE["methods"] = st.one_of(st.lists(st.one_of(_NAMES, st.text(max_size=5)), max_size=3), _ANY)
_ANY_TYPE["n_steps"] = st.one_of(st.integers(max_value=200), st.floats(), _NON_NUMBERS)


@st.composite
def _config_docs(draw):
    # a plausible document (n_steps always set, so that no example falls
    # back to the 8000-step default) with up to two values of any JSON type
    doc = draw(st.fixed_dictionaries({"n_steps": st.integers(10, 200)}, optional=_PLAUSIBLE))
    for name in draw(st.sets(st.sampled_from(sorted(_ANY_TYPE)), max_size=2)):
        doc[name] = draw(_ANY_TYPE[name])
    return doc


@settings(max_examples=60, deadline=None)
@example(doc={"n_steps": 100.5})
@example(doc={"n_steps": 50, "rule": "cubic"})
@example(doc={"n_steps": 50, "hbar": -1})
@example(doc={"n_steps": 50, "mass": 0})
@given(doc=_config_docs())
def test_config_document_ends_in_an_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        for command in ("solve", "approx"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main([command, "--config", str(path)])
            assert rc in (0, 1, 2), (command, doc)
