import argparse
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltawell import cli, identities, scenario
from deltawell.analysis import FitResult
from deltawell.cli import main
from deltawell.identities import IdentityReport
from deltawell.scenario import (
    COLUMNS, METHODS, PRESETS, ScenarioConfig, _json, preset_config, result_to_csv,
    result_to_json, run_scenario,
)
from deltawell.volterra import RULE_ORDER
from oracles import csv_rows_repr


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
    # out and format are flags only, not scenario fields; JSON true is a
    # Python bool, which would otherwise run as the number 1
    docs = ({"n_steps": 100.5}, {"rule": "cubic"}, {"hbar": -1}, {"mass": 0},
            {"out": str(tmp_path / "x.csv")}, {"format": "json"},
            {"methods": []}, {"methods": ["nope"]}, {"ansatz_source": "nope"},
            {"ansatz_source": "explicit"},
            *({name: True} for name in ("f", "hbar", "mass", "v0", "t_max", "c", "gamma", "delta")))
    bad_docs = [tmp_path / f"bad{i}.json" for i in range(len(docs))]
    for path, doc in zip(bad_docs, docs):
        path.write_text(json.dumps(doc))
    fit_c_doc = tmp_path / "c.json"  # fit-c fits c and takes none
    fit_c_doc.write_text(json.dumps({"c": 0.3}))
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
        ["fit-c", "--c", "0.3", "--t-max", "2", "--steps", "50"],
        ["fit-c", "--config", str(fit_c_doc), "--t-max", "2", "--steps", "50"],
        *(["solve", "--config", str(path)] for path in bad_docs),
    ):
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err, argv


def test_scenario_config_refuses_a_c_string_and_the_float_range():
    with pytest.raises(ValueError, match="c must be a number, 'fit' or omitted, got 'high'"):
        ScenarioConfig(c="high").validate()
    # ℏ² underflows to 0, so B = m·V₀/ℏ² divides by zero
    with pytest.raises(ValueError, match="hbar, mass, v0 and f leave the floating-point range"):
        ScenarioConfig(hbar=1e-200).validate()


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


def test_identity_check_empty_points_is_a_usage_error(capsys):
    # only leaving --points out selects the default grid
    for selector in ("z6", "airy_fourier", "airy_erf"):
        for flag in (["--points", ""], ["--points="]):
            assert main(["identity-check", selector, *flag]) == 1, (selector, flag)
            captured = capsys.readouterr()
            assert "bad grid point ''" in captured.err and not captured.out


@pytest.mark.parametrize("selector, good, bad", [
    ("z6", ["0.1", "1+3j", "5j"], ["oops", "60", "nan", "1+"]),
    ("airy_fourier", ["0", "1", "-2"], ["6", "1j", "inf", "x"]),
    ("airy_erf", ["0", "0.3", "0.2j"], ["1.6", "nan", "2j", ""]),
])
def test_identity_check_names_a_bad_token_anywhere(selector, good, bad, capsys):
    # every token is parsed and checked before any point is computed: a bad
    # one in any position exits 1, names that token and prints no rows
    for token in bad:
        for k in range(len(good) + 1):
            points = good[:k] + [token] + good[k:]
            assert main(["identity-check", selector, "--points", ",".join(points)]) == 1
            captured = capsys.readouterr()
            assert not captured.out, (selector, points)
            assert f"grid point {token!r}" in captured.err, (selector, points)


def test_identity_check_non_finite_row_exits_2(monkeypatch, capsys):
    # χ = 1.6 lies outside the validated |χ| ≤ 1 (the table on [0, 20]
    # loses 8.5e-11 relative at |χ| = 1.5 and all digits at 2) and is a
    # usage error; a NaN row that reaches the table counts as failing
    assert main(["identity-check", "airy_erf", "--points", "1.6"]) == 1
    assert "validated only for |chi| <= 1" in capsys.readouterr().err
    nan = float("nan")
    monkeypatch.setattr(
        cli, "check_airy_erf_identity",
        lambda chis: tuple(IdentityReport("airy_erf", nan, 0.0, nan, nan) for _ in chis),
    )
    assert main(["identity-check", "airy_erf", "--points", "0.3"]) == 2
    assert "1 unflagged row(s)" in capsys.readouterr().err


def test_identity_check_airy_erf_takes_a_unit_modulus_chi(capsys):
    # χ = e^{iπ/5}: |χ| is exactly 1.0 in Python, while numpy's complex abs
    # rounds it one ulp above 1; the range check takes the former
    token = "0.8090169943749475+0.5877852522924731j"
    assert abs(complex(token)) == 1.0
    assert main(["identity-check", "airy_erf", "--points", token]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 1 and rows[0].startswith(token + ",") and rows[0].endswith(",")


def test_identity_check_airy_fourier_gate_sees_a_1e_9_error(monkeypatch, capsys):
    # the check's own error is below 2.1e-14 on |η| ≤ 5 (8 001 η), so its
    # gate is abs 1e-12; a tail off by 1e-9 is a broken check and exits 2
    real = identities._airy_fourier_sums

    def off(eta):
        c, tail, lhs = real(eta)
        return c, tail + 1e-9, lhs + 1e-9

    monkeypatch.setattr(identities, "_airy_fourier_sums", off)
    assert main(["identity-check", "airy_fourier"]) == 2
    assert "4 unflagged row(s) beyond tolerance 1e-12 (abs)" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["identity-check", "airy_fourier"]) == 0
    capsys.readouterr()


def test_identity_check_airy_erf_gate_sees_a_1e_9_error(monkeypatch, capsys):
    # the check's own error is below 9.3e-15 relative on |χ| ≤ 1 (4 000
    # random χ), so its gate is rel 1e-13; a left side off by 1e-9 relative
    # is a broken check and exits 2.  The default grid's χ = 0 has both
    # sides 0, which any relative error leaves exact
    real = identities._erf_airy_lhs
    monkeypatch.setattr(identities, "_erf_airy_lhs", lambda chi: real(chi) * (1.0 + 1e-9))
    assert main(["identity-check", "airy_erf"]) == 2
    assert "2 unflagged row(s) beyond tolerance 1e-13 (rel)" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(["identity-check", "airy_erf"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("token", ["-1,2", "-0.5,1", "-1e-3", "-0j"])
@pytest.mark.parametrize("selector", ["z6", "airy_fourier", "airy_erf"])
def test_identity_check_takes_a_negative_grid_after_a_space(selector, token, capsys):
    # argparse takes a token that starts with "-" for an option unless it is
    # a plain negative number; "--points -1,2" gives the same exit code and
    # output as "--points=-1,2"
    spaced = main(["identity-check", selector, "--points", token])
    spaced_out = capsys.readouterr()
    assert spaced == main(["identity-check", selector, f"--points={token}"])
    assert capsys.readouterr() == spaced_out
    assert "expected one argument" not in spaced_out.err
    # z⁶ takes every token; η takes no complex literal, χ = 2 is out of range
    refused = (selector, token) in {("airy_fourier", "-0j"), ("airy_erf", "-1,2")}
    assert spaced == (1 if refused else 0), spaced_out.err
    if not refused:
        rows = spaced_out.out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == token.split(",")


def test_unreadable_config_exits_1(tmp_path, capsys):
    # a missing file, a directory and a file that is not JSON: exit 1, one
    # message and no dataset
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{f: 1")
    for path in (tmp_path / "missing.json", tmp_path, bad_json):
        assert main(["solve", "--config", str(path), "--steps", "20", "--t-max", "1"]) == 1, path
        captured = capsys.readouterr()
        assert f"cannot read config {path}" in captured.err and not captured.out, path


def test_identity_check_calls_the_module_binding(monkeypatch, capsys):
    # the check is looked up when the command runs, so a rebinding of
    # cli.check_airy_fourier (as a tracer does) sees the call
    calls = []
    real = cli.check_airy_fourier

    def spy(etas):
        calls.append(list(etas))
        return real(etas)

    monkeypatch.setattr(cli, "check_airy_fourier", spy)
    assert main(["identity-check", "airy_fourier", "--points", "0.5,-1"]) == 0
    assert calls == [[0.5, -1.0]]
    capsys.readouterr()


_FINITE = dict(allow_nan=False, allow_infinity=False)
_VALIDATED_POINTS = {
    "z6": st.complex_numbers(max_magnitude=50.0, **_FINITE),
    "airy_fourier": st.floats(-5.0, 5.0),
    "airy_erf": st.complex_numbers(max_magnitude=1.0, **_FINITE),
}


@pytest.mark.parametrize("selector", _VALIDATED_POINTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_identity_check_exit_0_means_every_row_within_tolerance(selector, data):
    # over each selector's whole validated range: exit 0 only when every
    # row's errors are finite and within the gate, flagged or not
    tokens = [repr(p) for p in data.draw(st.lists(_VALIDATED_POINTS[selector], min_size=1, max_size=4))]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["identity-check", selector, "--points=" + ",".join(tokens)])
    assert code in (0, 2)
    if code == 0:
        kind, tol = cli._IDENTITY_TOL[selector]
        rows = [line.split(",") for line in stdout.getvalue().splitlines()[1:]]
        assert [row[0] for row in rows] == tokens
        for token, abs_err, rel_err, _ in rows:
            assert math.isfinite(float(abs_err)) and math.isfinite(float(rel_err)), token
            assert float(abs_err if kind == "abs" else rel_err) <= tol, token


_SHORT = ["--t-max", "2", "--steps", "40"]


@pytest.mark.parametrize("sequence", [
    # action="append": the second call's list must not hold the first's
    [["approx", "--method", "first_scheme", *_SHORT]] * 2,
    # a preset's defaults must not leak into the next subcommand
    [["figures", "fig1a", *_SHORT], ["solve", *_SHORT], ["figures", "fig1a", *_SHORT]],
    # a usage error, from the parser and from a handler, then good calls
    [["solve", "--steps", "x"], ["solve", *_SHORT],
     ["identity-check", "z6", "--points", "oops"], ["identity-check", "z6", "--points", "0.5"]],
], ids=["append_twice", "figures_then_solve", "usage_error_then_good"])
def test_reused_parser_keeps_no_state_between_calls(sequence, tmp_path):
    # main builds its parser once per process; each call of a sequence gives
    # the exit code, stdout, stderr and files of that call made first, in a
    # freshly executed module
    out = tmp_path / "out.csv"

    def outcome(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out)] if argv[0] != "identity-check" else argv)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        return code, stdout.getvalue(), stderr.getvalue(), files

    first_calls = []
    for argv in sequence:
        importlib.reload(cli)
        first_calls.append(outcome(argv))
    importlib.reload(cli)
    assert [outcome(argv) for argv in sequence] == first_calls
    assert any(code == 0 and (stdout or files) for code, stdout, _, files in first_calls)


def test_second_main_call_builds_no_parser(monkeypatch, capsys):
    cli._parser.cache_clear()
    calls = []
    real = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    argv = ["identity-check", "z6", "--points", "0.5"]
    assert main(argv) == 0
    built = len(calls)
    assert main(argv) == 0
    assert built > 50 and len(calls) == built
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
    # --method overrides the file's methods like every other flag
    methods_cfg = tmp_path / "methods.json"
    methods_cfg.write_text(json.dumps({"methods": ["decay_combined"], "t_max": 2.0, "n_steps": 50}))
    csv = tmp_path / "m.csv"
    assert main(["approx", "--config", str(methods_cfg), "--method", "first_scheme",
                 "--out", str(csv)]) == 0
    assert {row[7] for row in _read_rows(csv)[1]} == {"first_scheme"}
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


def test_fit_c_without_closed_form_reports_fitted_c(tmp_path, capsys):
    # c = "fit" needs the ansatz even when no decay method is written
    out = tmp_path / "fit.json"
    rc = main(["fit-c", "--f", "0.5", "--t-max", "4", "--steps", "200",
               "--method", "first_scheme", "--out", str(out)])
    assert rc == 0
    assert "fitted c" in capsys.readouterr().out
    assert 0.0 <= json.loads(out.read_text())["summary"]["fitted_c"] <= 1.0


def test_closed_form_run_skips_the_exact_solve(tmp_path):
    # at f = 2 the auto ansatz would be fitted, but first_scheme needs no
    # ansatz; the coarse exact solve, whose flags would exit 2, is not run
    out = tmp_path / "coarse.csv"
    rc = main(["approx", "--f", "2", "--t-max", "20", "--steps", "60",
               "--method", "first_scheme", "--out", str(out)])
    assert rc == 0
    doc = json.loads((tmp_path / "coarse.csv.summary.json").read_text())
    assert "err_est" not in doc["summary"]
    assert doc["flags"] == []


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
    # on t ≤ 1e-300 ψ/√B stays within 1e-12 of 1, and the plateau is
    # refused before its 1/t fit would overflow: a flag, not a finite
    # plateau of order 1e133
    out = tmp_path / "tiny.json"
    rc = main(["solve", "--t-max", "1e-300", "--steps", "50", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 2
    assert doc["flags"] == ["exact_extraction_failed"]
    assert "exact_delta_plateau" not in doc["summary"]


def test_overflowing_plateau_fit_is_flagged(tmp_path, capsys):
    # ℏ = 1e-50 makes |E_b|t/ℏ large enough on t ≤ 1e-155 that ψ/√B leaves
    # 1, and Σ(1/t)² over the window overflows the fit's scaling: a flag and
    # the overflow's message, with no warning on the way
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"hbar": 1e-50, "f": 0.0, "t_max": 1e-155, "n_steps": 50}))
    out = tmp_path / "tiny.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", "--config", str(config), "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 2
    assert doc["flags"] == ["err_est_above_threshold", "exact_extraction_failed"]
    assert "exact_delta_plateau" not in doc["summary"]
    assert doc["summary"]["exact_extraction_error"] == (
        "the 1/t plateau fit overflows on this grid (t_hi = 1e-155)"
    )
    err = capsys.readouterr().err
    assert err == "numerical flags: err_est_above_threshold, exact_extraction_failed\n"


def test_unresolved_grid_plateau_is_flagged(tmp_path):
    # on t ≤ 1e-150 the fit does not overflow, but ψ/√B stays within 1e-12
    # of 1: a flag, not a finite plateau of order 1e59
    out = tmp_path / "tiny.json"
    rc = main(["solve", "--t-max", "1e-150", "--steps", "50", "--format", "json", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 2
    assert doc["flags"] == ["exact_extraction_failed"]
    assert "exact_delta_plateau" not in doc["summary"]
    assert "within 1e-12 of 1" in doc["summary"]["exact_extraction_error"]


def test_multimodal_fit_exits_2_with_its_flag(monkeypatch, capsys):
    # a stand-in fit whose scan found two minima: the run is flagged
    monkeypatch.setattr(scenario, "fit_c", lambda exact, ansatz: FitResult(c=0.4, multimodal=True))
    rc = main(["fit-c", "--f", "0.5", "--t-max", "4", "--steps", "200", "--ansatz", "explicit",
               "--gamma", "0.1896", "--delta", "-0.0738"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "fitted c = 0.4000\n"
    assert err == "numerical flags: fit_c_multimodal\n"


@pytest.mark.parametrize("ansatz", [["wkb"], ["explicit", "--gamma", "0", "--delta", "0"]])
def test_flat_fit_objective_exits_2_as_undetermined(ansatz, capsys):
    # at f = 0 the additive and multiplicative forms agree to rounding, so
    # the objective is flat in c and its scan's rounding ties are no minima:
    # c is undetermined, not multimodal
    rc = main(["fit-c", "--f", "0", "--t-max", "4", "--steps", "100", "--ansatz", *ansatz])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out.startswith("fitted c = ")
    assert err == "numerical flags: fit_c_undetermined\n"


@pytest.mark.parametrize("method, stand_in", [("decay_combined", "decay_closed_psi0"),
                                               ("first_scheme", "first_scheme_psi0")])
def test_non_finite_closed_form_exits_2(method, stand_in, monkeypatch, capsys):
    # only numerics make a closed form non-finite, so a stand-in returns NaN
    # on every node: exit 2, the failure on stderr and no rows
    monkeypatch.setattr(scenario, stand_in, lambda *args: np.full(len(args[1]), complex(math.nan)))
    rc = main(["approx", "--f", "0.5", "--t-max", "4", "--steps", "50", "--method", method,
               "--ansatz", "explicit", "--gamma", "0.1896", "--delta", "-0.0738", "--c", "0.65"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"numerical failure: {method} is not finite on this grid\n"


@pytest.mark.xfail(
    strict=True,
    reason="at f = 0.05 the true Γ is about 1.6e-6 (WKB), far below what a 1/t fit "
    "of the switch-on transient on t ≤ 20 resolves: Γ̄ = −7.4e-4, no flag, exit 0.  "
    "The benchmark's scenario_mix fig1a jobs show the same (t_max = 18, N = 1500: "
    "−7.5e-4), so flagging it waits for a change of the benchmark",
)
def test_weak_field_plateau_is_positive_or_flagged(tmp_path):
    # an unflagged decay rate is positive
    out = tmp_path / "weak.json"
    rc = main(["solve", "--f", "0.05", "--t-max", "20", "--steps", "400", "--format", "json",
               "--out", str(out)])
    assert rc == 2 or json.loads(out.read_text())["summary"]["exact_gamma_plateau"] > 0.0


@pytest.fixture(scope="module")
def split_result():
    # 6 × _MIN_BLOCK_ROWS rows over three methods, NaN gamma/delta columns
    # from failed extractions: four blocks cut inside each method
    config = ScenarioConfig(t_max=1e-300, n_steps=2 * scenario._MIN_BLOCK_ROWS - 1,
                            methods=("exact", "first_scheme", "decay_combined"))
    return run_scenario(config)


def _four_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


def test_dataset_rows_match_per_value_repr(monkeypatch, split_result):
    # NaN columns from a failed extraction, and more rows than one chunk;
    # with four CPUs the split table is formatted in four blocks, three of
    # them forked
    config = ScenarioConfig(t_max=1e-300, n_steps=5000, methods=("exact", "first_scheme"))
    small = run_scenario(config)
    assert "exact_extraction_failed" in small.flags
    assert all(np.isnan(tb["gamma"]).all() for tb in split_result.tables.values())
    _four_cpus(monkeypatch)
    total = sum(len(tb["t"]) for tb in split_result.tables.values())
    assert scenario._block_count(total) == (4 if hasattr(os, "fork") else 1)
    for result in (small, split_result):
        methods = result.config.methods
        rows = {m: [[float(v) for v in tb[c]] for c in COLUMNS[:-1]] for m, tb in result.tables.items()}
        lines = [
            ",".join(repr(float(v)) for v in row) + f",{m}"
            for m in methods
            for row in zip(*(result.tables[m][c] for c in COLUMNS[:-1]))
        ]
        csv = result_to_csv(result)
        assert csv.endswith("\n" + ",".join(COLUMNS) + "\n" + "\n".join(lines) + "\n")
        assert result_to_json(result) == _json(result, rows={
            m: dict(zip(COLUMNS[:-1], cols)) for m, cols in rows.items()
        })


_NEEDS_FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: rows are formatted in-process")


def _refuse_fork():
    raise AssertionError("os.fork called")


@_NEEDS_FORK
def test_dataset_below_two_blocks_starts_no_process(monkeypatch):
    # two methods of _MIN_BLOCK_ROWS − 1 rows: one row short of two blocks
    config = ScenarioConfig(t_max=2.0, n_steps=scenario._MIN_BLOCK_ROWS - 2,
                            methods=("first_scheme", "decay_combined"))
    result = run_scenario(config)
    _four_cpus(monkeypatch)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert sum(len(tb["t"]) for tb in result.tables.values()) == 2 * scenario._MIN_BLOCK_ROWS - 2
    assert result_to_csv(result).endswith(",decay_combined\n")


@_NEEDS_FORK
def test_dataset_without_fork_is_formatted_in_process(monkeypatch, split_result):
    _four_cpus(monkeypatch)
    split = result_to_csv(split_result)
    monkeypatch.delattr(os, "fork")
    assert result_to_csv(split_result) == split


@_NEEDS_FORK
def test_failed_block_raises_and_reaps_every_worker(monkeypatch, split_result):
    # forked workers keep the patched formatter; the conftest fixture checks
    # that no child is left behind
    _four_cpus(monkeypatch)
    rows = scenario._csv_rows

    def failing(block):
        def fmt(cols, lo, hi):
            if (lo > 0) == (block == "worker"):
                raise RuntimeError(f"{block} block failed")
            return rows(cols, lo, hi)
        return fmt

    monkeypatch.setattr(scenario, "_csv_rows", failing("worker"))
    with pytest.raises(ChildProcessError, match=r"(\(exit 1\).*){3}"):
        result_to_csv(split_result)
    monkeypatch.setattr(scenario, "_csv_rows", failing("parent"))
    with pytest.raises(RuntimeError, match="parent block failed"):
        result_to_csv(split_result)


def _flat_columns(values, methods, counts):
    # the flat columns of _csv_rows: values cut into seven float columns,
    # beside the bytes array of each row's method
    floats = list(np.asarray(values, dtype=np.float64).reshape(7, -1))
    return floats + [np.repeat(np.array(methods, dtype="S"), counts)]


def _neighbours(x, ulps=4):
    # x and its ±ulps neighbours of the same sign, by bit pattern
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    steps = np.arange(-ulps, ulps + 1)
    near = (bits[:, None] + steps).ravel()
    return near[(near >= 0) & (near < 0x7FF0000000000000)].view(np.float64)


def test_dataset_text_matches_repr_on_bit_patterns():
    # 2 M random bit patterns (subnormals, infinities and NaN payloads of
    # either sign among them), every power of 2 and of 10 with its ±4-ulp
    # neighbours, repr's switch points to exponent form, ±0.0, ±inf, ±NaN
    rng = np.random.default_rng(20261020)
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{e}") for e in range(-323, 309)], [1e-4, 1e16, 1e-5, 1e17]])
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    edges = np.concatenate([_neighbours(powers), special])
    edges = np.concatenate([edges, -edges])
    random = rng.integers(0, 2**64, size=2_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
    values = np.concatenate([edges, random])
    values = values[:len(values) // 7 * 7]
    rows = len(values) // 7
    cols = _flat_columns(values, ["exact", "decay_multiplicative"], [rows // 3, rows - rows // 3])
    assert scenario._csv_rows(cols, 0, rows).decode() == csv_rows_repr(cols, 0, rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
             min_size=7, max_size=7 * 1200).map(lambda v: v[:len(v) // 7 * 7]),
    st.lists(st.sampled_from(METHODS), min_size=1, max_size=6),
    st.data(),
)
def test_dataset_rows_match_the_repr_oracle(values, methods, data):
    # drawn float columns, cut into methods at drawn rows, any row range
    rows = len(values) // 7
    cuts = sorted(data.draw(st.lists(st.integers(0, rows), min_size=len(methods) - 1,
                                     max_size=len(methods) - 1)))
    counts = np.diff([0, *cuts, rows])
    cols = _flat_columns(values, methods, counts)
    lo = data.draw(st.integers(0, rows))
    hi = data.draw(st.integers(lo, rows))
    assert scenario._csv_rows(cols, lo, hi).decode() == csv_rows_repr(cols, lo, hi)


def test_shortest_digits_stay_uint64():
    # numpy 2 turns an int64–uint64 mix into float64 without an error; the
    # digits are exact only while every 64-bit step stays uint64
    x = np.array([5e-324, 2.2250738585072014e-308, 1e-4, 0.1, 1.0, 3.0, 1e16, 1.7976931348623157e308])
    d, k = scenario._shortest_digits(x)
    assert d.dtype == np.uint64 and k.dtype == np.int64
    assert [str(v).rstrip("0") for v in d.tolist()] == ["5", "22250738585072014", "1", "1", "1", "3", "1", "17976931348623157"]
    assert [float(f"{v}e{e}") for v, e in zip(d.tolist(), k.tolist())] == x.tolist()
    g = tuple(part[:1] for part in scenario._tables()["g"])
    assert scenario._round_to_odd(g, np.array([1 << 60], dtype=np.uint64)).dtype == np.uint64


def test_repeated_methods_exit_1(tmp_path, capsys):
    doc = tmp_path / "d.json"
    doc.write_text(json.dumps({"methods": ["exact", "exact"]}))
    out = tmp_path / "d.csv"
    for argv in (
        ["solve", "--config", str(doc), "--t-max", "2", "--steps", "20"],
        ["approx", "--method", "first_scheme", "--method", "first_scheme", "--t-max", "2", "--steps", "20"],
    ):
        assert main(argv + ["--out", str(out)]) == 1, argv
        assert "methods must not repeat" in capsys.readouterr().err, argv
        assert not out.exists()


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
    # scipy.integrate is about 0.4 s of start-up, and the library does not use it
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
