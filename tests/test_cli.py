import json

from deltawell.cli import main
from deltawell.scenario import PRESETS, preset_config


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
