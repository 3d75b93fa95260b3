import importlib.util
import json
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

_HIGHER = {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25}
_LOWER = {"name": "job_p50_s", "unit": "s", "better": "lower", "bound": 0.25}


def _verdict(parent, change, metric=_HIGHER):
    # (wins, gate met) of report()'s one line for the metric
    def side(values):
        return [{"result_line": {"metrics": {metric["name"]: {"value": v}}}} for v in values]

    (line,) = ab.report({"parent": side(parent), "change": side(change)}, [metric])
    wins = re.search(r"change won (\d+)/(\d+)", line)
    assert int(wins[2]) == len(parent)
    return int(wins[1]), "gain gate met" in line


_PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]  # quartiles 9.925, 10.075


def test_report_counts_a_tie_for_neither_side():
    assert _verdict(_PARENT, _PARENT) == (0, False)
    assert _verdict(_PARENT, _PARENT, _LOWER) == (0, False)


@pytest.mark.parametrize("won, gate", [(10, True), (9, True), (8, False)])
def test_report_gate_needs_nine_of_ten_wins(won, gate):
    change = [p + 1.0 for p in _PARENT]
    change[won:] = _PARENT[won:]  # ties for the rest
    assert _verdict(_PARENT, change) == (won, gate)
    # the same margins in time, where lower is better
    assert _verdict(_PARENT, [2 * p - c for p, c in zip(_PARENT, change)], _LOWER) == (won, gate)


def test_report_gate_needs_a_median_gain_beyond_the_parent_iqr():
    # parent median 10.0 and IQR 0.15 (from 9.925 to 10.075): the change wins
    # every pair in both cases, but only a gain beyond the IQR meets the gate
    assert _verdict(_PARENT, [p + 0.125 for p in _PARENT]) == (10, False)
    assert _verdict(_PARENT, [p + 0.25 for p in _PARENT]) == (10, True)


def test_compile_trees_writes_bytecode_despite_the_environment(tmp_path, monkeypatch):
    # the parent's fresh clone has no __pycache__, and PYTHONDONTWRITEBYTECODE
    # would keep it so; both trees get the bytecode of src and perfbench
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        for name in ("src/pkg/mod.py", "perfbench/jobs.py"):
            (tree / name).parent.mkdir(parents=True)
            (tree / name).write_text("X = 1\n")
    ab.compile_trees(*trees)
    for tree in trees:
        assert len(list(tree.glob("src/pkg/__pycache__/mod.*.pyc"))) == 1
        assert len(list(tree.glob("perfbench/__pycache__/jobs.*.pyc"))) == 1


def test_append_entry_extends_the_list_in_place(tmp_path):
    # the first entry makes the file; later ones extend it, one entry a line
    path = tmp_path / "BENCH_w.json"
    entries = [{"pair": "1 of 2, first"}, {"pair": "1 of 2, second", "x": [1.5, None]}]
    for entry in entries:
        ab.append_entry(path, entry)
    assert json.loads(path.read_text()) == entries
    assert path.read_text().count("\n") == 4
    path.write_text("[]\n")
    with pytest.raises(RuntimeError, match="closing bracket"):
        ab.append_entry(path, entries[0])
