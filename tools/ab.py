"""Parent/change comparisons: alternating benchmark pairs, or the bytes of
fixed CLI cases.

    python3 tools/ab.py PARENT --workload W[,W...]|all [--pairs 10] [--seed S[,S...]]
    python3 tools/ab.py PARENT --bytes

Run from the root of a git checkout.  PARENT (any commit name git knows)
is checked out in a shared ``git clone`` in a temporary directory, which
is removed when the script ends, also when a run fails.

``--workload`` runs pairs for each workload named (a comma list, or
``all`` for every workload of BENCHMARK.json) and each seed of ``--seed``
(a comma list, default 0), workload by workload.  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds 10`` once in
the parent's tree and once in the working tree, each tree with its own
``perfbench/`` and ``src/``; odd pairs run the parent first, even pairs
the change first.  Every run is appended to ``BENCH_<W>.json`` in the
working tree, in that file's entry format.  After the pairs of each
(workload, seed) it prints one block: for each end-to-end metric of
BENCHMARK.json, the medians and quartiles of both sides, the pairs the
change won (ties count for neither) and the gain gate: the change wins at
least 9 of 10 pairs, and its median is better than the parent's by more
than the distance between the parent's quartiles.  Exit code 0 after all
pairs ran, 1 when a run failed.

``--bytes`` runs each case once per tree, each in a fresh interpreter
(``python -m deltawell.cli``) with that tree's ``src`` alone on
PYTHONPATH, in an empty directory of its own.  The cases are every
``figures`` preset, the README's ``solve``, ``approx``, ``fit-c`` and
``figures`` examples, a ``solve`` at t_max = 1e-300 whose dataset has NaN
columns, the three ``identity-check`` default grids and the seed-0 decks
of the CLI workloads (their argv from the working tree's
``perfbench/jobs.py``, with ``--out`` where the benchmark passes one).
It compares the exit code, stdout, stderr and every file a case writes,
prints each one that differs, or "identical (n files)", and exits 1 on a
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = 10  # the run length BENCHMARK.json sets
DECK_WORKLOADS = ("scenario_mix", "long_march", "identity_sweep")  # the CLI workloads
README_CASES = (
    ("readme-solve", ("solve", "--f", "1", "--t-max", "20", "--steps", "8000", "--out", "run.csv")),
    ("readme-approx", ("approx", "--f", "0.5", "--method", "decay_combined", "--c", "0.65", "--ansatz",
                       "explicit", "--gamma", "0.1896", "--delta", "-0.0738", "--out", "approx.csv")),
    ("readme-fit-c", ("fit-c", "--f", "0.5", "--t-max", "20", "--steps", "2000", "--ansatz", "explicit",
                      "--gamma", "0.1896", "--delta", "-0.0738")),
    ("readme-figures", ("figures", "fig1b", "--out", "fig1b.csv")),
)
# exit 2 with NaN gamma/delta columns, three-digit exponents and zeros: the
# only case whose dataset holds non-finite cells
NAN_CASE = ("nan-columns", ("solve", "--t-max", "1e-300", "--steps", "50", "--out", "nan.csv"))
# the preset names and the seed-0 decks of the workloads named in argv, as JSON
_LIST_CASES = """
import json, sys
from jobs import WORKLOADS, deck_rng
from deltawell.scenario import PRESETS
decks = {w: [list(j.spec) for j in WORKLOADS[w].deck(deck_rng(w, 0))] for w in sys.argv[1:]}
print(json.dumps({"presets": sorted(PRESETS), "decks": decks}))
"""


def git(*args, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def commit_of(tree: Path) -> str:
    """HEAD of the tree, with "-dirty" when its program or benchmark files
    differ from HEAD."""
    head = git("rev-parse", "HEAD", cwd=tree)
    changed = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json", cwd=tree)
    return head + ("-dirty" if changed else "")


@contextlib.contextmanager
def parent_checkout(root: Path, parent: str):
    """The repository at PARENT, in a shared clone in a temporary directory."""
    sha = git("rev-parse", "--verify", f"{parent}^{{commit}}", cwd=root)
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        tree = Path(tmp) / "tree"
        git("clone", "--quiet", "--shared", "--no-checkout", str(root), str(tree), cwd=root)
        git("checkout", "--quiet", "--detach", sha, cwd=tree)
        yield tree


def bench_run(tree: Path, workload: str, seed: int) -> dict:
    """One benchmark run in the tree: its command, context line and result line."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return {"command": " ".join(cmd), "context_line": json.loads(lines[-2]), "result_line": json.loads(lines[-1])}


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(runs: dict, metrics: list) -> list:
    """One line per metric: medians, quartiles, wins and the gain gate."""
    lines = []
    pairs = len(runs["change"])
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        side = {k: [r["result_line"]["metrics"][name]["value"] for r in v] for k, v in runs.items()}
        p1, p2, p3 = quartiles(side["parent"])
        c1, c2, c3 = quartiles(side["change"])
        wins = sum((c > p) if higher else (c < p) for p, c in zip(side["parent"], side["change"]))
        gain = (c2 - p2) if higher else (p2 - c2)
        gate = wins >= 0.9 * pairs and gain > p3 - p1
        worse = -gain / abs(p2) if gain < 0 and p2 else 0.0
        lines.append(
            f"{name} [{m['unit']}]: parent {p2:.4g} [{p1:.4g}, {p3:.4g}] -> change {c2:.4g} [{c1:.4g}, {c3:.4g}]; "
            f"change won {wins}/{pairs}; median gain {gain:+.4g} vs parent IQR {p3 - p1:.4g}; "
            f"gain gate {'met' if gate else 'not met'}; worse by {worse:.1%}, bound {m['bound']:.0%}"
        )
    return lines


def run_pairs(root: Path, parent_tree: Path, workload: str, pairs: int, seed: int, spec: dict) -> None:
    bench_file = root / f"BENCH_{workload}.json"
    entries = json.loads(bench_file.read_text()) if bench_file.exists() else []
    runs = {"parent": [], "change": []}
    trees = {"parent": parent_tree, "change": root}
    commits = {k: commit_of(t) for k, t in trees.items()}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for place, side in zip(("first", "second"), order):
            run = bench_run(trees[side], workload, seed)
            runs[side].append(run)
            entries.append({
                "commit": commits[side], "command": run["command"],
                "pair": f"{i + 1} of {pairs}, {place}",
                "context_line": run["context_line"], "result_line": run["result_line"],
            })
            # written after every run, so that a failed run keeps the ones before it
            bench_file.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
            metrics = run["result_line"]["metrics"]
            print(f"pair {i + 1} {side}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items()),
                  flush=True)
    print(f"{workload}, seed {seed}: parent {commits['parent']}, change {commits['change']}")
    for line in report(runs, spec["end_to_end"]):
        print(line)
    print(flush=True)


def byte_cases(root: Path) -> list:
    """(name, argv) of every byte case, argv with its --out where it writes."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "perfbench"), str(root / "src")])}
    proc = subprocess.run([sys.executable, "-c", _LIST_CASES, *DECK_WORKLOADS],
                          cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"listing the byte cases failed: {proc.stderr.strip()[-500:]}")
    listed = json.loads(proc.stdout)
    cases = [(p, ("figures", p, "--out", f"{p}.csv")) for p in listed["presets"]]
    cases += README_CASES
    cases.append(NAN_CASE)
    cases += [(f"identity-check-{s}", ("identity-check", s)) for s in ("z6", "airy_fourier", "airy_erf")]
    for w, deck in listed["decks"].items():
        cases += [
            (f"{w}-{i}", (*argv, *(() if argv[0] == "identity-check" else ("--out", "job.csv"))))
            for i, argv in enumerate(deck)
        ]
    return cases


def case_outputs(tree: Path, argv, cwd: Path) -> dict:
    """Exit code, stdout, stderr and every file written, of one CLI call in
    a fresh interpreter with the tree's src on PYTHONPATH."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "deltawell.cli", *argv], cwd=cwd, env=env, capture_output=True)
    outputs = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": proc.stderr}
    outputs.update((p.name, p.read_bytes()) for p in cwd.iterdir())
    return outputs


def compare_bytes(root: Path, parent_tree: Path) -> bool:
    """Run every byte case in both trees; True when all outputs are identical."""
    compared = differ = 0
    for name, argv in byte_cases(root):
        outputs = {}
        with tempfile.TemporaryDirectory(prefix="ab-case-") as tmp:
            for side, tree in (("parent", parent_tree), ("change", root)):
                cwd = Path(tmp) / side
                cwd.mkdir()
                outputs[side] = case_outputs(tree, argv, cwd)
        parent, change = outputs["parent"], outputs["change"]
        for key in sorted(parent.keys() | change.keys()):
            compared += 1
            if parent.get(key) != change.get(key):
                differ += 1
                print(f"differs: {name}/{key} ({' '.join(argv)})", flush=True)
    if differ:
        print(f"{differ} of {compared} files differ")
        return False
    print(f"identical ({compared} files)")
    return True


def seed_list(text: str) -> list:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare the working tree against")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run alternating benchmark pairs of these workloads: "
                                         "a comma list, or all")
    mode.add_argument("--bytes", action="store_true", help="compare the outputs of the byte cases")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=seed_list, default=[0], help="a comma list of deck seeds")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else args.workload.split(",") if args.workload else []
    for w in workloads:
        if w not in names:
            parser.error(f"unknown workload {w!r}")
    try:
        with parent_checkout(root, args.parent) as parent_tree:
            if args.bytes:
                return 0 if compare_bytes(root, parent_tree) else 1
            for workload in workloads:
                for seed in args.seed:
                    run_pairs(root, parent_tree, workload, args.pairs, seed, spec)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
