"""Alternating parent/change pairs of the benchmark.

    python3 tools/ab.py PARENT --workload W [--pairs 10] [--seed 0]

Run from the root of a git checkout.  PARENT (any commit name git knows)
is checked out with ``git worktree add --detach`` into a temporary
directory.  Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds 10`` once in the parent's tree and once in the working tree,
each tree with its own ``perfbench/`` and ``src/``; odd pairs run the
parent first, even pairs the change first.  Every run is appended to
``BENCH_<W>.json`` in the working tree, in that file's entry format.

For each end-to-end metric of BENCHMARK.json it prints the medians and
quartiles of both sides, the pairs the change won (ties count for
neither) and the gain gate: the change wins at least 9 of 10 pairs, and
its median is better than the parent's by more than the distance between
the parent's quartiles.  The worktree is removed when the script ends,
also when a run fails.  Exit code 0 after all pairs ran, 1 when a run
failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = 10  # the run length BENCHMARK.json sets


def git(*args, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def commit_of(tree: Path) -> str:
    """HEAD of the tree, with "-dirty" when its program or benchmark files
    differ from HEAD."""
    head = git("rev-parse", "HEAD", cwd=tree)
    changed = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json", cwd=tree)
    return head + ("-dirty" if changed else "")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    bench_file = root / f"BENCH_{args.workload}.json"
    entries = json.loads(bench_file.read_text()) if bench_file.exists() else []
    runs = {"parent": [], "change": []}

    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        parent_tree = Path(tmp) / "tree"
        try:
            git("worktree", "add", "--detach", str(parent_tree), args.parent, cwd=root)
            trees = {"parent": parent_tree, "change": root}
            commits = {k: commit_of(t) for k, t in trees.items()}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for place, side in zip(("first", "second"), order):
                    run = bench_run(trees[side], args.workload, args.seed)
                    runs[side].append(run)
                    entries.append({
                        "commit": commits[side], "command": run["command"],
                        "pair": f"{i + 1} of {args.pairs}, {place}",
                        "context_line": run["context_line"], "result_line": run["result_line"],
                    })
                    # written after every run, so that a failed run keeps the ones before it
                    bench_file.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
                    metrics = run["result_line"]["metrics"]
                    print(f"pair {i + 1} {side}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in metrics.items()),
                          flush=True)
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
            return 1
        except (RuntimeError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)], cwd=root, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)

    print(f"{args.workload}, seed {args.seed}: parent {commits['parent']}, change {commits['change']}")
    for line in report(runs, spec["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
