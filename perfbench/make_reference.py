"""Regenerate reference.json: the check digests of the first deck of
every workload at the committed seed (run.REFERENCE_SEED).

Run from the root of a checkout whose outputs are trusted:

    python3 perfbench/make_reference.py
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    import jobs

    reference = {}
    tmp = run.ROOT / ".bench_tmp" / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        for name, workload in jobs.WORKLOADS.items():
            digests = []
            for job in workload.deck(jobs.deck_rng(name, run.REFERENCE_SEED)):
                problems, digest = workload.check(job, workload.run(job, tmp))
                if problems:
                    print(f"{name}: {job.spec!r:.200}: {problems}", file=sys.stderr)
                    return 1
                digests.append(digest)
            reference[name] = digests
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # one job per line keeps the file small and its diffs readable
    text = ",\n".join(
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(d) for d in digests) + "\n]"
        for name, digests in reference.items()
    )
    (run.HERE / "reference.json").write_text("{\n" + text + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
