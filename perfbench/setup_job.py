"""One set-up sample in a fresh interpreter: import ``deltawell.cli``
(which pulls in numpy and scipy), then run the workload's minimal jobs.

Usage: python3 perfbench/setup_job.py WORKLOAD TMPDIR
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import deltawell.cli  # noqa: E402,F401

import jobs  # noqa: E402

workload = jobs.WORKLOADS[sys.argv[1]]
for job in workload.minimal():
    out = workload.run(job, Path(sys.argv[2]))
    if getattr(out, "code", 0) != 0:
        sys.exit(f"minimal job {job.spec} exited with {out.code}")
