"""Record the seed-0 result digests that run.py checks reports against.

    python3 bench/golden.py

Runs one sweep of every workload at seed 0, checks each report against
its ground truth, and writes the sha256 of each op's ``result`` section
(in sweep order) to ``golden_seed0.json``.  Rerun it only when a change
to the reports is intended; the file pins the CLI's byte-identical
output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    golden = {}
    for name in sorted(workloads.WORKLOADS):
        workdir = tempfile.mkdtemp(prefix="golden-", dir=os.path.join(run.ROOT, ".bench_work"))
        try:
            cli, ops, argvs = run.setup(name, 0, workdir)
            records = run.closed_loop(cli, argvs, 0.0, run.Clock())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        failed, problems, digests = run.verify(ops, records, name, None)
        if failed or problems or len(digests) != len(ops):
            for label, msg in sorted(problems.items()):
                print(f"FAILED {label}: {msg}", file=sys.stderr)
            return 1
        golden[name] = [digests[i] for i in range(len(ops))]
        print(f"{name}: {len(ops)} ops")
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
