"""Record the reference that run.py checks identity reports against.

    python3 perfbench/record.py

Run from the repository root, at the commit whose outputs are the
reference. Writes ``perfbench/reference/{hop_sums,multi_level}.json``:
for each identity report, the identity, params, status, K_used and
digests of the exact lhs and partial sum (and, on multi_level, the
command's exit code).
"""

import json
import os
import sys
import time

from run import HERE, spawn


def main() -> int:
    for workload in ("hop_sums", "multi_level"):
        _, job = spawn(workload, 0, "run", time.perf_counter() + 600)
        records = job["records"]
        wrong = [
            key for key, status in job.get("expected", {}).items()
            if records[key]["status"] != status
        ]
        if wrong:
            print(f"error: {workload}: unexpected status of {wrong}",
                  file=sys.stderr)
            return 1
        path = os.path.join(HERE, "reference", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        lines = [
            f"{json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
            for key, rec in sorted(records.items())
        ]
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"{path}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
