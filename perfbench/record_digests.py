"""Record the report digests the benchmark checks its ops against.

    python3 perfbench/record_digests.py

Runs the first ops of every workload at the recorded seed and writes their
report digests to perfbench/digests.json. Rerun it only when a change alters
a report on purpose and says so; otherwise a digest mismatch is a failed op.
"""

import json
import os
import sys

import workloads
from run import ROOT, import_package


def main() -> int:
    os.chdir(ROOT)
    package = import_package()
    os.makedirs(os.path.join("perfbench", "_work"), exist_ok=True)
    digests = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(package)
        digests[name] = []
        for i in range(max(2, cls.cycle)):
            result = workload.op(workloads.op_seed(workloads.RECORDED_SEED, i), i)
            if not workload.check(result):
                print(f"error: {name} op {i} fails its check; not recording", file=sys.stderr)
                return 1
            digests[name].append(workload.digest(result))
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
