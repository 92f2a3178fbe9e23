"""Record the reference output digests in golden.json.

    python3 perfbench/golden.py

Each run of the benchmark recomputes these digests and counts a mismatch as
a failed operation, so any change to a trajectory bit or a report byte shows.
Rerun this only for a change meant to alter those outputs, and say so.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="golden-", dir=HERE)
    try:
        golden = {name: workloads.WORKLOADS[name].reference(workdir)
                  for name in ("ensemble", "check_all")}
    finally:
        shutil.rmtree(workdir)
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(golden, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
