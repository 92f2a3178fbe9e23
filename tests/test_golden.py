"""The benchmark's reference digests, recomputed by the tier-1 suite.

perfbench/golden.json holds sha256 digests of two engine ensembles (plain
and with decomposition fields) and of the README check-all report's bytes.
perfbench/workloads.py recomputes them; importing it here, on the path
that perfbench/golden.py uses, makes a changed trajectory bit or report
byte fail the test suite, not only a benchmark run.  No benchmark file is
written.
"""

import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
for path in (PERFBENCH.parent / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402


def test_reference_digests_match_golden(tmp_path):
    got = {"ensemble": workloads.Ensemble.reference(str(tmp_path)),
           "check_all": workloads.CheckAll.reference(str(tmp_path))}
    assert got == workloads.load_golden()
