"""The benchmark's reference digests, recomputed by the tier-1 suite.

perfbench/golden.json holds sha256 digests of two engine ensembles (plain
and with decomposition fields) and of the README check-all report's bytes.
perfbench/workloads.py recomputes them; importing it here, on the path
that perfbench/golden.py uses, makes a changed trajectory bit or report
byte fail the test suite, not only a benchmark run.  No benchmark file is
written.

golden_report.json next to this file is the README report those bytes
hash to, so a moved report field is named by its JSON path, not only seen
as a changed digest.
"""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
for path in (PERFBENCH.parent / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402

STORED_REPORT = pathlib.Path(__file__).with_name("golden_report.json")
_MISSING = object()


def json_diff(got, want, path: str = "$") -> list:
    """The JSON paths at which got and want differ, in sorted key order.

    A value differs if it is unequal or of another type (1 and 1.0 are
    different report bytes); lists of unequal length differ as a whole.
    """
    if isinstance(got, dict) and isinstance(want, dict):
        return [p for key in sorted(got.keys() | want.keys())
                for p in json_diff(got.get(key, _MISSING), want.get(key, _MISSING),
                                   f"{path}.{key}")]
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [p for i, (a, b) in enumerate(zip(got, want))
                for p in json_diff(a, b, f"{path}[{i}]")]
    return [] if type(got) is type(want) and got == want else [path]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The recomputed digests and the README report that CheckAll.reference wrote."""
    workdir = tmp_path_factory.mktemp("golden")
    got = {"ensemble": workloads.Ensemble.reference(str(workdir)),
           "check_all": workloads.CheckAll.reference(str(workdir))}
    return got, json.loads((workdir / "reference.report.json").read_bytes())


def test_reference_digests_match_golden(reference):
    assert reference[0] == workloads.load_golden()


def test_stored_report_hashes_to_the_pinned_digest():
    digest = hashlib.sha256(STORED_REPORT.read_bytes()).hexdigest()
    assert digest == workloads.load_golden()["check_all"]["report"]


def test_readme_report_matches_the_stored_one_field_by_field(reference):
    assert json_diff(reference[1], json.loads(STORED_REPORT.read_bytes())) == []


def test_readme_report_is_the_stored_one_at_one_blas_thread(tmp_path):
    # the reference above runs in this process, at the default thread count
    config = tmp_path / "readme.json"
    config.write_text(json.dumps(workloads.README_CONFIG))
    out = tmp_path / "report.json"
    path = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "bistoch.cli", "check-all",
                           "--config", str(config), "-o", str(out)],
                          env=env, capture_output=True, text=True)
    stored = STORED_REPORT.read_bytes()
    assert done.returncode == (0 if json.loads(stored)["passed"] else 1), done.stderr
    assert out.read_bytes() == stored


def test_a_moved_field_is_named_by_its_path():
    want = json.loads(STORED_REPORT.read_bytes())
    got = copy.deepcopy(want)
    got["checks"]["clt"]["attempts"][1]["slope"] += 1e-12
    got["checks"]["bounds"]["lower"][0][1] = 0  # an int where the report has 0.0
    del got["config_hash"]
    assert json_diff(got, want) == ["$.checks.bounds.lower[0][1]",
                                    "$.checks.clt.attempts[1].slope",
                                    "$.config_hash"]
