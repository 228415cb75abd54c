"""Reports stay byte-identical to the ones bench/reference.json records.

Every fixture goes through the five solvers and `verify`, and so does
entry 0 of every size class of every benchmark workload; each report's
sha256 is compared with the reference under the benchmark harness's key
sha256(input)[:16]/subcommand.  Reports are written under tmp_path only.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import harness  # noqa: E402
import workloads  # noqa: E402

import dulac.cli  # noqa: E402,F401  (harness.call runs the loaded module's main)

REFERENCE = harness.load_reference()["ops"]

FIXTURE_CASES = [
    pytest.param(path, sub, id=f"{Path(path).stem}/{sub}")
    for path, sub in harness.fixture_inputs(harness.Checkout(str(ROOT)))
]
CATALOGUE_CASES = [
    pytest.param(op.system, op.subcommand, id=op.key)
    for name, classes in workloads.WORKLOADS.items()
    for op in (workloads.catalogue_entry(name, klass, 0) for klass in classes)
]


@pytest.fixture
def checkout(tmp_path):
    co = harness.Checkout(str(ROOT))
    co.work = str(tmp_path)
    return co


@pytest.mark.parametrize("source,sub", FIXTURE_CASES + CATALOGUE_CASES)
def test_report_matches_reference(checkout, source, sub):
    path = source
    if isinstance(source, dict):
        path = checkout.path("input.json")
        harness.write_input(path, source)
    expected = REFERENCE.get(harness.input_key(path, sub))
    assert expected is not None
    out = harness.check(checkout, harness.round_trip(checkout, path, sub), expected)
    assert out.problems == []
