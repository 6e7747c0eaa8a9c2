"""Byte pins on the outputs that a refactor must leave unchanged.

Each test hashes one output with sha256.  A change that alters these bytes on
purpose updates the pin and records the old and the new digest in
CHANGES.md; any other change must leave them as they are.
"""

import hashlib
from pathlib import Path

import pytest

import willmore
from willmore.cli import main
from willmore.potentials import load_potential
from willmore.verify import run_suite

DATA = Path(willmore.__file__).parent / "data"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


VERIFY_REPORTS = {
    1: "29ae008d5d97421ff9d0f0316729e4471f2333fc1c686d2978f1e9579c430ddd",
    2: "ced603f11e9bb886996487704aedf54e3de1a3d679653332a284d91e2c61eb80",
}


@pytest.mark.parametrize("example", sorted(VERIFY_REPORTS))
def test_verify_report_bytes_are_pinned(example):
    """The default-plan verify report of a shipped example, without timing.

    A legitimate change to these bytes updates the pin and logs both digests
    in CHANGES.md.
    """
    doc = load_potential(DATA / ("example%d.json" % example))
    report = run_suite(doc).to_json(include_timing=False)
    assert _sha256(report.encode()) == VERIFY_REPORTS[example]


def test_example_mesh_bytes_are_pinned(tmp_path):
    """mesh.csv and comparison.json of `willmore example --id 1 --grid-n 32`.

    A legitimate change to these bytes updates the pin and logs both digests
    in CHANGES.md.
    """
    assert main(["example", "--id", "1", "--grid-n", "32", "--out", str(tmp_path)]) == 0
    assert _sha256((tmp_path / "mesh.csv").read_bytes()) == (
        "93ac5b11a450dc6b82d81b345fa19b7428e2a7938be2e04ba33fd78fb4405366")
    assert _sha256((tmp_path / "comparison.json").read_bytes()) == (
        "d0510bd92bb6d1b18a560f5f4332ff31cd975f0e43aecc4616cf6b049cbd3c67")


def test_bench_mesh_bytes_are_pinned(tmp_path):
    """mesh.csv and comparison.json of the seed-7 mesh-ex1 bench run,
    `willmore example --id 1 --grid-n 32 --lambda cis:8/10`: a non-real
    lambda, which the lambda = 1 pin above cannot see bound.

    A legitimate change to these bytes updates the pin and logs both digests
    in CHANGES.md.
    """
    assert main(["example", "--id", "1", "--grid-n", "32", "--lambda", "cis:8/10",
                 "--out", str(tmp_path)]) == 0
    assert _sha256((tmp_path / "mesh.csv").read_bytes()) == (
        "2861eb6127f0dc83bda4484e5a6658f471b020405bcb1ccb1109444a8aa3073b")
    assert _sha256((tmp_path / "comparison.json").read_bytes()) == (
        "ccce318e3af78b010f238a4394614448e99ba397581737b022a67124f5babd52")
