"""Byte pins on the outputs that a refactor must leave unchanged.

Each test hashes one output with sha256.  A change that alters these bytes on
purpose updates the pin and records the old and the new digest in
CHANGES.md; any other change must leave them as they are.
"""

import hashlib
import os
import subprocess
import sys
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
        "5e564112f9323010c228f81540bf7c5d9bc5f349d22c28ee3ddea8f1f9f4ea0b")
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
        "a76cea406596f1dc988637e9204735a80a73d4752b57cc0efe48c9554e7851dc")
    assert _sha256((tmp_path / "comparison.json").read_bytes()) == (
        "ccce318e3af78b010f238a4394614448e99ba397581737b022a67124f5babd52")


# The digests of the pin above, for the same run through the entry point.
BENCH_MESH = {
    "mesh.csv": "a76cea406596f1dc988637e9204735a80a73d4752b57cc0efe48c9554e7851dc",
    "comparison.json": "ccce318e3af78b010f238a4394614448e99ba397581737b022a67124f5babd52",
}
BENCH_ARGV = ["example", "--id", "1", "--grid-n", "32", "--lambda", "cis:8/10"]


def test_entry_point_mesh_bytes_and_lines_are_pinned(tmp_path):
    """The bench run through `python -m willmore.cli` with stdout piped, so
    block-buffered: the pinned bytes, and each `wrote` line printed once.
    The second run leaves a line in the buffer before the mesh workers fork,
    so a worker that flushed the parent's buffer would print it twice."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(willmore.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    buffered = ("import sys; from willmore.cli import main; print('buffered');"
                " sys.exit(main(sys.argv[1:]))")
    for k, (command, head) in enumerate(((["-m", "willmore.cli"], []),
                                         (["-c", buffered], ["buffered"]))):
        out = tmp_path / str(k)
        proc = subprocess.run([sys.executable, *command, *BENCH_ARGV, "--out", str(out)],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        for name, digest in BENCH_MESH.items():
            assert _sha256((out / name).read_bytes()) == digest, name
        assert [line.split(" (")[0] for line in proc.stdout.splitlines()] == head + [
            "wrote %s" % (out / name) for name in ("mesh.csv", "comparison.json")]
