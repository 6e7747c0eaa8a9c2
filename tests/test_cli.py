"""Command-line behavior: file outputs, exit codes, and flag parsing."""

import argparse
import csv
import hashlib
import json
import warnings

import pytest

from willmore.cli import _parse_lambda, build_parser, main
from willmore.potentials import (
    PotentialDocument,
    builtin_potential,
    document_for,
    save_potential,
)
from willmore.scalars import BiPoly


def _run(*argv):
    return main(list(argv))


def test_example_writes_mesh_and_comparison(tmp_path):
    out = tmp_path / "ex2"
    rc = _run("example", "--id", "2", "--grid-n", "4", "--radius", "0.8",
              "--out", str(out))
    assert rc == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    assert len(rows) == 1 + 4 * 4
    assert list(rows[0])[:2] == ["re_z", "im_z"]
    assert "yz_sq" in rows[0] and "singular" in rows[0]
    rep = json.load(open(out / "comparison.json"))
    assert rep["max_projective_distance"] < 1e-9
    assert rep["compared_vertices"] == len(rows)


def test_synth_reproduces_example_byte_for_byte(tmp_path):
    ex_out = tmp_path / "via_example"
    sy_out = tmp_path / "via_synth"
    pot_path = tmp_path / "pot.json"
    save_potential(document_for(builtin_potential(1)), pot_path)
    assert _run("example", "--id", "1", "--grid-n", "4", "--radius", "0.7",
                "--out", str(ex_out)) == 0
    assert _run("synth", "--potential", str(pot_path), "--grid-n", "4",
                "--radius", "0.7", "--out", str(sy_out)) == 0
    assert (ex_out / "mesh.csv").read_bytes() == (sy_out / "mesh.csv").read_bytes()


def test_obj_export_for_m_equals_2(tmp_path):
    out = tmp_path / "obj"
    pot_path = tmp_path / "pot.json"
    save_potential(document_for(builtin_potential(2)), pot_path)
    rc = _run("synth", "--potential", str(pot_path), "--grid-n", "4",
              "--radius", "0.6", "--out", str(out), "--format", "obj")
    assert rc == 0
    lines = (out / "mesh.obj").read_text().splitlines()
    assert lines[0].startswith("#") and "lossy" in lines[0]
    v = [l for l in lines if l.startswith("v ")]
    f = [l for l in lines if l.startswith("f ")]
    assert len(v) == 1 + 4 * 4
    assert f, "no faces emitted"
    for face in f:
        idx = [int(t) for t in face.split()[1:]]
        assert all(1 <= k <= len(v) for k in idx)


def test_obj_export_rejected_for_other_m(tmp_path):
    out = tmp_path / "obj3"
    pot_path = tmp_path / "pot.json"
    save_potential(document_for(builtin_potential(1)), pot_path)
    rc = _run("synth", "--potential", str(pot_path), "--grid-n", "3",
              "--radius", "0.5", "--out", str(out), "--format", "obj")
    assert rc == 1


def test_verify_exit_codes(tmp_path):
    pot_path = tmp_path / "pot.json"
    save_potential(document_for(builtin_potential(2)), pot_path)
    report_path = tmp_path / "report.json"
    rc = _run("verify", "--potential", str(pot_path), "--samples", "5",
              "--report", str(report_path))
    assert rc == 0
    rep = json.load(open(report_path))
    assert rep["passed"] is True

    pot = builtin_potential(2)
    rows = [list(r) for r in pot.b1hat()]
    rows[0][0] = rows[0][0] + BiPoly.var_z()
    bad = PotentialDocument(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
    bad_path = tmp_path / "bad.json"
    save_potential(bad, bad_path)
    rc = _run("verify", "--potential", str(bad_path), "--samples", "5",
              "--report", str(report_path))
    assert rc == 1
    rep = json.load(open(report_path))
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert failed == ["potential-isotropy"]


def test_parse_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"m": 1,\n "h": [,]}\n')
    assert _run("verify", "--potential", str(broken)) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert _run("verify", "--potential", str(tmp_path / "missing.json")) == 2
    # synthesizing from an inconsistent override refuses with a parse error
    pot = builtin_potential(2)
    rows = [list(r) for r in pot.b1hat()]
    rows[0][0] = rows[0][0] + BiPoly.var_z()
    bad = PotentialDocument(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
    bad_path = tmp_path / "bad.json"
    save_potential(bad, bad_path)
    assert _run("synth", "--potential", str(bad_path),
                "--out", str(tmp_path / "o")) == 2
    # JSON's non-finite numbers are refused by name, not raised from Fraction
    for value in ("NaN", "Infinity"):
        nonfinite = tmp_path / ("%s.json" % value)
        nonfinite.write_text('{"m": 1, "h": [[[%s, 0]]], "hhat": [[["1", "0"]]]}' % value)
        assert _run("verify", "--potential", str(nonfinite)) == 2
        assert "non-finite number" in capsys.readouterr().err
    # negative sample counts and empty grids are refused by argparse
    for argv in (("verify", "--potential", str(broken), "--samples", "-3"),
                 ("example", "--id", "1", "--grid-n", "0", "--out", str(tmp_path / "g"))):
        with pytest.raises(SystemExit) as exc:
            _run(*argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_huge_finite_coefficient_flags_samples_without_a_traceback(tmp_path, capsys):
    # 1e200 in h takes the frame's float coefficients past the float range;
    # they become infinities, and the Gram check flags every sample
    path = tmp_path / "huge.json"
    path.write_text('{"m": 2, "h": [[["0", "1e200"]], [["0", "-1/2"]]],'
                    ' "hhat": [[["0", "1/2"]], [["0", "1/2"]]]}')
    assert _run("synth", "--potential", str(path), "--grid-n", "2",
                "--out", str(tmp_path / "o")) == 0
    out, err = capsys.readouterr()
    assert "(5 vertices, 5 singular: SingularLocus 5)" in out and "Traceback" not in err
    report = tmp_path / "report.json"
    assert _run("verify", "--potential", str(path), "--report", str(report)) == 1
    out, err = capsys.readouterr()
    assert "verification FAILED" in out and "Traceback" not in err
    assert json.loads(report.read_text())["passed"] is False


@pytest.mark.parametrize("text", ["cis:1/0", "1/0", "1/0i"])
def test_lambda_with_a_zero_denominator_exits_2(text, tmp_path, capsys):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_lambda(text)
    with pytest.raises(SystemExit) as exc:
        _run("example", "--id", "1", "--lambda", text, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "argument --lambda" in capsys.readouterr().err


def test_lambda_flag_accepts_exact_unit_values():
    assert _parse_lambda("1") == 1 + 0j
    assert _parse_lambda("i") == 1j
    assert _parse_lambda("-i") == -1j
    assert abs(_parse_lambda("3/5+4/5i") - complex(0.6, 0.8)) < 1e-15
    got = _parse_lambda("cis:1/4")
    assert abs(got - complex(2 ** -0.5, 2 ** -0.5)) < 1e-15
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_lambda("2")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_lambda("1/2+1/2i")


def test_rational_radius_flag(tmp_path):
    out = tmp_path / "rq"
    rc = _run("example", "--id", "2", "--grid-n", "3", "--radius", "4/5",
              "--out", str(out))
    assert rc == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    radii = [complex(float(r["re_z"]), float(r["im_z"])) for r in rows]
    assert max(abs(z) for z in radii) == pytest.approx(0.8)


def test_parser_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_singular_vertices_flagged_not_fatal(tmp_path):
    from willmore.surfaces import reference_singular_radius

    out = tmp_path / "sing"
    rc = _run("example", "--id", "1", "--grid-n", "3",
              "--radius", repr(reference_singular_radius(1)), "--out", str(out))
    assert rc == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    flagged = [r for r in rows if r["singular"] == "1"]
    assert flagged, "expected vertices on the degenerate circle to be flagged"
    for r in flagged:
        assert r["Y0"] == "nan"
    rep = json.load(open(out / "comparison.json"))
    assert rep["skipped_vertices"] >= len(flagged)
    assert rep["max_projective_distance"] < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_vertices_flagged_not_fatal(tmp_path, capsys):
    # from |z| ~ 1e52 the example-1 Gram matrix is not finite: the ring
    # vertices fail one by one, the centre does not
    out = tmp_path / "far"
    assert _run("example", "--id", "1", "--grid-n", "2", "--radius", "1e60",
                "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    assert [r["singular"] for r in rows] == ["0", "1", "1", "1", "1"]
    assert "4 singular: SingularLocus 4" in capsys.readouterr().out


@pytest.mark.parametrize("offset,stencil_only", [(0.0, 0), (2.8e-4, 3)])
def test_block_singular_flags_match_scalar_evaluation(tmp_path, capsys, offset, stencil_only):
    """A polar grid whose fourth ring lies on the example-1 degeneracy circle,
    or just off it where some vertices fail only through a metric stencil
    sample; 26 vertices, not a multiple of the block size.  Each vertex's flag
    is the one that evaluating it and its stencil one sample at a time gives."""
    from collections import Counter

    import numpy as np

    from willmore.cli import _BLOCK, _grid_points
    from willmore.frames import integrate_frame
    from willmore.potentials import to_nilpotent
    from willmore.surfaces import SurfacePair, induced_metric, reference_singular_radius

    radius = repr(1.25 * reference_singular_radius(1) * (1 + offset))
    out = tmp_path / "straddle"
    assert _run("example", "--id", "1", "--grid-n", "5", "--radius", radius,
                "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    pts = _grid_points("polar", 5, float(radius))
    assert len(rows) == len(pts) == 26 and len(pts) % _BLOCK

    hf = integrate_frame(to_nilpotent(builtin_potential(1)))
    pair = SurfacePair(hf.m, 1.0, hf)
    metric_y = induced_metric(pair, "Y")
    metric_yhat = induced_metric(pair, "Yhat")
    reasons = Counter()
    flagged_by_stencil = 0
    for z, row in zip(pts, rows):
        (Y,), _, (e,) = pair.values(np.array([z]))
        if e is not None:
            reasons[type(e).__name__] += 1
            assert row["singular"] == "1", z
            continue
        (my,), (e,) = metric_y(np.array([z]))
        e = e or metric_yhat(np.array([z]))[1][0]
        if e is not None:
            reasons[type(e).__name__] += 1
            flagged_by_stencil += 1
            assert row["singular"] == "1", z
            continue
        assert row["singular"] == "0", z
        assert [row["Y%d" % k] for k in range(8)] == [repr(float(v)) for v in Y]
        assert row["yz_sq"] == repr(float(my))
    assert sum(reasons.values()) >= 4 and flagged_by_stencil == stencil_only
    summary = ", ".join("%s %d" % kv for kv in sorted(reasons.items()))
    assert "(26 vertices, %d singular: %s)" % (sum(reasons.values()), summary) \
        in capsys.readouterr().out


def test_far_out_vertices_fail_without_runtime_warnings(tmp_path):
    # The Gram matrix overflows from |z| ~ 1e52; those vertices fail with
    # SingularLocus and no arithmetic runs on their overflowed values.  The
    # digests are the files as written before that arithmetic was skipped.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("example", "--id", "1", "--grid-n", "2", "--radius", "1e60",
                    "--out", str(tmp_path)) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("mesh.csv", "comparison.json")}
    assert digests == {
        "mesh.csv": "bbe6ad48677408c2ffdd98c1ffd9c3ce81b11a1c646b400e7ec65ac1a9a41734",
        "comparison.json": "91302673779a52358dddc9d6dc3cc2eed3d02a5ca28bf623b8d25af996ec426c",
    }
