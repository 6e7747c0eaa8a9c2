"""Command-line behavior: file outputs, exit codes, and flag parsing."""

import argparse
import csv
import hashlib
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import willmore
from willmore.cli import _parse_lambda, build_parser, main
from willmore.potentials import (
    NormalizedPotential,
    builtin_potential,
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
    save_potential(builtin_potential(1), pot_path)
    assert _run("example", "--id", "1", "--grid-n", "4", "--radius", "0.7",
                "--out", str(ex_out)) == 0
    assert _run("synth", "--potential", str(pot_path), "--grid-n", "4",
                "--radius", "0.7", "--out", str(sy_out)) == 0
    assert (ex_out / "mesh.csv").read_bytes() == (sy_out / "mesh.csv").read_bytes()


def test_obj_export_for_m_equals_2(tmp_path):
    pot_path = tmp_path / "pot.json"
    save_potential(builtin_potential(2), pot_path)
    n = 4
    # (grid, vertices, most faces): a polar grid has a centre and n rings of
    # n, a cartesian one n x n vertices
    for grid, vertices, faces in (("polar", 1 + n * n, n * (2 * n - 1)),
                                  ("cartesian", n * n, 2 * (n - 1) ** 2)):
        out = tmp_path / grid
        rc = _run("synth", "--potential", str(pot_path), "--grid-n", str(n),
                  "--radius", "0.6", "--out", str(out), "--format", "obj",
                  "--grid", grid)
        assert rc == 0
        lines = (out / "mesh.obj").read_text().splitlines()
        assert lines[0].startswith("#") and "lossy" in lines[0]
        v = [l for l in lines if l.startswith("v ")]
        f = [l for l in lines if l.startswith("f ")]
        assert len(v) == vertices
        assert f, "no faces emitted"
        assert len(f) <= faces
        for face in f:
            idx = [int(t) for t in face.split()[1:]]
            assert all(1 <= k <= len(v) for k in idx)


def test_obj_export_rejected_for_other_m(tmp_path):
    out = tmp_path / "obj3"
    pot_path = tmp_path / "pot.json"
    save_potential(builtin_potential(1), pot_path)
    rc = _run("synth", "--potential", str(pot_path), "--grid-n", "3",
              "--radius", "0.5", "--out", str(out), "--format", "obj")
    assert rc == 1
    # refused before any mesh work
    assert not (out / "mesh.csv").exists()


def test_verify_exit_codes(tmp_path):
    pot_path = tmp_path / "pot.json"
    save_potential(builtin_potential(2), pot_path)
    report_path = tmp_path / "report.json"
    rc = _run("verify", "--potential", str(pot_path), "--samples", "5",
              "--report", str(report_path))
    assert rc == 0
    rep = json.load(open(report_path))
    assert rep["passed"] is True

    pot = builtin_potential(2)
    rows = [list(r) for r in pot.b1hat()]
    rows[0][0] = rows[0][0] + BiPoly.var_z()
    bad = NormalizedPotential(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
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
    bad = NormalizedPotential(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
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
    # text that is not UTF-8, an integer past Python's int-string digit
    # limit, and a rational that cannot be written back as decimal text
    unreadable = tmp_path / "unreadable.json"
    unreadable.write_bytes(b'\xff\xfe{"m": 1}')
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"m": 1, "h": [[[%s, 0]]], "hhat": [[["1", "0"]]]}' % ("1" * 5000))
    huge = tmp_path / "huge.json"
    huge.write_text('{"m": 1, "h": [[["1e4400", "0"]]], "hhat": [[["1", "0"]]]}')
    for path in (unreadable, long_int, huge):
        assert _run("verify", "--potential", str(path)) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
    assert _run("synth", "--potential", str(huge), "--grid-n", "2",
                "--out", str(tmp_path / "h")) == 2
    assert "cannot be written back" in capsys.readouterr().err
    # negative sample counts and empty grids are refused by argparse
    for argv in (("verify", "--potential", str(broken), "--samples", "-3"),
                 ("example", "--id", "1", "--grid-n", "0", "--out", str(tmp_path / "g"))):
        with pytest.raises(SystemExit) as exc:
            _run(*argv)
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err


def test_huge_finite_coefficient_flags_samples_without_a_traceback(tmp_path, capsys):
    # 1e200 in h takes the frame's float coefficients past the float range;
    # they become infinities, and the Gram check flags every sample
    path = tmp_path / "huge.json"
    path.write_text('{"m": 2, "h": [[["0", "1e200"]], [["0", "-1/2"]]],'
                    ' "hhat": [[["0", "1/2"]], [["0", "1/2"]]]}')
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("synth", "--potential", str(path), "--grid-n", "2",
                    "--out", str(tmp_path / "o")) == 0
        out, err = capsys.readouterr()
        assert "(5 vertices, 5 singular: SingularLocus 5)" in out and "Traceback" not in err
        assert _run("verify", "--potential", str(path), "--report", str(report)) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    out, err = capsys.readouterr()
    assert "verification FAILED" in out and "Traceback" not in err
    assert json.loads(report.read_text())["passed"] is False


@pytest.mark.parametrize("text", ["cis:1/0", "1/0", "1/0i", "cis:1e400", "1e400", "1e400i"])
def test_lambda_with_a_zero_denominator_exits_2(text, tmp_path, capsys):
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_lambda(text)
    with pytest.raises(SystemExit) as exc:
        _run("example", "--id", "1", "--lambda", text, "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "argument --lambda" in capsys.readouterr().err


@pytest.mark.parametrize("flag,text,rational", [
    ("--radius", "1e999999999", "1e999999999"),
    ("--radius", "1e-1000000", "1e-1000000"),
    ("--lambda", "cis:1E+10000000", "1E+10000000"),
    ("--lambda", "1+1e-1_000_000i", "1e-1_000_000"),
])
def test_a_long_decimal_exponent_is_refused_before_it_is_expanded(flag, text, rational,
                                                                  tmp_path, capsys):
    # Fraction would build 10**|exponent| first: seconds at seven digits,
    # hours at nine
    import time

    from willmore.cli import _parse_real

    started = time.perf_counter()
    with pytest.raises(argparse.ArgumentTypeError, match="at most 6 digits"):
        _parse_real(rational)
    with pytest.raises(SystemExit) as exc:
        _run("example", "--id", "1", flag, text, "--out", str(tmp_path))
    assert time.perf_counter() - started < 1.0
    assert exc.value.code == 2
    assert "argument %s" % flag in capsys.readouterr().err


def test_exponents_of_up_to_six_digits_keep_their_values():
    from fractions import Fraction

    from willmore.cli import _parse_real

    for text in ("1e-3", "2.5E+0_1", "1e0000000001", "-3e-0000007", "1e-999999", "7/2"):
        assert _parse_real(text) == float(Fraction(text)), text
    with pytest.raises(argparse.ArgumentTypeError, match="too large"):
        _parse_real("1e999999")


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
    # a+bi is never split at the sign of a decimal exponent
    assert _parse_lambda("0.6-8e-1i") == complex(0.6, -0.8)
    assert _parse_lambda("6e-1+8E-1i") == complex(0.6, 0.8)
    assert _parse_lambda("1e-0i") == 1j


def test_rational_radius_flag(tmp_path):
    out = tmp_path / "rq"
    rc = _run("example", "--id", "2", "--grid-n", "3", "--radius", "4/5",
              "--out", str(out))
    assert rc == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    radii = [complex(float(r["re_z"]), float(r["im_z"])) for r in rows]
    assert max(abs(z) for z in radii) == pytest.approx(0.8)


@pytest.mark.parametrize("command", ["example", "verify"])
@pytest.mark.parametrize("text", ["0", "1e400"])
def test_radius_flag_rejects_zero_and_overflow(command, text, tmp_path, capsys):
    # 1e400 is a rational whose float overflows: a usage error, not a traceback
    where = ["--id", "1", "--out", str(tmp_path)] if command == "example" else [
        "--potential", str(tmp_path / "p.json")]
    with pytest.raises(SystemExit) as exc:
        _run(command, *where, "--radius", text)
    assert exc.value.code == 2
    assert "argument --radius" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol", "--tol-fd"])
@pytest.mark.parametrize("text", ["inf", "nan", "-1e-6"])
def test_tolerance_flags_take_finite_non_negative_rationals(flag, text, tmp_path, capsys):
    # an infinite tolerance would pass a check that raised, and NaN is not JSON
    with pytest.raises(SystemExit) as exc:
        _run("verify", "--potential", str(tmp_path / "p.json"), "--samples", "0",
             "%s=%s" % (flag, text))
    assert exc.value.code == 2
    assert "argument %s" % flag in capsys.readouterr().err


def test_a_value_that_starts_with_a_minus_may_follow_its_flag(tmp_path, capsys):
    # argparse reads "-i" or "-1e-6" as an option unless it is joined to its flag
    for text in ("-i", "-0.6+0.8i"):
        spaced, joined = tmp_path / ("spaced" + text), tmp_path / ("joined" + text)
        assert _run("example", "--id", "1", "--grid-n", "2", "--lambda", text,
                    "--out", str(spaced)) == 0
        assert _run("example", "--id", "1", "--grid-n", "2", "--lambda=" + text,
                    "--out", str(joined)) == 0
        for name in ("mesh.csv", "comparison.json"):
            assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    for flag in ("--tol", "--tol-fd"):
        with pytest.raises(SystemExit) as exc:
            _run("verify", "--potential", str(tmp_path / "p.json"), flag, "-1e-6")
        assert exc.value.code == 2
        assert "argument %s: tolerance must be non-negative" % flag in capsys.readouterr().err
    for flag in ("--lambda", "--lam"):
        args = build_parser().parse_args(["example", "--id", "1", flag, "-i", "--out", "d"])
        assert args.lam == -1j and args.out == "d"
    # a word that starts with "--" is the next flag, not a value
    with pytest.raises(SystemExit):
        build_parser().parse_args(["example", "--id", "1", "--lambda", "--out", "d"])
    assert "argument --lambda: expected one argument" in capsys.readouterr().err


def test_a_negative_seed_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    save_potential(builtin_potential(1), path)
    with pytest.raises(SystemExit) as exc:
        _run("verify", "--potential", str(path), "--seed", "-1")
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


def test_tolerance_flags_take_rationals():
    args = build_parser().parse_args(["verify", "--potential", "p.json",
                                      "--tol", "1/10", "--tol-fd", "0"])
    assert (args.tol, args.tol_fd) == (0.1, 0.0)


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


def test_overflowing_vertices_flagged_not_fatal(tmp_path, capsys):
    # from |z| ~ 1e52 the example-1 Gram matrix is not finite: the ring
    # vertices fail one by one, the centre does not
    out = tmp_path / "far"
    assert _run("example", "--id", "1", "--grid-n", "2", "--radius", "1e60",
                "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    assert [r["singular"] for r in rows] == ["0", "1", "1", "1", "1"]
    assert "4 singular: SingularLocus 4" in capsys.readouterr().out


def _exact_factors(example_id, pair2):
    """The exact conformal factors of y and yhat: the printed ones, and for
    example 2's yhat, which has none printed, the exact pair's, reduced: it
    has the exact value of the unreduced quotient, which evaluate rounds
    once, and takes a fraction of its time to evaluate."""
    from willmore.surfaces import induced_metric, reference_metric

    if example_id == 1:
        return reference_metric(1, "Y"), reference_metric(1, "Yhat")
    return reference_metric(2, "Y"), induced_metric(pair2, "Yhat").reduced()


def _factor_errors(hf, zs, got, exact):
    """Relative errors of float factors got at zs against the exact factor,
    each over its tolerance: 1e-11, widened to 1e-15 cond(rho) near the
    degeneracy circle.  There the closed-form factor moves by up to about
    2e-16 cond(rho) relative when f and g change by one rounding."""
    import numpy as np

    from willmore.iwasawa import _eval_mat, gram_float

    z = np.array(zs, dtype=complex)
    want = np.array([exact.evaluate(x).real for x in zs])
    cond = np.linalg.cond(gram_float(_eval_mat(hf.f, z), _eval_mat(hf.g, z)))
    return np.abs(np.asarray(got) - want) / want / np.maximum(1e-11, 1e-15 * cond)


@pytest.mark.parametrize("lam", ["1", "cis:8/10"])
def test_mesh_conformal_factors_match_the_exact_ones(tmp_path, pair2, lam):
    # every vertex of both examples' default meshes, each factor taken in
    # closed form at the vertex; the former metric stencil read up to 1.03e-9
    # relative on these grids, 2e-11 away from the degeneracy circle
    from willmore.frames import integrate_frame
    from willmore.potentials import to_nilpotent

    for example_id in (1, 2):
        out = tmp_path / str(example_id)
        assert _run("example", "--id", str(example_id), "--lambda", lam,
                    "--out", str(out)) == 0
        rows = list(csv.DictReader(open(out / "mesh.csv")))
        assert len(rows) == 1025 and all(r["singular"] == "0" for r in rows)
        hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
        zs = [complex(float(r["re_z"]), float(r["im_z"])) for r in rows]
        for col, exact in zip(("yz_sq", "yhatz_sq"), _exact_factors(example_id, pair2)):
            errors = _factor_errors(hf, zs, [float(r[col]) for r in rows], exact)
            assert errors.max() <= 1.0, (example_id, col, errors.max())


def test_example_factorizes_each_vertex_once(tmp_path, monkeypatch):
    # one factorization feeds each vertex's lifts and both conformal factors
    # (the metric stencil took 8 more)
    from willmore import cli, iwasawa, surfaces

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    samples = []
    solve = iwasawa.solve_iwasawa_float

    def counted(hf, z):
        samples.append(len(z))
        return solve(hf, z)

    for module in (cli, iwasawa, surfaces):
        monkeypatch.setattr(module, "solve_iwasawa_float", counted, raising=False)
    assert _run("example", "--id", "1", "--grid-n", "8", "--out", str(tmp_path)) == 0
    assert sum(samples) == 1 + 8 * 8


def test_each_mesh_block_builds_its_metric_blocks_once(tmp_path, monkeypatch):
    # 65 vertices in blocks of 16: each of the 5 blocks builds the frame's
    # middle blocks once and their derivative once per real direction, for
    # both lifts, and still calls each lift's metric evaluator once
    from willmore import cli, iwasawa, surfaces

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "_BLOCK", 16)
    calls = {"blocks": 0, "derivatives": 0, "Y": 0, "Yhat": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for module in (iwasawa, surfaces):
        if hasattr(module, "_middle_blocks"):
            monkeypatch.setattr(module, "_middle_blocks",
                                counted("blocks", module._middle_blocks))
        monkeypatch.setattr(module, "_middle_blocks_d",
                            counted("derivatives", module._middle_blocks_d), raising=False)
    metric = cli.induced_metric
    monkeypatch.setattr(cli, "induced_metric",
                        lambda pair, which: counted(which, metric(pair, which)))
    assert _run("example", "--id", "1", "--grid-n", "8", "--out", str(tmp_path)) == 0
    assert calls == {"blocks": 5, "derivatives": 2 * 5, "Y": 5, "Yhat": 5}


def test_comparison_rows_are_the_json_text_of_their_numbers():
    # finite, infinite (a zero lift row) and NaN distances, each row spelled
    # as json.dumps spells its four numbers, NaN and Infinity included
    import numpy as np

    from willmore.cli import _compare_block

    block = [0.25 - 0.5j, -1e-300 + 3e10j, 1.0, 2.0j, 0.1 + 0.2j]
    d = 2
    vals = np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0],
                     [1.0, 1.0, 1.0, 1.0], [5.0, 6.0, 7.0, 8.0]])
    singular = np.array([False, False, False, True, False])

    def ref(z):
        rows = np.array([[1.0, 2.5], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])[:len(z)]
        return rows, rows[:, ::-1], np.array([False, False, False, True])[:len(z)]

    dist, rows = _compare_block(ref, block, vals, singular, d)
    assert len(rows) == len(dist) == 3
    assert np.isfinite(dist[0]).all() and np.isinf(dist[1][0]) and np.isnan(dist[2][0])
    for k, row, (dy, dyh) in zip((0, 1, 2), rows, dist):
        z = block[k]
        want = json.dumps({"per_vertex": [[z.real, z.imag, dy, dyh]]}, indent=2)
        assert want.splitlines()[2:8] == row.splitlines()


@pytest.mark.parametrize("offset,stencil_flagged", [(0.0, 0), (2.8e-4, 3)])
def test_block_singular_flags_match_scalar_evaluation(tmp_path, capsys, monkeypatch, pair2,
                                                      offset, stencil_flagged):
    """A polar grid whose fourth ring lies on the example-1 degeneracy circle,
    or just off it; 26 vertices in blocks of 8, the last one partial.  Each
    vertex's flag and values are the ones that evaluating it alone gives:
    its lifts, then both conformal factors, each a stack of one.  Just off
    the circle, stencil_flagged vertices fail at a sample of the former
    metric stencil (z +- h/2, z +- ih/2, z +- h, z +- ih, h = 1e-4) but not
    themselves, so they get values, within the exact factors' tolerance."""
    from collections import Counter

    import numpy as np

    from willmore import cli
    from willmore.cli import _grid_points
    from willmore.frames import integrate_frame
    from willmore.potentials import to_nilpotent
    from conftest import float_metric, float_values
    from willmore.surfaces import SurfacePair, reference_singular_radius

    monkeypatch.setattr(cli, "_BLOCK", 8)
    radius = repr(1.25 * reference_singular_radius(1) * (1 + offset))
    out = tmp_path / "straddle"
    assert _run("example", "--id", "1", "--grid-n", "5", "--radius", radius,
                "--out", str(out)) == 0
    rows = list(csv.DictReader(open(out / "mesh.csv")))
    pts = _grid_points("polar", 5, float(radius))
    assert len(rows) == len(pts) == 26 and len(pts) % cli._BLOCK

    hf = integrate_frame(to_nilpotent(builtin_potential(1)))
    pair = SurfacePair(hf.m, 1.0, hf)
    reasons = Counter()
    valued, formerly_flagged = [], 0
    for z, row in zip(pts, rows):
        (Y,), _, (e,) = float_values(pair, np.array([z]))
        (my,), (ey,) = float_metric(pair, "Y", np.array([z]))
        (myh,), (eyh,) = float_metric(pair, "Yhat", np.array([z]))
        e = e or ey or eyh
        if e is not None:
            reasons[type(e).__name__] += 1
            assert row["singular"] == "1", z
            continue
        assert row["singular"] == "0", z
        assert [row["Y%d" % k] for k in range(8)] == [repr(float(v)) for v in Y]
        assert (row["yz_sq"], row["yhatz_sq"]) == (repr(float(my)), repr(float(myh)))
        valued.append((z, my, myh))
        stencil = [z + s * t for s in (1e-4 / 2, 1e-4) for t in (1, -1, 1j, -1j)]
        formerly_flagged += any(e is not None for e in float_values(pair, np.array(stencil))[2])
    assert reasons and formerly_flagged == stencil_flagged
    zs, got_y, got_yhat = zip(*valued)
    for got, exact in zip((got_y, got_yhat), _exact_factors(1, pair2)):
        assert _factor_errors(hf, zs, got, exact).max() <= 1.0
    summary = ", ".join("%s %d" % kv for kv in sorted(reasons.items()))
    assert "(26 vertices, %d singular: %s)" % (sum(reasons.values()), summary) \
        in capsys.readouterr().out


def _boom(*args):
    raise AssertionError("forked with one usable CPU")


def test_output_bytes_do_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    # the straddle grids of the test above, singular vertices included: example
    # 1 through `example`, and example 2 (m = 2) through `synth --format obj`,
    # each under every block size and worker count, nothing forked with one
    import os

    from willmore import cli
    from willmore.surfaces import reference_singular_radius

    pot_path = tmp_path / "example2.json"
    save_potential(builtin_potential(2), pot_path)
    runs = (("example", "--id", "1", "--radius", repr(1.25 * reference_singular_radius(1))),
            ("synth", "--potential", str(pot_path), "--format", "obj",
             "--radius", repr(1.25 * reference_singular_radius(2))))
    outputs, fork = [], os.fork
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(os, "fork", _boom if workers == 1 else fork)
        for block in (1, 7, 64):
            monkeypatch.setattr(cli, "_BLOCK", block)
            files = []
            for k, argv in enumerate(runs):
                out = tmp_path / ("w%d-b%d-%d" % (workers, block, k))
                assert _run(*argv, "--grid-n", "5", "--out", str(out)) == 0
                files += [p.read_bytes() for p in sorted(out.iterdir())]
            files.append(capsys.readouterr().out.replace(str(tmp_path), "TMP")
                         .replace("w%d-b%d-" % (workers, block), "OUT"))
            outputs.append(files)
    # comparison.json and mesh.csv of example 1, mesh.csv and mesh.obj of
    # example 2, and stdout; both mesh.csv files have singular rows
    assert len(outputs[0]) == 5
    assert b",1\n" in outputs[0][1] and b",1\n" in outputs[0][2]
    assert all(files == outputs[0] for files in outputs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_block(cli, monkeypatch, exc, in_child):
    """Make _evaluate_block raise exc on every block that a forked child
    (in_child) or this process computes."""
    import os

    parent = os.getpid()
    evaluate = cli._evaluate_block

    def block(*args):
        if (os.getpid() != parent) == in_child:
            raise exc
        return evaluate(*args)

    monkeypatch.setattr(cli, "_evaluate_block", block)


@pytest.mark.parametrize("exc", [ValueError("share failed: 7 blocks"),
                                 KeyError("share failed")])
def test_a_child_share_error_reaches_the_caller(tmp_path, monkeypatch, exc):
    import os

    from willmore import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "_BLOCK", 4)
    _failing_block(cli, monkeypatch, exc, in_child=True)
    with pytest.raises(type(exc)) as caught:
        _run("example", "--id", "1", "--grid-n", "4", "--out", str(tmp_path))
    assert str(caught.value) == str(exc)
    assert not (tmp_path / "mesh.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_willmore_error_exits_1(tmp_path, capsys, monkeypatch):
    import os

    from willmore import cli
    from willmore.errors import ResidualTooLarge

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_BLOCK", 4)
    _failing_block(cli, monkeypatch, ResidualTooLarge("1B residual 3.0e-2 at a block"),
                   in_child=True)
    assert _run("example", "--id", "1", "--grid-n", "4", "--out", str(tmp_path)) == 1
    out, err = capsys.readouterr()
    assert err == "error: 1B residual 3.0e-2 at a block\n" and out == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_parent_share_error_does_not_wait_on_full_pipes(tmp_path, monkeypatch):
    # 257 vertices in blocks of 8 over 3 workers: each child's share pickles
    # to about 80 kB, more than a pipe holds (64 KiB on Linux), so the
    # children block on their writes until the parent closes the read ends
    import os

    from willmore import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "_BLOCK", 8)
    _failing_block(cli, monkeypatch, ArithmeticError("parent share failed"), in_child=False)

    def expire(signum, frame):
        raise TimeoutError("the parent still waits on its children after 60 s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        with pytest.raises(ArithmeticError, match="^parent share failed$"):
            _run("example", "--id", "1", "--grid-n", "16", "--out", str(tmp_path))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _proj_distance_per_row(u, v) -> float:
    """The projective distance of one pair of rows, as cmd_example took it
    before its distances were stacked."""
    import numpy as np

    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return float("inf")
    a = u / nu
    b = v / nv
    return float(min(np.abs(a - b).max(), np.abs(a + b).max()))


def test_stacked_projective_distance_is_bitwise_the_per_row_one():
    import numpy as np

    from willmore.cli import _proj_distance

    rng = np.random.default_rng(18)
    u = rng.normal(size=(40, 2, 8)) * 10.0 ** rng.integers(-3, 4, size=(40, 2, 1))
    v = u + rng.normal(size=u.shape) * 1e-12
    v[::3] = rng.normal(size=v[::3].shape)
    v[5::7] *= -1.0
    u[4, 1] = 0.0
    v[9, 0] = 0.0
    got = _proj_distance(u, v)
    assert got.shape == (40, 2)
    assert np.isinf(got[4, 1]) and np.isinf(got[9, 0])
    want = np.array([[_proj_distance_per_row(a, b) for a, b in zip(ra, rb)]
                     for ra, rb in zip(u, v)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_far_out_vertices_fail_without_runtime_warnings(tmp_path, capsys):
    # The Gram matrix overflows from |z| ~ 1e52; those vertices fail with
    # SingularLocus and no arithmetic runs on their overflowed values.
    # Farther out the powers of z overflow as f and g are evaluated.
    # comparison.json is the file as written before that arithmetic was
    # skipped; mesh.csv has the closed-form factors, 2.0 at z = 0.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("example", "--id", "1", "--grid-n", "2", "--radius", "1e60",
                    "--out", str(tmp_path)) == 0
        for example_id, radius in (("1", "1e200"), ("2", "1e150"), ("1", "1e300"),
                                   ("2", "1e300")):
            assert _run("example", "--id", example_id, "--grid-n", "2", "--radius", radius,
                        "--out", str(tmp_path / (example_id + "-" + radius))) == 0
            assert "4 singular: SingularLocus 4" in capsys.readouterr().out
        save_potential(builtin_potential(1), tmp_path / "p.json")
        assert _run("verify", "--potential", str(tmp_path / "p.json"), "--radius", "1e200",
                    "--report", str(tmp_path / "report.json")) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("mesh.csv", "comparison.json")}
    assert digests == {
        "mesh.csv": "56adcd808923eff7f9d690199d0a8ba42155d3e8aa0582920b9ff170c95e933a",
        "comparison.json": "91302673779a52358dddc9d6dc3cc2eed3d02a5ca28bf623b8d25af996ec426c",
    }


_WITHOUT_SCIPY = r"""
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import numpy as np
from willmore.cli import main
from willmore.potentials import builtin_potential, rank_and_classify, save_potential
from willmore.potentials import wu_normalized_potential

out = sys.argv[1]
save_potential(builtin_potential(2), out + "/p.json")
assert main(["example", "--id", "2", "--grid-n", "4", "--out", out + "/ex2"]) == 0
assert main(["verify", "--potential", out + "/p.json", "--samples", "3"]) == 0
assert rank_and_classify(builtin_potential(2)) == (2, "generic")
d1 = np.zeros((4, 4), dtype=complex)
d1[0, 2] = 1
eta = wu_normalized_potential(np.arange(16.0).reshape(4, 4) / 40, d1, [0.5j])[0]
assert np.isfinite(eta).all() and not np.array_equal(eta, d1)
"""


def test_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency; scipy is for tests only
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(willmore.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
