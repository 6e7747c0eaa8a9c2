"""Command-line interface: run shipped examples, synthesize meshes, verify.

Subcommands:

* example: full pipeline on a shipped potential, mesh plus a closed-form
  comparison report with the projective distance at every vertex.  The mesh
  is evaluated in blocks of vertices, each factorized with its metric
  stencils in one stacked call; the summary counts singular vertices by
  error class.
* synth: the same pipeline for a user potential file (CSV always; OBJ for
  m = 2 after a stereographic projection to R^4 with the last coordinate
  dropped, a visualization convenience that is clearly lossy).
* verify: the invariant suite, report as JSON, exit 0 only if it passes.

Numeric flags accept exact rational syntax "p/q" where meaningful, and
lambda accepts "1", "i", "a+bi" with rational parts, or "cis:p/q" for
exp(i pi p/q).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np

from .errors import PotentialFormatError, WillmoreError
from .frames import integrate_frame
from .potentials import load_potential, to_nilpotent
from .surfaces import SurfacePair, induced_metric, metric_stencil, reference_lift_eval
from .verify import run_suite


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational like 3/2, got %r" % text)


def _radius(text: str) -> float:
    r = float(_parse_rational(text))
    if r <= 0:
        raise argparse.ArgumentTypeError("radius must be positive")
    return r


def _at_least(minimum: int):
    """argparse type of the ints no smaller than minimum."""
    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (minimum, n))
        return n
    return count


def _parse_lambda(text: str) -> complex:
    """Unit-circle family parameter: '1', 'i', 'a+bi', or 'cis:p/q'."""
    s = text.strip().replace(" ", "")
    if s.startswith("cis:"):
        turns = _parse_rational(s[4:])
        lam = cmath.exp(1j * math.pi * float(turns))
    else:
        lam = _parse_complex(s)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise argparse.ArgumentTypeError(
            "lambda must lie on the unit circle, got %r with |lambda| = %.6f"
            % (text, abs(lam))
        )
    return lam


def _parse_complex(s: str) -> complex:
    if s in ("i", "+i"):
        return 1j
    if s == "-i":
        return -1j
    if s.endswith("i"):
        body = s[:-1]
        # Split a+bi at the sign of the imaginary part (never inside p/q
        # and never the leading sign).
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re = _parse_rational(body[:k])
                imtext = body[k:]
                im = Fraction(1) if imtext in ("+",) else (
                    Fraction(-1) if imtext == "-" else _parse_rational(imtext))
                return complex(float(re), float(im))
        body = body or "1"
        if body in ("+", "-"):
            body += "1"
        return complex(0.0, float(_parse_rational(body)))
    return complex(float(_parse_rational(s)), 0.0)


def _grid_points(kind: str, n: int, radius: float):
    """Vertex list; polar grids keep ring structure for face generation."""
    if kind == "polar":
        pts = [0j]
        for k in range(1, n + 1):
            r = radius * k / n
            for j in range(n):
                th = 2 * math.pi * j / n
                pts.append(complex(r * math.cos(th), r * math.sin(th)))
        return pts
    pts = []
    for b in range(n):
        y = -radius + 2 * radius * b / (n - 1) if n > 1 else 0.0
        for a in range(n):
            x = -radius + 2 * radius * a / (n - 1) if n > 1 else 0.0
            pts.append(complex(x, y))
    return pts


def _polar_faces(n: int):
    """1-based triangle indices for the polar grid of _grid_points."""
    faces = []
    ring = lambda k, j: 2 + (k - 1) * n + (j % n)
    for j in range(n):
        faces.append((1, ring(1, j), ring(1, j + 1)))
    for k in range(1, n):
        for j in range(n):
            a, b = ring(k, j), ring(k, j + 1)
            c, d = ring(k + 1, j), ring(k + 1, j + 1)
            faces.append((a, b, d))
            faces.append((a, d, c))
    return faces


def _cartesian_faces(n: int):
    faces = []
    at = lambda a, b: 1 + b * n + a
    for b in range(n - 1):
        for a in range(n - 1):
            p, q = at(a, b), at(a + 1, b)
            r, s = at(a, b + 1), at(a + 1, b + 1)
            faces.append((p, q, s))
            faces.append((p, s, r))
    return faces


# Vertices per stacked evaluation: each block factorizes its vertices and
# their metric stencils (9 samples per vertex) in one call, and the block
# size bounds the memory that call takes.
_BLOCK = 16


def _evaluate_block(pair, metric_y, metric_yhat, pts):
    """The CSV value columns of a block of vertices, one row per vertex and
    NaN on singular ones, the singular mask, and each singular vertex's
    error class.

    A vertex is singular when its own sample or one of its metric stencil
    samples fails for either lift; its error is the first of those in the
    order vertex, y metric, yhat metric.
    """
    n = len(pts)
    z = np.array(pts, dtype=complex)
    Y, Yhat, errors = pair.values(np.concatenate([z, metric_stencil(z).ravel()]))
    lifts = (Y[n:], Yhat[n:], errors[n:])
    my, errors_y = metric_y(z, lifts=lifts)
    myh, errors_yhat = metric_yhat(z, lifts=lifts)
    Y, Yhat = Y[:n], Yhat[:n]
    vals = np.concatenate([Y, Yhat, Y[:, 1:] / Y[:, :1], Yhat[:, 1:] / Yhat[:, :1],
                           my[:, None], myh[:, None]], axis=1)
    first = [next((e for e in trio if e is not None), None)
             for trio in zip(errors[:n], errors_y, errors_yhat)]
    singular = np.array([e is not None for e in first], dtype=bool)
    vals[singular] = np.nan
    return vals, singular, [type(e).__name__ for e in first if e is not None]


def _write_mesh_csv(path, pair, pts):
    """Write mesh.csv; returns its value columns (as _evaluate_block gives
    them), the singular mask and the singular vertices per error class."""
    m = pair.m
    metric_y = induced_metric(pair, "Y")
    metric_yhat = induced_metric(pair, "Yhat")
    d = 2 * m + 2
    cols = (["re_z", "im_z"]
            + ["Y%d" % k for k in range(d)]
            + ["Yhat%d" % k for k in range(d)]
            + ["y%d" % k for k in range(1, d)]
            + ["yhat%d" % k for k in range(1, d)]
            + ["yz_sq", "yhatz_sq", "singular"])
    blocks = [_evaluate_block(pair, metric_y, metric_yhat, pts[start:start + _BLOCK])
              for start in range(0, len(pts), _BLOCK)]
    vals = np.concatenate([b[0] for b in blocks])
    singular = np.concatenate([b[1] for b in blocks])
    reasons = Counter(name for b in blocks for name in b[2])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for z, row, flag in zip(pts, vals.tolist(), singular.tolist()):
            fh.write(",".join(map(repr, [z.real, z.imag, *row])))
            fh.write(",%d\n" % flag)
    return vals, singular, reasons


def _singular_summary(reasons: Counter) -> str:
    """'N singular', followed by the count of each error class when N > 0."""
    total = sum(reasons.values())
    if not total:
        return "0 singular"
    return "%d singular: %s" % (total, ", ".join(
        "%s %d" % (name, count) for name, count in sorted(reasons.items())))


def _write_mesh_obj(path, pair, pts, vals, singular, faces):
    """Lossy visualization export: stereographic S^4 -> R^4, drop the last
    coordinate.  Only the y surface is exported and only for m = 2."""
    if pair.m != 2:
        raise WillmoreError("OBJ export needs m = 2 (a surface in S^4)")
    ok = [False] * len(pts)
    d = 2 * pair.m + 2
    with open(path, "w") as fh:
        fh.write("# y surface, stereographic projection of S^4 from (1,0,0,0,0)"
                 " to R^4, last coordinate dropped (lossy)\n")
        for k, (y, flag) in enumerate(zip(vals[:, 2 * d:3 * d - 1].tolist(),
                                          singular.tolist())):
            if flag or abs(1.0 - y[0]) < 1e-9:
                fh.write("v 0 0 0\n")
                continue
            denom = 1.0 - y[0]
            q = [float(y[1] / denom), float(y[2] / denom), float(y[3] / denom)]
            ok[k] = True
            fh.write("v %s %s %s\n" % (repr(q[0]), repr(q[1]), repr(q[2])))
        for f in faces:
            if all(ok[i - 1] for i in f):
                fh.write("f %d %d %d\n" % f)


def _proj_distance(u, v) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return float("inf")
    a = u / nu
    b = v / nv
    return float(min(np.abs(a - b).max(), np.abs(a + b).max()))


def _cmd_mesh_common(args, doc):
    hf = integrate_frame(to_nilpotent(doc.normalized()))
    pair = SurfacePair(hf.m, args.lam, hf)
    pts = _grid_points(args.grid, args.grid_n, args.radius)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "mesh.csv")
    vals, singular, reasons = _write_mesh_csv(csv_path, pair, pts)
    print("wrote %s (%d vertices, %s)" % (csv_path, len(pts), _singular_summary(reasons)))
    return pair, pts, vals, singular


def cmd_example(args) -> int:
    src = resources.files("willmore").joinpath("data/example%d.json" % args.id)
    with resources.as_file(src) as path:
        doc = load_potential(str(path))
    pair, pts, vals, singular = _cmd_mesh_common(args, doc)
    ref = reference_lift_eval(args.id, args.lam)
    d = 2 * pair.m + 2
    per_vertex = []
    worst = 0.0
    skipped = int(singular.sum())
    for k in np.flatnonzero(~singular):
        z = pts[k]
        try:
            Yr, Yhr = ref(z)
        except WillmoreError:
            skipped += 1
            continue
        dy = _proj_distance(vals[k, :d], Yr)
        dyh = _proj_distance(vals[k, d:2 * d], Yhr)
        per_vertex.append([z.real, z.imag, dy, dyh])
        worst = max(worst, dy, dyh)
    report = {
        "example": args.id,
        "lambda": [args.lam.real, args.lam.imag],
        "grid": {"type": args.grid, "n": args.grid_n, "radius": args.radius},
        "vertices": len(pts),
        "compared_vertices": len(per_vertex),
        "skipped_vertices": skipped,
        "max_projective_distance": worst,
        "per_vertex": per_vertex,
    }
    rpt_path = os.path.join(args.out, "comparison.json")
    with open(rpt_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print("wrote %s (max projective distance %.3e)" % (rpt_path, worst))
    return 0 if worst < 1e-9 else 1


def cmd_synth(args) -> int:
    doc = load_potential(args.potential)
    pair, pts, vals, singular = _cmd_mesh_common(args, doc)
    if args.format == "obj":
        faces = (_polar_faces(args.grid_n) if args.grid == "polar"
                 else _cartesian_faces(args.grid_n))
        obj_path = os.path.join(args.out, "mesh.obj")
        _write_mesh_obj(obj_path, pair, pts, vals, singular, faces)
        print("wrote %s" % obj_path)
    return 0


def cmd_verify(args) -> int:
    doc = load_potential(args.potential)
    plan = {"samples": args.samples, "radius": args.radius, "seed": args.seed}
    if args.tol is not None:
        plan["tol_algebraic"] = args.tol
    if args.tol_fd is not None:
        plan["tol_fd"] = args.tol_fd
    report = run_suite(doc, plan)
    text = report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
        print("wrote %s" % args.report)
    else:
        sys.stdout.write(text)
    n_bad = sum(1 for c in report.checks if not c["passed"])
    print("verification %s (%d checks, %d failed)" % (
        "PASSED" if report.passed else "FAILED", len(report.checks), n_bad))
    return 0 if report.passed else 1


def _add_mesh_flags(p):
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=1 + 0j,
                   help="family parameter on the unit circle (1, i, a+bi, cis:p/q)")
    p.add_argument("--grid-n", type=_at_least(1), default=32,
                   help="rings and sectors (polar) or side length (cartesian)")
    p.add_argument("--radius", type=_radius, default=1.2,
                   help="disk radius, rational syntax accepted")
    p.add_argument("--grid", choices=("polar", "cartesian"), default="polar")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="willmore",
        description="Synthesize totally isotropic Willmore spheres and their "
                    "adjoint transforms from loop-group potentials.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("example", help="run a shipped example end to end")
    pe.add_argument("--id", type=int, choices=(1, 2), required=True)
    _add_mesh_flags(pe)
    pe.set_defaults(fn=cmd_example)

    ps = sub.add_parser("synth", help="synthesize a mesh from a potential file")
    ps.add_argument("--potential", required=True)
    _add_mesh_flags(ps)
    ps.add_argument("--format", choices=("csv", "obj"), default="csv",
                    help="obj additionally writes a lossy R^3 projection (m=2)")
    ps.set_defaults(fn=cmd_synth)

    pv = sub.add_parser("verify", help="run the invariant suite on a potential")
    pv.add_argument("--potential", required=True)
    pv.add_argument("--samples", type=_at_least(0), default=40)
    pv.add_argument("--radius", type=_radius, default=0.9)
    pv.add_argument("--seed", type=int, default=7)
    pv.add_argument("--tol", type=float, default=None,
                    help="override the algebraic tolerance")
    pv.add_argument("--tol-fd", type=float, default=None,
                    help="override the finite-difference tolerance")
    pv.add_argument("--report", default=None, help="write the JSON report here")
    pv.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PotentialFormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except WillmoreError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
