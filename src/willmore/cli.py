"""Command-line interface: run shipped examples, synthesize meshes, verify.

Subcommands:

* example: full pipeline on a shipped potential, mesh plus a closed-form
  comparison report with the projective distance at every vertex.  The
  mesh is evaluated in blocks of _BLOCK vertices, each factorized in one
  stacked call whose witness gives both lifts and both conformal factors in
  closed form, and the blocks are split into interleaved shares over the
  usable CPUs: this process computes one share and a forked child each
  other one.  A share also compares its vertices with the closed form and
  formats their report rows; the blocks are written back in block order.
  A block's values do not depend on the block size or on the process that
  computes it, so neither do the output bytes; with one usable CPU nothing
  forks.  The summary counts singular vertices by error class.
* synth: the same pipeline for a user potential file (CSV always; OBJ for
  m = 2 after a stereographic projection to R^4 with the last coordinate
  dropped, a visualization convenience that is clearly lossy).
* verify: the invariant suite, report as JSON, exit 0 only if it passes.

Numeric flags accept exact rational syntax "p/q" where meaningful, and
lambda accepts "1", "i", "a+bi" with rational parts, or "cis:p/q" for
exp(i pi p/q).  A value that starts with "-" may follow its flag as the
next word ("--lambda -i") or be joined to it ("--lambda=-i").
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import pickle
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import PotentialFormatError, WillmoreError
from .frames import integrate_frame
from .potentials import (
    MAX_EXPONENT_DIGITS,
    builtin_potential,
    exponent_too_long,
    load_potential,
    to_nilpotent,
)
from .iwasawa import solve_iwasawa_float
from .surfaces import SurfacePair, induced_metric, metric_columns, reference_lift_eval
from .verify import run_suite


def _parse_real(text: str) -> float:
    """The float of a rational like 3/2 or 1e-3; a usage error past the float
    range or past the exponents potentials.exponent_too_long allows."""
    if exponent_too_long(text):
        raise argparse.ArgumentTypeError(
            "the decimal exponent of a rational may have at most %d digits" % MAX_EXPONENT_DIGITS)
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational like 3/2, got %r" % text)
    except OverflowError:
        raise argparse.ArgumentTypeError("%r is too large for a float" % text)


def _radius(text: str) -> float:
    r = _parse_real(text)
    if r <= 0:
        raise argparse.ArgumentTypeError("radius must be positive")
    return r


def _tolerance(text: str) -> float:
    t = _parse_real(text)
    if t < 0:
        raise argparse.ArgumentTypeError("tolerance must be non-negative")
    return t


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
        lam = cmath.exp(1j * math.pi * _parse_real(s[4:]))
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
        # Split a+bi at the sign of the imaginary part (never inside p/q,
        # never in a decimal exponent and never the leading sign).
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/eE":
                re = _parse_real(body[:k])
                imtext = body[k:]
                im = 1.0 if imtext == "+" else (
                    -1.0 if imtext == "-" else _parse_real(imtext))
                return complex(re, im)
        body = body or "1"
        if body in ("+", "-"):
            body += "1"
        return complex(0.0, _parse_real(body))
    return complex(_parse_real(s), 0.0)


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


# Vertices per stacked evaluation: each block factorizes its vertices in one
# call, and the block size bounds the memory that call takes, about 4 KB per
# vertex at its peak.  On the bench mesh (1,025 vertices, 2 vCPUs), with each
# block's float work done once for both lifts, blocks of 128 and 256 read
# median wall_ref 50.7 and 46.0 and peak RSS 38.45 and 38.83 MB (4 runs
# each); 128 keeps the RSS that the mesh read with its per-lift work
# (38.45 MB).  Each sample of a stack has the bits of a stack of one, so the
# output does not depend on the block size.
_BLOCK = 128


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where os.fork or
    os.sched_getaffinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _child(fn, share, fds, w):
    """Run fn(share) in a forked child, send (True, result) or (False,
    exception) pickled through the write end w, and leave by os._exit: the
    child never returns into its caller's stack and never flushes the
    parent's buffers.  fds are the read ends the child inherited, its own
    pipe's included."""
    status = 1
    try:
        for fd in fds:
            os.close(fd)
        try:
            payload = (True, fn(share))
        except Exception as e:
            payload = (False, e)
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception:
            data = pickle.dumps((False, RuntimeError("cannot pickle %s: %s" % (
                type(payload[1]).__name__, payload[1]))))
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _map_shares(fn, shares) -> list:
    """[fn(share) for share in shares]: the first share in this process, each
    other one in a forked child (_child) computing at the same time.

    A child's exception is raised here with its type and message.  Every
    child is reaped before this returns or raises; the read ends are closed
    first, so that a child blocked on a full pipe gets EPIPE and exits.  With
    one share nothing forks.
    """
    children = []  # (pid, read end)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, share, [fd for _, fd in children] + [r], w)
            os.close(w)
            children.append((pid, r))
        results = [fn(shares[0])]
        for _, r in children:
            with os.fdopen(r, "rb", closefd=False) as fh:
                try:
                    ok, value = pickle.load(fh)
                except EOFError:
                    raise RuntimeError("a forked worker exited without its result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for _, r in children:
            os.close(r)
        for pid, _ in children:
            os.waitpid(pid, 0)


def _evaluate_block(pair, metric_y, metric_yhat, pts):
    """The CSV value columns of a block of vertices, one row per vertex and
    NaN on singular ones, the singular mask, and each singular vertex's
    error class.

    One stacked factorization of the block's vertices, solved here, feeds
    both lifts and both conformal factors: its middle blocks give the lifts
    and, bound and differentiated once for both lifts (metric_columns), the
    column each factor differentiates.  A vertex is singular when its own
    sample fails for either lift: a check of the witness, the imaginary
    drift of SurfacePair.values, or a vanishing first coordinate of y or
    yhat (induced_metric).  Its error is the first of those in the order
    vertex (witness and drift), y metric, yhat metric.
    """
    z = np.array(pts, dtype=complex)
    w = solve_iwasawa_float(pair.hf, z)
    values = pair.values(w)
    columns = metric_columns(pair, w)
    Y, Yhat, errors = values
    my, errors_y = metric_y(z, w, values, columns)
    myh, errors_yhat = metric_yhat(z, w, values, columns)
    vals = np.concatenate([Y, Yhat, Y[:, 1:] / Y[:, :1], Yhat[:, 1:] / Yhat[:, :1],
                           my[:, None], myh[:, None]], axis=1)
    first = [next((e for e in trio if e is not None), None)
             for trio in zip(errors, errors_y, errors_yhat)]
    singular = np.array([e is not None for e in first], dtype=bool)
    vals[singular] = np.nan
    return vals, singular, [type(e).__name__ for e in first if e is not None]


# A comparison row as json.dump writes it at indent=2 inside comparison.json:
# floats by their repr, as json spells finite ones.
_ROW = "    [\n      %r,\n      %r,\n      %r,\n      %r\n    ]"


def _compare_block(ref, block, vals, singular, d):
    """The closed-form comparison of a block's vertices: for each
    non-singular vertex where ref (a reference_lift_eval evaluator, called
    once on the stack of them) is defined, its projective distances [dy,
    dyhat] (_proj_distance) and its per_vertex row as json.dump writes it at
    indent=2 inside comparison.json, inf and NaN spelled Infinity and NaN."""
    keep = np.flatnonzero(~singular)
    Yr, Yhr, skipped = ref(np.array(block, dtype=complex)[keep])
    compared = keep[~skipped]
    lifts = vals[compared, :2 * d].reshape(len(compared), 2, d)
    dist = _proj_distance(lifts, np.stack([Yr, Yhr], axis=1)[~skipped]).tolist()
    # No finite float's repr holds "inf" or "nan".
    rows = [(_ROW % (block[k].real, block[k].imag, dy, dyh))
            .replace("inf", "Infinity").replace("nan", "NaN")
            for k, (dy, dyh) in zip(compared.tolist(), dist)]
    return dist, rows


def _write_mesh_csv(path, pair, pts, ref=None):
    """Write mesh.csv; returns its value columns as _evaluate_block gives
    them, one array per block in vertex order (joined only by the OBJ
    export, so an example's run never holds a copy of them all), the
    singular mask, the singular vertices per error class, and, given ref,
    the distances and per_vertex rows of _compare_block for all blocks in
    vertex order (None without ref).

    The blocks are dealt into interleaved shares, one per worker, with
    workers = min(usable CPUs, blocks): this process computes share 0 and a
    forked child each other one (_map_shares), each block evaluated, its
    CSV rows formatted and, given ref, compared where it is computed.  The
    blocks are then put back in block order and written here.  A block's
    values do not depend on which process computes it, so the output does
    not depend on the worker count; with one worker the single share runs
    here and nothing forks.
    """
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

    def share(starts):
        out = []
        for start in starts:
            block = pts[start:start + _BLOCK]
            vals, singular, reasons = _evaluate_block(pair, metric_y, metric_yhat, block)
            # No float's repr holds a space.
            rows = "".join("%s,%d\n" % (str([z.real, z.imag, *row])[1:-1].replace(" ", ""), flag)
                           for z, row, flag in zip(block, vals.tolist(), singular.tolist()))
            out.append((start, vals, singular, reasons, rows,
                        None if ref is None else _compare_block(ref, block, vals, singular, d)))
        return out

    starts = range(0, len(pts), _BLOCK)
    workers = min(_usable_cpus(), len(starts))
    blocks = sorted((b for done in _map_shares(share, [starts[k::workers] for k in range(workers)])
                     for b in done), key=lambda b: b[0])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(b[4] for b in blocks)
    compared = None if ref is None else tuple([x for b in blocks for x in b[5][k]]
                                              for k in (0, 1))
    return ([b[1] for b in blocks], np.concatenate([b[2] for b in blocks]),
            Counter(name for b in blocks for name in b[3]), compared)


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


def _proj_distance(u, v) -> np.ndarray:
    """min(max|a - b|, max|a + b|) over the unit rows a, b of two real stacks
    (last axis), inf where either row is zero.  A norm is one BLAS dot per row,
    a 1x1 product, so it has the bits of np.linalg.norm of that row."""
    nu, nv = (np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0]) for x in (u, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = u / nu[..., None], v / nv[..., None]
        dist = np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1))
    return np.where((nu == 0) | (nv == 0), np.inf, dist)


def _cmd_mesh_common(args, doc, ref=None):
    hf = integrate_frame(to_nilpotent(doc.normalized()))
    pair = SurfacePair(hf.m, args.lam, hf)
    pts = _grid_points(args.grid, args.grid_n, args.radius)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "mesh.csv")
    vals, singular, reasons, compared = _write_mesh_csv(csv_path, pair, pts, ref)
    print("wrote %s (%d vertices, %s)" % (csv_path, len(pts), _singular_summary(reasons)))
    return pair, pts, vals, singular, compared


def cmd_example(args) -> int:
    ref = reference_lift_eval(args.id, args.lam)
    _, pts, _, _, (dist, rows) = _cmd_mesh_common(args, builtin_potential(args.id), ref)
    worst = max([0.0] + [x for row in dist for x in row])
    report = {
        "example": args.id,
        "lambda": [args.lam.real, args.lam.imag],
        "grid": {"type": args.grid, "n": args.grid_n, "radius": args.radius},
        "vertices": len(pts),
        "compared_vertices": len(rows),
        "skipped_vertices": len(pts) - len(rows),
        "max_projective_distance": worst,
        "per_vertex": [],
    }
    # The text json.dump(report, fh, indent=2) writes, with the rows that
    # the mesh's shares formatted spliced into the last key, per_vertex.
    text = json.dumps(report, indent=2)
    if rows:
        text = text[:-len("[]\n}")] + "[\n" + ",\n".join(rows) + "\n  ]\n}"
    rpt_path = os.path.join(args.out, "comparison.json")
    with open(rpt_path, "w") as fh:
        fh.write(text + "\n")
    print("wrote %s (max projective distance %.3e)" % (rpt_path, worst))
    return 0 if worst < 1e-9 else 1


def cmd_synth(args) -> int:
    doc = load_potential(args.potential)
    if args.format == "obj" and doc.m != 2:
        raise WillmoreError("OBJ export needs m = 2 (a surface in S^4)")
    pair, pts, vals, singular, _ = _cmd_mesh_common(args, doc)
    if args.format == "obj":
        faces = (_polar_faces(args.grid_n) if args.grid == "polar"
                 else _cartesian_faces(args.grid_n))
        obj_path = os.path.join(args.out, "mesh.obj")
        _write_mesh_obj(obj_path, pair, pts, np.concatenate(vals), singular, faces)
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


# Flags whose value may start with "-".  argparse reads such a value as an
# option unless it is a plain negative decimal like -1 or -0.5, so "-i",
# "-0.6+0.8i" and "-1e-6" would be refused as missing values.
_SIGNED_FLAGS = frozenset(("--lambda", "--radius", "--tol", "--tol-fd"))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "--lambda -i" as "--lambda=-i": a
    _SIGNED_FLAGS flag, or an abbreviation of one, followed by a word that
    starts with one "-" is joined to it.  A word that starts with "--" is
    never a value."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        k = 0
        while k < len(args) - 1:
            flag, value = args[k], args[k + 1]
            if (len(flag) > 2 and any(f.startswith(flag) for f in _SIGNED_FLAGS)
                    and value.startswith("-") and not value.startswith("--")):
                args[k:k + 2] = ["%s=%s" % (flag, value)]
            k += 1
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    pv.add_argument("--seed", type=_at_least(0), default=7)
    pv.add_argument("--tol", type=_tolerance, default=None,
                    help="override the algebraic tolerance (exact identities pass only at 0)")
    pv.add_argument("--tol-fd", type=_tolerance, default=None,
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
