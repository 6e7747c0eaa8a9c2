"""The three benchmark workloads: inputs from a seed, one operation, its check.

Each workload matches a path that users run on shipped example 1:

* mesh-ex1: `willmore example --id 1 --grid-n 32` at a seed-chosen unit
  lambda = cis(p/q); the float per-vertex path does all the work.
* verify-ex1: `run_suite` with the default plan and the bench seed as
  plan["seed"]; float factorizations wrapped in frame assembly, refactor and
  membership checks, plus exact constant-matrix isometries.
* exact-ex1: the exact witness, frame, pair (at lambda = +1 or -1, by
  seed), both conformal factors against the printed ones, the branch limits
  at infinity and exact total isotropy of Y.  lambda = +-i would cost more
  Gaussian-rational arithmetic than +-1, so varying it would mix a seed
  effect into the run-to-run spread.

`setup` is what every operation needs first (imports, the example-1
potential, its integrated frame and the group context).  `OPERATIONS[name]`
runs the timed operation; `CHECKS[name]` then checks its outputs outside the
timed region and counts attempted and failed units.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction
from importlib import resources

WORKLOADS = ("mesh-ex1", "verify-ex1", "exact-ex1")

# Projective distance below which a mesh vertex matches the closed form.
MESH_TOL = 1e-9
EXACT_UNITS = ((1, 0), (-1, 0))
FD_CHECKS = ("mc-flatness", "mc-lambda-affinity", "conformality", "isotropy-order-m")
VERIFY_CHECK_COUNT = 26


def make_inputs(workload: str, seed: int, reduced: bool = False) -> dict:
    """Inputs of one workload, a pure function of (workload, seed, reduced).

    reduced shrinks each operation for the self-test; it is never used by a
    measured run.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "mesh-ex1":
        q = rng.randint(1, 12)
        p = rng.randrange(0, 2 * q)
        return {"lambda": "cis:%d/%d" % (p, q), "grid_n": 4 if reduced else 32}
    if workload == "verify-ex1":
        plan = {"seed": seed}
        if reduced:
            plan.update({"samples": 3, "fd_samples": 1, "oracle_matrices": 2})
        return {"plan": plan}
    if workload == "exact-ex1":
        return {"lambda": list(rng.choice(EXACT_UNITS)),
                "isotropy_order": 1 if reduced else None}
    raise ValueError("unknown workload %r" % (workload,))


class Setup:
    """Example-1 potential, its holomorphic frame and its group context."""

    def __init__(self):
        import willmore.cli  # noqa: F401  (imports every module, numpy too)
        from willmore.frames import integrate_frame
        from willmore.groups import get_context
        from willmore.potentials import load_potential, to_nilpotent

        src = resources.files("willmore").joinpath("data/example1.json")
        with resources.as_file(src) as path:
            self.doc = load_potential(str(path))
        self.hf = integrate_frame(to_nilpotent(self.doc.normalized()))
        self.ctx = get_context(self.doc.m)


# -- mesh-ex1 -------------------------------------------------------------------


def run_mesh(setup, inputs, workdir):
    from willmore import cli

    argv = ["example", "--id", "1", "--grid-n", str(inputs["grid_n"]),
            "--lambda", inputs["lambda"], "--out", workdir]
    return {"rc": cli.main(argv)}


def _lambda_value(text: str) -> complex:
    return cmath.exp(1j * math.pi * float(Fraction(text[len("cis:"):])))


def _proj_distance(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0 or nv == 0:
        return math.inf
    minus = max(abs(a / nu - b / nv) for a, b in zip(u, v))
    plus = max(abs(a / nu + b / nv) for a, b in zip(u, v))
    return min(minus, plus)


def check_mesh(setup, inputs, workdir, out):
    """A vertex fails if skipped, singular, or off the closed form by >= MESH_TOL."""
    from willmore.errors import WillmoreError
    from willmore.surfaces import reference_lift_eval

    n = inputs["grid_n"]
    expected = 1 + n * n
    csv_path = os.path.join(workdir, "mesh.csv")
    json_path = os.path.join(workdir, "comparison.json")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(json_path) as fh:
        report = json.load(fh)
    d = 2 * setup.doc.m + 2
    ref = reference_lift_eval(1, _lambda_value(inputs["lambda"]))
    failed = max(0, expected - len(rows))
    worst = 0.0
    for row in rows[:expected]:
        if row["singular"] != "0":
            failed += 1
            continue
        z = complex(float(row["re_z"]), float(row["im_z"]))
        Y = [float(row["Y%d" % k]) for k in range(d)]
        Yhat = [float(row["Yhat%d" % k]) for k in range(d)]
        try:
            Yr, Yhr = ref(z)
        except WillmoreError:
            failed += 1
            continue
        dist = max(_proj_distance(Y, Yr), _proj_distance(Yhat, Yhr))
        worst = max(worst, dist)
        if not dist < MESH_TOL:
            failed += 1
    consistent = (out["rc"] == (0 if worst < MESH_TOL else 1)
                  and report["vertices"] == expected)
    return {
        "attempted": expected,
        "failed": failed if consistent else expected,
        "fingerprints": {"comparison.json": _sha256_file(json_path),
                         "mesh.csv": _sha256_file(csv_path)},
        "extra": {"max_projective_distance": worst, "vertices": expected},
    }


# -- verify-ex1 -----------------------------------------------------------------


def run_verify(setup, inputs, workdir):
    from willmore.verify import run_suite

    return {"report": run_suite(setup.doc, inputs["plan"])}


def check_verify(setup, inputs, workdir, out):
    """A check fails if it did not pass; missing checks count as failed."""
    report = out["report"]
    checks = {c["name"]: c for c in report.checks}
    failed = sum(1 for c in report.checks if not c["passed"])
    failed += max(0, VERIFY_CHECK_COUNT - len(checks))
    margins = {}
    for name in FD_CHECKS:
        c = checks.get(name)
        ratio = c["max_residual"] / c["tolerance"] if c else math.inf
        # A check that raised reports an infinite residual; JSON has no inf.
        margins[name] = ratio if math.isfinite(ratio) else sys.float_info.max
    text = report.to_json(include_timing=False)
    return {
        "attempted": max(VERIFY_CHECK_COUNT, len(checks)),
        "failed": failed,
        "fingerprints": {"report": hashlib.sha256(text.encode()).hexdigest()},
        "extra": {"margins": margins, "rejected_samples": report.rejected_samples,
                  "failed_checks": sorted(n for n, c in checks.items() if not c["passed"])},
    }


# -- exact-ex1 ------------------------------------------------------------------


def run_exact(setup, inputs, workdir):
    """The exact pipeline, evaluating every criteria 1-4 fact as it goes.

    A step that raises ends the pipeline; the facts it left unestablished
    count as failed in check_exact.
    """
    from willmore.iwasawa import assemble_frame, solve_iwasawa_exact
    from willmore.scalars import GaussianRational, RationalFn
    from willmore.surfaces import (
        branch_analysis,
        extract_pair,
        induced_metric,
        isotropy_check,
        reference_lift_exact,
        reference_metric,
    )

    lam = GaussianRational(*inputs["lambda"])
    order = inputs["isotropy_order"] or setup.doc.m
    out = {"facts": {}, "order": order, "error": None}
    facts = out["facts"]
    try:
        w = out["witness"] = solve_iwasawa_exact(setup.hf)
        sigma = reference_lift_exact(1, lam)["sigma"]
        facts["det-rho-is-sigma-squared"] = w.det_rho == RationalFn(sigma * sigma)
        facts["q-is-identity"] = w.q_is_identity and all(
            w.q[i][j] == RationalFn.const(1 if i == j else 0)
            for i in range(2) for j in range(2))
        pair = extract_pair(assemble_frame(setup.hf, w), lam)
        for which in ("Y", "Yhat"):
            metric = out["metric-" + which] = induced_metric(pair, which)
            facts["metric-%s-is-reference" % which] = metric == reference_metric(1, which)
        branch = branch_analysis(pair)
        facts["branch-y-limit-0"] = branch["y_limit"] == 0
        facts["branch-yhat-limit-32"] = branch["yhat_limit"] == 32
        iso = isotropy_check(pair, "Y", max_order=order)
        for key, residual in iso["pairs"].items():
            facts["isotropy-%s-zero" % key] = residual == 0.0
    except Exception as e:  # reported as failed facts, not as a crash
        out["error"] = "%s: %s" % (type(e).__name__, e)
    return out


def check_exact(setup, inputs, workdir, out):
    """A fact fails if it is false or was never established; the fingerprint
    covers rho, u#, det rho and both metrics."""
    order = out["order"]
    names = ["det-rho-is-sigma-squared", "q-is-identity", "metric-Y-is-reference",
             "metric-Yhat-is-reference", "branch-y-limit-0", "branch-yhat-limit-32"]
    names += ["isotropy-(%d,%d)-zero" % (j, l)
              for j in range(1, order + 1) for l in range(j, order + 1)]
    false = [n for n in names if out["facts"].get(n) is not True]
    digest = hashlib.sha256()
    w = out.get("witness")
    parts = [w.rho, w.usharp, w.det_rho] if w is not None else []
    for part in parts + [out.get("metric-Y"), out.get("metric-Yhat")]:
        digest.update(_canonical(part).encode())
        digest.update(b"\n")
    return {
        "attempted": len(names),
        "failed": len(false),
        "fingerprints": {"intermediates": digest.hexdigest()},
        "extra": {"false_facts": false, "error": out["error"]},
    }


def _canonical(obj) -> str:
    """Order-independent text of an exact matrix or rational function."""
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_canonical(x) for x in obj) + "]"
    num = getattr(obj, "num", None)
    if num is not None:
        return "(%s)/(%s)" % (_canonical_poly(num), _canonical_poly(obj.den))
    return repr(obj)


def _canonical_poly(p) -> str:
    return "+".join("%s,%s:%s,%s" % (a, b, c.re, c.im)
                    for (a, b), c in sorted(p.terms.items()))


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


OPERATIONS = {"mesh-ex1": run_mesh, "verify-ex1": run_verify, "exact-ex1": run_exact}
CHECKS = {"mesh-ex1": check_mesh, "verify-ex1": check_verify, "exact-ex1": check_exact}
