"""Aggregated invariant harness: one potential in, one structured report out.

run_suite drives the whole pipeline on a deterministic sample plan and runs
a fixed catalog of checks: potential isotropy, the block-graded embedding,
frame integration, factorization residuals, loop-group membership, the
Minkowski isometry, Maurer-Cartan structure, and the surface-level light-cone
geometry.  Every reported residual is a maximum over samples, never an
average, and failures are report entries rather than exceptions.

The report serializes with a fixed key order; the only nondeterministic
field (wall-clock timing) sits last and can be excluded, making reports
byte-for-byte reproducible for a fixed potential and plan.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

from .frames import integrate_frame
from .groups import _probe_exact, get_context
from .iwasawa import (
    assemble_frame,
    maurer_cartan,
    pullback_halfisotropy,
    solve_iwasawa_float,
)
from .loops import LoopMatrix
from .potentials import (
    NormalizedPotential,
    PotentialDocument,
    document_for,
    to_nilpotent,
)
from .scalars import GaussianRational, RationalFn
from .surfaces import (
    _gram_det_float,
    _stencil_weights,
    degeneracy_scan,
    extract_pair,
    isotropy_check,
    lift_columns_float,
    mink_pair_np,
    project_to_sphere,
    raise_first,
)

DEFAULT_PLAN = {
    "samples": 40,
    "fd_samples": 6,
    "radius": 0.9,
    "lambdas": ((1.0, 0.0), (0.0, 1.0)),
    "seed": 7,
    "oracle_matrices": 25,
    "tol_algebraic": 1e-10,
    "tol_fd": 1e-6,
}

# Catalog order is part of the report contract.
CHECK_NAMES = (
    "potential-isotropy",
    "nilpotent-embed",
    "frame-ode",
    "frame-unipotent",
    "iwasawa-1B",
    "iwasawa-q-offdiag",
    "iwasawa-q-unit",
    "iwasawa-q-conj-pair",
    "iwasawa-a-factor",
    "iwasawa-rho-factor",
    "frame-refactor",
    "membership-G-form",
    "membership-real-form",
    "membership-twisted",
    "minkowski-isometry",
    "uniton-window",
    "halfisotropy-pullback",
    "mc-lambda-affinity",
    "mc-flatness",
    "lift-isotropic",
    "lift-pairing",
    "projection-unit-norm",
    "conformality",
    "isotropy-order-m",
    "lambda-reality",
    "iso-oracle",
)

_FD_CHECKS = frozenset(
    ("mc-lambda-affinity", "mc-flatness", "conformality", "isotropy-order-m")
)


class VerificationReport:
    """Check results plus the context needed to reproduce them."""

    __slots__ = ("digest", "m", "plan", "singular_radii", "rejected_samples",
                 "checks", "timing_ms")

    def __init__(self, digest, m, plan, singular_radii, rejected_samples,
                 checks, timing_ms):
        self.digest = digest
        self.m = m
        self.plan = plan
        self.singular_radii = singular_radii
        self.rejected_samples = rejected_samples
        self.checks = checks
        self.timing_ms = timing_ms

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema": "verification-report/1",
            "potential_digest": self.digest,
            "m": self.m,
            "plan": self.plan,
            "singular_radii": self.singular_radii,
            "rejected_samples": self.rejected_samples,
            "checks": self.checks,
            "passed": self.passed,
        }
        if include_timing:
            out["timing_ms"] = self.timing_ms
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2) + "\n"


def _normalize_plan(plan) -> dict:
    cfg = dict(DEFAULT_PLAN)
    if plan:
        unknown = set(plan) - set(DEFAULT_PLAN)
        if unknown:
            raise ValueError("unknown plan keys: %s" % ", ".join(sorted(unknown)))
        cfg.update(plan)
    lams = []
    for lam in cfg["lambdas"]:
        if isinstance(lam, (tuple, list)):
            lam = complex(lam[0], lam[1])
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("plan lambdas must lie on the unit circle")
        lams.append(lam)
    cfg["lambdas"] = tuple(lams)
    return cfg


def _plan_for_report(cfg) -> dict:
    return {
        "samples": cfg["samples"],
        "fd_samples": cfg["fd_samples"],
        "radius": float(cfg["radius"]),
        "lambdas": [[lam.real, lam.imag] for lam in cfg["lambdas"]],
        "seed": cfg["seed"],
        "oracle_matrices": cfg["oracle_matrices"],
        "tol_algebraic": cfg["tol_algebraic"],
        "tol_fd": cfg["tol_fd"],
    }


def _draw_samples(cfg, radii, hf):
    """Deterministic disk samples avoiding the degeneracy locus.

    Radial annuli around detected singular radii are skipped, and so is any
    point where the Gram determinant is small: the locus of a general
    potential is a curve, not a circle, and residuals blow up like 1/sigma
    next to it.
    """
    rng = np.random.default_rng(cfg["seed"])
    r = float(cfg["radius"])
    pts = []
    rejected = 0
    guard = 0
    while len(pts) < cfg["samples"] and guard < 100 * cfg["samples"] + 1000:
        guard += 1
        z = complex(rng.uniform(-r, r), rng.uniform(-r, r))
        if abs(z) > r:
            continue
        if (any(abs(abs(z) - rad) < 1e-3 for rad in radii)
                or abs(_gram_det_float(hf, z)) < 1e-2):
            rejected += 1
            continue
        pts.append(z)
    return pts, rejected


def _proj_minor(v, w) -> float:
    """Scaled largest 2x2 minor of [v; w]: zero iff projectively equal."""
    s = max(float(np.abs(v).max()), float(np.abs(w).max()), 1.0)
    worst = 0.0
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, abs(v[i] * w[j] - v[j] * w[i]))
    return worst / (s * s)


def _probe_bipoly(mat, z) -> float:
    worst = 0.0
    for row in mat:
        for p in row:
            worst = max(worst, abs(p.evaluate(z)))
    return worst


def _rand_gr(rng) -> GaussianRational:
    return GaussianRational(
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
        Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
    )


def _rand_exact_loop(rng, d) -> LoopMatrix:
    mat = [[RationalFn.const(_rand_gr(rng)) for _ in range(d)] for _ in range(d)]
    return LoopMatrix(d, d, {0: mat})


def run_suite(pot, plan=None) -> VerificationReport:
    """Execute the full catalog and return the structured report."""
    t0 = time.monotonic()
    cfg = _normalize_plan(plan)

    if isinstance(pot, PotentialDocument):
        doc = pot
        b1 = doc.b1hat()
        norm = NormalizedPotential(doc.m, doc.h, doc.hhat)
    elif isinstance(pot, NormalizedPotential):
        doc = document_for(pot)
        b1 = doc.b1hat()
        norm = pot
    else:
        raise TypeError("run_suite wants a NormalizedPotential or PotentialDocument")

    m = norm.m
    d = 2 * m + 2
    ctx = get_context(m)
    tol_a = cfg["tol_algebraic"]
    tol_f = cfg["tol_fd"]
    lams = cfg["lambdas"]

    nil = to_nilpotent(norm)
    hf = integrate_frame(nil)
    radii = degeneracy_scan(hf, r_range=(1e-3, max(2.5, 1.5 * cfg["radius"])))
    samples, rejected = _draw_samples(cfg, radii, hf)
    fd_samples = samples[: cfg["fd_samples"]]
    probe = samples[0] if samples else complex(1, 1) / 3

    results = {}
    errors = {}

    def record(name, residual, count):
        results[name] = (float(residual), count)

    def fail(name, exc, count=0):
        results[name] = (float("inf"), count)
        errors[name] = "%s: %s" % (type(exc).__name__, exc)

    # -- exact structural checks --------------------------------------------

    try:
        iso = b1 @ b1.T
        if all(p.is_zero() for row in iso for p in row):
            record("potential-isotropy", 0.0, 1)
        else:
            record("potential-isotropy", _probe_bipoly(iso, probe), 1)
    except Exception as e:
        fail("potential-isotropy", e)

    try:
        emb = ctx.iso_P(norm.eta_loop()) - nil.full_loop()
        record("nilpotent-embed", 0.0 if emb.is_zero()
               else _probe_exact(emb, probe), 1)
    except Exception as e:
        fail("nilpotent-embed", e)

    H = hf.H_loop()
    try:
        ode = H.d_dz() - H @ nil.full_loop()
        record("frame-ode", 0.0 if ode.is_zero() else _probe_exact(ode, probe), 1)
    except Exception as e:
        fail("frame-ode", e)

    try:
        E = H - LoopMatrix.identity(d)
        cube = E @ E @ E
        record("frame-unipotent",
               0.0 if cube.is_zero() else _probe_exact(cube, probe), 1)
    except Exception as e:
        fail("frame-unipotent", e)

    # -- per-sample float factorization and membership -----------------------

    iwasawa_keys = ("1B", "q-offdiag", "q-unit", "q-conj-pair",
                    "a-factor", "rho-factor")
    agg = {k: 0.0 for k in iwasawa_keys}
    agg.update({
        "frame-refactor": 0.0, "membership-G-form": 0.0,
        "membership-real-form": 0.0, "membership-twisted": 0.0,
        "minkowski-isometry": 0.0, "uniton-window": 0.0,
        "lift-isotropic": 0.0, "lift-pairing": 0.0,
        "projection-unit-norm": 0.0, "lambda-reality": 0.0,
    })
    loop_error = None
    G_np = ctx.np("minkowski")
    n_eval = 0
    try:
        for z in samples:
            w = solve_iwasawa_float(hf, z)
            for k in iwasawa_keys:
                agg[k] = max(agg[k], w.residuals[k])
            fr = assemble_frame(hf, w)
            agg["frame-refactor"] = max(agg["frame-refactor"],
                                        fr.factor_residual or 0.0)
            F = fr.F
            for which, name in (("G(2m+2,C)", "membership-G-form"),
                                ("real-form-via-tau", "membership-real-form"),
                                ("twisted-via-D0", "membership-twisted")):
                rep = ctx.check_membership(F, which, z=z, lams=lams)
                agg[name] = max(agg[name], rep["max_residual"])
            R = ctx.iso_P_inv(F)
            for lam in lams:
                Rv = R.evaluate(z, lam)
                agg["minkowski-isometry"] = max(
                    agg["minkowski-isometry"],
                    float(np.abs(Rv.imag).max()),
                    float(np.abs(Rv.T @ G_np @ Rv - G_np).max()),
                )
            window = sorted(F.coeffs)
            agg["uniton-window"] = max(
                agg["uniton-window"],
                float(max(0, max(abs(window[0]), abs(window[-1])) - 2)),
            )
            for lam in lams:
                Yc, Yhc = lift_columns_float(w, lam)
                scale = max(1.0, float(np.abs(Yc).max()) ** 2,
                            float(np.abs(Yhc).max()) ** 2)
                agg["lift-isotropic"] = max(
                    agg["lift-isotropic"],
                    abs(mink_pair_np(Yc, Yc)) / scale,
                    abs(mink_pair_np(Yhc, Yhc)) / scale,
                )
                agg["lift-pairing"] = max(
                    agg["lift-pairing"], abs(mink_pair_np(Yc, Yhc) + 1.0))
                agg["lambda-reality"] = max(
                    agg["lambda-reality"],
                    _proj_minor(np.conj(Yc), Yc),
                    _proj_minor(np.conj(Yhc), Yhc),
                )
                for v in (Yc, Yhc):
                    y = v[1:] / v[0]
                    agg["projection-unit-norm"] = max(
                        agg["projection-unit-norm"],
                        abs(float(np.linalg.norm(y)) - 1.0),
                    )
            n_eval += 1
    except Exception as e:
        loop_error = e

    per_sample = {
        "iwasawa-1B": "1B", "iwasawa-q-offdiag": "q-offdiag",
        "iwasawa-q-unit": "q-unit", "iwasawa-q-conj-pair": "q-conj-pair",
        "iwasawa-a-factor": "a-factor", "iwasawa-rho-factor": "rho-factor",
    }
    for name, key in per_sample.items():
        if loop_error is not None and n_eval == 0:
            fail(name, loop_error)
        else:
            record(name, agg[key], n_eval)
    for name in ("frame-refactor", "membership-G-form", "membership-real-form",
                 "membership-twisted", "minkowski-isometry", "uniton-window",
                 "lift-isotropic", "lift-pairing", "projection-unit-norm",
                 "lambda-reality"):
        if loop_error is not None:
            fail(name, loop_error, n_eval)
        else:
            record(name, agg[name], n_eval)

    # -- Maurer-Cartan coefficient structure -----------------------------------

    try:
        res = 0.0
        for z in fd_samples:
            a1, _ = maurer_cartan(hf, z)
            rep = pullback_halfisotropy(ctx, a1)
            res = max(res, rep["b1_isotropy"], rep["offblock_residual"],
                      rep["pairing_residual"])
        record("halfisotropy-pullback", res, len(fd_samples))
    except Exception as e:
        fail("halfisotropy-pullback", e, 0)

    # -- finite-difference structure checks -----------------------------------

    try:
        res = 0.0
        S0 = ctx.np("S0")

        weights = _stencil_weights(1)

        def flatness_at(z, h):
            offsets = [0] + [k * axis for axis in (1, 1j) for k in weights]
            pieces = {dz: maurer_cartan(hf, z + dz * h) for dz in offsets}
            worst = 0.0
            for lam in lams:
                AB = {dz: (p1 / lam + p0,
                           lam * (S0 @ p1.conj() @ S0) + S0 @ p0.conj() @ S0)
                      for dz, (p1, p0) in pieces.items()}

                def d(axis, i):
                    return sum(c * AB[k * axis][i] for k, c in weights.items()) / h

                A, B = AB[0]
                dzbar_A = (d(1, 0) + 1j * d(1j, 0)) / 2
                dz_B = (d(1, 1) - 1j * d(1j, 1)) / 2
                flat = dz_B - dzbar_A + A @ B - B @ A
                scale = max(1.0, float(np.abs(A).max()) * float(np.abs(B).max()))
                worst = max(worst, float(np.abs(flat).max()) / scale)
            return worst

        for z in fd_samples:
            # A and B are closed forms, so only the stencil's O(h^4)
            # truncation and O(eps/h) rounding remain; near the locus they
            # meet around h = 3e-5, at about 1e-10.
            res = max(res, flatness_at(z, 3e-5))
        record("mc-flatness", res, len(fd_samples))
    except Exception as e:
        fail("mc-flatness", e, 0)

    try:
        res = 0.0
        h = 1e-5
        for z in fd_samples:
            a1, a0 = maurer_cartan(hf, z)
            frames = {}
            for dz in (h, -h, 1j * h, -1j * h, 0.0):
                frames[dz] = assemble_frame(hf, solve_iwasawa_float(hf, z + dz)).F
            for lam in lams:
                Fv = {dz: fr.evaluate(z, lam) for dz, fr in frames.items()}
                dxF = (Fv[h] - Fv[-h]) / (2 * h)
                dyF = (Fv[1j * h] - Fv[-1j * h]) / (2 * h)
                Fz = (dxF - 1j * dyF) / 2
                lhs = np.linalg.inv(Fv[0.0]) @ Fz
                rhs = a1 / lam + a0
                scale = max(1.0, float(np.abs(rhs).max()))
                res = max(res, float(np.abs(lhs - rhs).max()) / scale)
        record("mc-lambda-affinity", res, len(fd_samples))
    except Exception as e:
        fail("mc-lambda-affinity", e, 0)

    # -- surface geometry (finite differences on the honest lifts) ------------

    try:
        res = 0.0
        h = 1e-4
        fr0 = assemble_frame(hf, solve_iwasawa_float(hf, probe))
        for lam in lams:
            pair = extract_pair(fr0, lam)
            proj = project_to_sphere(pair, "Y")
            pts = [p for z in fd_samples for p in (z + h, z - h, z + 1j * h, z - 1j * h)]
            y, errors = proj(np.array(pts, dtype=complex))
            raise_first(errors)
            for yp, ym, yip, yim in y.reshape(len(fd_samples), 4, y.shape[-1]):
                yx = (yp - ym) / (2 * h)
                yy = (yip - yim) / (2 * h)
                yz = (yx - 1j * yy) / 2
                res = max(res, abs(complex(np.dot(yz, yz))) /
                          max(1.0, float(np.dot(yz.real, yz.real))))
        record("conformality", res, len(fd_samples))
    except Exception as e:
        fail("conformality", e, 0)

    try:
        res = 0.0
        fr0 = assemble_frame(hf, solve_iwasawa_float(hf, probe))
        for lam in lams:
            pair = extract_pair(fr0, lam)
            for which in ("Y", "Yhat"):
                rep = isotropy_check(pair, which, samples=fd_samples)
                res = max(res, rep["max_residual"])
        record("isotropy-order-m", res, len(fd_samples))
    except Exception as e:
        fail("isotropy-order-m", e, 0)

    # -- dual-implementation isometry oracle ----------------------------------

    try:
        rng = np.random.default_rng(cfg["seed"] + 1)
        worst = 0.0
        pending = None
        for _ in range(cfg["oracle_matrices"]):
            A = _rand_exact_loop(rng, d)
            PA = ctx.iso_P(A)
            diff = PA - ctx.iso_P_indexwise(A)
            if not diff.is_zero():
                worst = max(worst, _probe_exact(diff, probe))
            if pending is None:
                pending = A, PA
            else:
                B, PB = pending
                hom = ctx.iso_P(B @ A) - PB @ PA
                if not hom.is_zero():
                    worst = max(worst, _probe_exact(hom, probe))
                pending = None
        record("iso-oracle", worst, cfg["oracle_matrices"])
    except Exception as e:
        fail("iso-oracle", e, 0)

    # -- assemble the report ---------------------------------------------------

    checks = []
    for name in CHECK_NAMES:
        residual, count = results[name]
        tol = tol_f if name in _FD_CHECKS else tol_a
        entry = {
            "name": name,
            "kind": "finite-difference" if name in _FD_CHECKS else "algebraic",
            "samples": count,
            "max_residual": residual,
            "tolerance": tol,
            "passed": residual <= tol,
        }
        if name in errors:
            entry["error"] = errors[name]
        checks.append(entry)

    return VerificationReport(
        digest=doc.digest(),
        m=m,
        plan=_plan_for_report(cfg),
        singular_radii=[float(r) for r in radii],
        rejected_samples=rejected,
        checks=checks,
        timing_ms=int(1000 * (time.monotonic() - t0)),
    )
