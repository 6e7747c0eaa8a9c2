"""Aggregated invariant harness: one potential in, one structured report out.

run_suite drives the whole pipeline on a deterministic sample plan and runs
a fixed catalog of checks: potential isotropy, the block-graded embedding,
frame integration, factorization residuals, loop-group membership, the
Minkowski isometry, Maurer-Cartan structure, and the surface-level light-cone
geometry.  Every reported residual is a maximum over samples, never an
average, and failures are report entries rather than exceptions.

The four finite-difference checks (mc-flatness, mc-lambda-affinity,
conformality and isotropy-order-m) live here, with their stencils: they
test closed forms at stencil points that this module factorizes.

The report serializes with a fixed key order; the only nondeterministic
field (wall-clock timing) sits last and can be excluded, making reports
byte-for-byte reproducible for a fixed potential and plan.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import time

import numpy as np

from .errors import StepSizeTooCoarse
from .frames import integrate_frame
from .groups import LAMBDAS, get_context
from .iwasawa import (
    assemble_frame,
    maurer_cartan,
    pullback_halfisotropy,
    solve_iwasawa_float,
)
from .loops import LoopMatrix, _bind, _gr_matmul, exact_matrix
from .potentials import NormalizedPotential, to_nilpotent
from .scalars import _cmul_np, _gr
from .surfaces import (
    SurfacePair,
    _gram_det_float,
    _lift_index,
    _project,
    degeneracy_scan,
    lift_columns_float,
    mink_pair_np,
)

DEFAULT_PLAN = {
    "samples": 40,
    "fd_samples": 6,
    "radius": 0.9,
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

# Checks of the float factorization, by residual key, and of the frame
# assembled from it.
_IWASAWA_CHECKS = {
    "iwasawa-1B": "1B", "iwasawa-q-offdiag": "q-offdiag",
    "iwasawa-q-unit": "q-unit", "iwasawa-q-conj-pair": "q-conj-pair",
    "iwasawa-a-factor": "a-factor", "iwasawa-rho-factor": "rho-factor",
}
_FRAME_CHECKS = ("frame-refactor", "membership-G-form", "membership-real-form",
                 "membership-twisted", "minkowski-isometry", "uniton-window",
                 "lift-isotropic", "lift-pairing", "projection-unit-norm",
                 "lambda-reality")
_MC_CHECKS = ("halfisotropy-pullback", "mc-flatness", "mc-lambda-affinity")


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
    for key in ("seed", "samples", "fd_samples", "oracle_matrices"):
        n = cfg[key]
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError("plan %s must be a non-negative int, got %r" % (key, n))
    real = {}
    for key in ("radius", "tol_algebraic", "tol_fd"):
        x = cfg[key]
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError("plan %s must be a real number, got %r" % (key, x))
        try:
            real[key] = float(x)
        except OverflowError:
            raise ValueError("plan %s must be within the float range" % key) from None
        # A Python int is kept, so the report shows it as given.
        if not isinstance(x, int):
            cfg[key] = real[key]
    if not 0 < real["radius"] < math.inf:
        raise ValueError("plan radius must be a positive finite number")
    if not all(0 <= real[k] < math.inf for k in ("tol_algebraic", "tol_fd")):
        raise ValueError("plan tolerances must be non-negative finite numbers")
    return cfg


def _plan_for_report(cfg) -> dict:
    return {
        "samples": cfg["samples"],
        "fd_samples": cfg["fd_samples"],
        "radius": float(cfg["radius"]),
        "lambdas": [[lam.real, lam.imag] for lam in LAMBDAS],
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
    next to it.  Candidates are drawn in chunks of the sample count, with one
    stacked determinant per chunk (about the cost of a single candidate's),
    and tested in order; draws past the last sample are discarded.
    """
    rng = np.random.default_rng(cfg["seed"])
    r = float(cfg["radius"])
    n, left = cfg["samples"], 100 * cfg["samples"] + 1000
    pts, rejected = [], 0
    while len(pts) < n and left:
        zs = [complex(x, y) for x, y in rng.uniform(-r, r, size=(min(n, left), 2)).tolist()]
        for z, det in zip(zs, _gram_det_float(hf, np.array(zs)).tolist()):
            if len(pts) == n:
                break
            left -= 1
            if abs(z) > r:
                continue
            if any(abs(abs(z) - rad) < 1e-3 for rad in radii) or abs(det) < 1e-2:
                rejected += 1
                continue
            pts.append(z)
    return pts, rejected


def raise_first(errors):
    """Raise the first error of a stacked result, if any sample failed."""
    for err in errors:
        if err is not None:
            raise err


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| entrywise by hypot, as abs() of a complex scalar computes it; numpy's
    array abs can differ from it in the last bit."""
    return np.hypot(x.real, x.imag)


def _row_norms(y: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex stack, summed as np.linalg.norm
    sums one vector: a BLAS dot of the real parts plus one of the imaginary."""
    def dot(x):
        return (x[:, None, :] @ x[:, :, None])[:, 0, 0]
    return np.sqrt(dot(y.real) + dot(y.imag))


def _worst(*values) -> float:
    """The largest of 0.0 and every entry of values, NaN entries skipped, as a
    running max() over samples keeps it."""
    return max([0.0] + [float(np.fmax.reduce(np.ravel(v), initial=0.0)) for v in values])


def _entry_max(X: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix of a stack."""
    return np.abs(X).max(axis=(-2, -1))


def _proj_minor(v, w) -> np.ndarray:
    """Scaled largest 2x2 minor of [v; w] for each row of two stacks: zero iff
    the rows are projectively equal."""
    s = np.maximum(np.maximum(np.abs(v).max(axis=-1), np.abs(w).max(axis=-1)), 1.0)
    i, j = np.triu_indices(v.shape[-1], 1)
    minors = _cmul_np(v[:, i], w[:, j]) - _cmul_np(v[:, j], w[:, i])
    return _modulus(minors).max(axis=-1, initial=0.0) / (s * s)


def _frame_checks(ctx, fr) -> dict:
    """The refactor, membership, isometry, window and lift checks of a float
    frame stacked over samples, each the largest over the samples and LAMBDAS."""
    F, w = fr.F, fr.witness
    out = {"frame-refactor": _worst(fr.factor_residual)}
    for which, name in (("G(2m+2,C)", "membership-G-form"),
                        ("real-form-via-tau", "membership-real-form"),
                        ("twisted-via-D0", "membership-twisted")):
        out[name] = ctx.check_membership(F, which)["max_residual"]
    G = ctx.np("minkowski")
    R = ctx.iso_P_inv(F)
    worst = 0.0
    for lam in LAMBDAS:
        Rv = R.evaluate(w.z, lam)
        worst = _worst(worst, np.abs(Rv.imag), np.abs(Rv.swapaxes(-1, -2) @ G @ Rv - G))
    out["minkowski-isometry"] = worst
    lo, hi = F.window()
    out["uniton-window"] = float(max(0, max(abs(lo), abs(hi)) - 2))
    isotropic = pairing = reality = unit = 0.0
    for lam in LAMBDAS:
        Yc, Yhc = lift_columns_float(w, lam)
        scale = np.array([max(1.0, a ** 2, b ** 2) for a, b in
                          zip(np.abs(Yc).max(axis=-1).tolist(),
                              np.abs(Yhc).max(axis=-1).tolist())])
        isotropic = _worst(isotropic, _modulus(mink_pair_np(Yc, Yc)) / scale,
                           _modulus(mink_pair_np(Yhc, Yhc)) / scale)
        pairing = _worst(pairing, _modulus(mink_pair_np(Yc, Yhc) + 1.0))
        reality = _worst(reality, _proj_minor(np.conj(Yc), Yc),
                         _proj_minor(np.conj(Yhc), Yhc))
        for v in (Yc, Yhc):
            unit = _worst(unit, np.abs(_row_norms(v[:, 1:] / v[:, :1]) - 1.0))
    out.update({"lift-isotropic": isotropic, "lift-pairing": pairing,
                "lambda-reality": reality, "projection-unit-norm": unit})
    return out


def _attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return e


def _exact_size(residual: LoopMatrix, probe) -> float:
    """0.0 for an exact loop that vanishes identically, else the largest entry
    of any one coefficient at probe (their sum can cancel at each of LAMBDAS,
    as (lambda - 1)(lambda - i) does), or math.inf if all vanish there."""
    if residual.is_zero():
        return 0.0
    size = max(float(np.abs(_bind(c, probe)).max()) for c in residual.coeffs.values())
    return size or math.inf


def _iso_oracle(ctx, cfg, probe) -> float:
    """iso_P against its index-wise form, and its homomorphism property on
    consecutive pairs, over random exact constant matrices.

    Matrix k is the coefficient of loop power k, and the product of pair
    (k, k+1) that of power k: the powers are the batch axis, as both forms
    act power by power, so one call of each checks every matrix, and
    _exact_size reports the worst entry over all matrices."""
    n, d = cfg["oracle_matrices"], ctx.dim
    rng = np.random.default_rng(cfg["seed"] + 1)
    # Entry by entry a/p + (b/q) i, the four ints drawn in this order: one
    # draw with array bounds gives the values of the scalar draws.
    a, p, b, q = rng.integers(np.tile([-3, 1, -3, 1], n * d * d), 4).reshape(-1, 4).T
    mats = exact_matrix([_gr(*e) for e in zip(
        (a * q).tolist(), (b * p).tolist(), (p * q).tolist())]).reshape(n, d, d)
    A = LoopMatrix(d, d, dict(enumerate(mats)))
    PA = ctx.iso_P(A)
    worst = _exact_size(PA - ctx.iso_P_indexwise(A), probe)
    # A zero matrix has no power in PA, and is its own image.
    images = [PA.coeffs.get(k, mat) for k, mat in enumerate(mats)]
    pairs = range(0, n - 1, 2)
    BA = LoopMatrix(d, d, {k: _gr_matmul(mats[k], mats[k + 1]) for k in pairs})
    PBPA = LoopMatrix(d, d, {k: _gr_matmul(images[k], images[k + 1]) for k in pairs})
    return max(worst, _exact_size(ctx.iso_P(BA) - PBPA, probe))


def _stencil_weights(order: int):
    """Fourth-order central weights for the order-th one-dimensional derivative."""
    table = {
        0: {0: 1.0},
        1: {-2: 1 / 12, -1: -2 / 3, 1: 2 / 3, 2: -1 / 12},
        2: {-2: -1 / 12, -1: 4 / 3, 0: -5 / 2, 1: 4 / 3, 2: -1 / 12},
        3: {-3: 1 / 8, -2: -1.0, -1: 13 / 8, 1: -13 / 8, 2: 1.0, 3: -1 / 8},
        4: {-3: -1 / 6, -2: 2.0, -1: -13 / 2, 0: 28 / 3, 1: -13 / 2, 2: 2.0,
            3: -1 / 6},
    }
    if order not in table:
        raise ValueError("stencil order %d not supported" % order)
    return table[order]


def _maurer_cartan_checks(hf, fd_samples) -> dict:
    """halfisotropy-pullback, mc-flatness and mc-lambda-affinity at the fd
    samples: each check's residual, or the exception it failed with.

    One maurer_cartan stack covers the flatness stencil around every sample,
    the sample itself first, and the other two checks read that first point;
    the affinity check's frames come from one more stacked solve.  A check
    fails with its first error in sample order, a sample's connection
    coefficients before its frames.
    """
    ctx = get_context(hf.m)
    d = ctx.dim
    n = len(fd_samples)
    weights = _stencil_weights(1)
    offsets = [0] + [k * axis for axis in (1, 1j) for k in weights]
    width = len(offsets)
    h_flat = 3e-5
    try:
        a1, a0, errors = maurer_cartan(hf, np.array(
            [z + dz * h_flat if dz else z for z in fd_samples for dz in offsets],
            dtype=complex))
    except Exception as e:
        return dict.fromkeys(_MC_CHECKS, e)
    out = {}

    try:
        raise_first(errors[::width])
        out["halfisotropy-pullback"] = _worst(*pullback_halfisotropy(ctx, a1[::width]).values())
    except Exception as e:
        out["halfisotropy-pullback"] = e

    try:
        raise_first(errors)
        S0 = ctx.np("S0")
        at = {dz: j for j, dz in enumerate(offsets)}
        p1 = a1.reshape(n, width, d, d)
        p0 = a0.reshape(n, width, d, d)
        res = 0.0
        for lam in LAMBDAS:
            # A and B are closed forms, so only the stencil's O(h^4)
            # truncation and O(eps/h) rounding remain; near the locus they
            # meet around h = 3e-5, at about 1e-10.
            AB = (p1 / lam + p0, lam * (S0 @ p1.conj() @ S0) + S0 @ p0.conj() @ S0)

            def deriv(axis, i):
                return sum(c * AB[i][:, at[k * axis]] for k, c in weights.items()) / h_flat

            A, B = AB[0][:, 0], AB[1][:, 0]
            dzbar_A = (deriv(1, 0) + 1j * deriv(1j, 0)) / 2
            dz_B = (deriv(1, 1) - 1j * deriv(1j, 1)) / 2
            flat = dz_B - dzbar_A + A @ B - B @ A
            scale = np.maximum(1.0, _entry_max(A) * _entry_max(B))
            res = _worst(res, _entry_max(flat) / scale)
        out["mc-flatness"] = res
    except Exception as e:
        out["mc-flatness"] = e

    try:
        h = 1e-5
        steps = (h, -h, 1j * h, -1j * h, 0.0)
        frames = assemble_frame(hf, solve_iwasawa_float(
            hf, np.array([z + dz for z in fd_samples for dz in steps], dtype=complex)))
        raise_first([e for i in range(n)
                     for e in [errors[i * width]] + frames.errors[5 * i:5 * i + 5]])
        rhs0, rhs1 = a0[::width], a1[::width]
        res = 0.0
        for lam in LAMBDAS:
            Fv = frames.F.evaluate(frames.z, lam).reshape(n, 5, d, d)
            dxF = (Fv[:, 0] - Fv[:, 1]) / (2 * h)
            dyF = (Fv[:, 2] - Fv[:, 3]) / (2 * h)
            Fz = (dxF - 1j * dyF) / 2
            lhs = np.linalg.inv(Fv[:, 4]) @ Fz
            rhs = rhs1 / lam + rhs0
            scale = np.maximum(1.0, _entry_max(rhs))
            res = _worst(res, _entry_max(lhs - rhs) / scale)
        out["mc-lambda-affinity"] = res
    except Exception as e:
        out["mc-lambda-affinity"] = e
    return out


def _sample_checks(ctx, hf, samples):
    """The iwasawa-* and frame checks over one stack of all samples: the
    number of samples they cover, and each check's residual or the error it
    failed with.

    The checks stop at the first sample that fails, in sample order: the
    frame checks fail with its error, and the factorization residuals
    include it only if it failed in assembly, so they fail only when it is
    sample 0.
    """
    w = solve_iwasawa_float(hf, np.array(samples, dtype=complex))
    fr = assemble_frame(hf, w)
    n_eval = next((k for k, e in enumerate(fr.errors) if e is not None), len(samples))
    out = {name: _worst(w.residuals[key][w.index <= n_eval])
           for name, key in _IWASAWA_CHECKS.items()}
    if n_eval == len(samples):
        out.update(_frame_checks(ctx, fr))
    else:
        failed = _FRAME_CHECKS if n_eval else tuple(_IWASAWA_CHECKS) + _FRAME_CHECKS
        out.update(dict.fromkeys(failed, fr.errors[n_eval]))
    return n_eval, out


def _conformality(pairs, fd_samples) -> float:
    """|<y_z, y_z>| of the projected lift y, by central differences at each fd
    sample, relative to max(1, |Re y_z|^2), which is about half of |y_z|^2
    for a conformal y.  One factorization of the difference points serves
    every pair."""
    h = 1e-4
    pts = np.array([p for z in fd_samples for p in (z + h, z - h, z + 1j * h, z - 1j * h)],
                   dtype=complex)
    w = solve_iwasawa_float(pairs[0].hf, pts)
    res = 0.0
    for pair in pairs:
        Y, _, errors = pair.values(w)
        y, sample_errors = _project(Y, errors, pts)
        raise_first(sample_errors)
        for yp, ym, yip, yim in y.reshape(len(fd_samples), 4, y.shape[-1]):
            yx = (yp - ym) / (2 * h)
            yy = (yip - yim) / (2 * h)
            yz = (yx - 1j * yy) / 2
            res = max(res, abs(complex(np.dot(yz, yz))) /
                      max(1.0, float(np.dot(yz.real, yz.real))))
    return res


def _fd_z_derivative(values, order: int, h: float):
    """d^order/dz^order from a dict (a, b) -> values at z + (a+ib)h, one row
    per sample z.

    Expands (d/dz)^j = 2^-j * sum_k C(j,k) (-i)^k d_x^{j-k} d_y^k with
    fourth-order central stencils in each axis.
    """
    acc = None
    for k in range(order + 1):
        wx = _stencil_weights(order - k)
        wy = _stencil_weights(k)
        coef = math.comb(order, k) * (-1j) ** k
        for a, ca in wx.items():
            for b, cb in wy.items():
                term = coef * ca * cb * values[(a, b)]
                acc = term if acc is None else acc + term
    return acc / (2 * h) ** order if order else acc


def _fd_offsets(max_order: int):
    """Grid offsets (a, b) of the stencil for z-derivatives up to max_order."""
    span = 3 if max_order >= 3 else 2
    return [(a, b) for a in range(-span, span + 1) for b in range(-span, span + 1)]


ISOTROPY_STEP = 2e-3


def _isotropy_fd(pair: SurfacePair, which: str, samples, lifts) -> dict:
    """surfaces.isotropy_check of a float pair, up to order m, by finite
    differences at the samples, refining the step from ISOTROPY_STEP while
    the residual fails and keeps improving.  lifts maps a step to
    pair.values at z + (a + ib) step for each sample z in order and each
    offset (a, b) of _fd_offsets(m)."""
    max_order = pair.m
    idx = _lift_index(which)
    if not samples:
        raise ValueError("float isotropy check needs sample points")

    offsets = _fd_offsets(max_order)

    def run(step):
        """Worst pairing per (j, l) over the samples, each scaled by its own
        derivative norms.

        The per-pair scale measures achieved cancellation, which keeps the
        check meaningful where high derivatives dwarf the lift itself.  Each
        sample's row has the bits of one vector's np.linalg.norm and abs(),
        and fmax from 0.0 skips NaN as a running max() does.
        """
        values = lifts(step)
        raise_first(values[2])
        grid = values[idx].reshape(len(samples), len(offsets), -1)
        rows = {ab: grid[:, k] for k, ab in enumerate(offsets)}
        derivs = [_fd_z_derivative(rows, j, step) for j in range(max_order + 1)]
        norms = [np.fmax(1.0, _row_norms(v)) for v in derivs]
        out = {}
        for j in range(1, max_order + 1):
            for l in range(j, max_order + 1):
                val = _modulus(mink_pair_np(derivs[j], derivs[l])) / (norms[j] * norms[l])
                out["(%d,%d)" % (j, l)] = float(np.fmax.reduce(val, initial=0.0))
        return out

    h = ISOTROPY_STEP
    tol = 1e-6 * (1.0 + 1e-13 / h ** max_order)

    # Truncation can dominate near poles of the lift; refine until the
    # residual stops improving or passes.
    best = run(h)
    worst = max(best.values())
    step = h
    prev = worst
    for k in (2, 4, 8):
        if worst <= tol:
            break
        finer = run(h / k)
        worst_finer = max(finer.values())
        improving = worst_finer < prev / 2
        prev = worst_finer
        if worst_finer < worst:
            best, worst, step = finer, worst_finer, h / k
        if not improving:
            break
    else:
        if worst > tol and improving:
            raise StepSizeTooCoarse(
                "isotropy residual %.3e still truncation-dominated at step %.1e;"
                " refine the step" % (worst, step)
            )
    return {"which": which, "max_order": max_order, "pairs": best,
            "max_residual": worst, "step": step, "tolerance": tol}


def _isotropy_order_m(pairs, fd_samples) -> float:
    """The worst _isotropy_fd residual of both lifts of every pair.

    Each check refines its step on its own, but a step's stencil is
    factorized once, for the first check that asks for it, and each pair's
    lifts there are evaluated once for both of its checks; so each check
    reads what it reads alone.
    """
    hf = pairs[0].hf
    offsets = _fd_offsets(hf.m)

    @functools.cache
    def stencil(step):
        return solve_iwasawa_float(hf, np.array([z + (a + 1j * b) * step for z in fd_samples
                                                 for a, b in offsets]))

    worst = 0.0
    for pair in pairs:
        @functools.cache
        def lifts(step, pair=pair):
            return pair.values(stencil(step))

        for which in ("Y", "Yhat"):
            check = _isotropy_fd(pair, which, fd_samples, lifts)
            worst = max(worst, check["max_residual"])
    return worst


def run_suite(pot, plan=None) -> VerificationReport:
    """Execute the full catalog on a NormalizedPotential and return the
    structured report.

    potential-isotropy checks pot.b1hat(), its b1hat override if it has one;
    every other check reads only h and hhat, through eta_loop and
    to_nilpotent.  The report's potential_digest is pot.digest().  The four
    exact identities (potential-isotropy, nilpotent-embed, frame-ode and
    frame-unipotent) are each _exact_size of one residual loop.

    Each check, or each group of checks computed together, gives its
    residual or the exception it failed with, and one loop turns those into
    report entries.  The float checks run on numpy stacks of samples, and
    each distinct point is factorized once: one factorization and one frame
    for all samples, one stack of connection coefficients for the fd samples
    and their flatness stencils, one frame stack for mc-lambda-affinity, one
    factorization of the conformality points for both pairs, and one of the
    isotropy stencil per step for both pairs and both lifts; the pairs'
    closed forms read those witnesses.  Each sample keeps the bits of a
    stack of one and every residual is a maximum over samples, so the
    report does not depend on how the samples are stacked or which checks
    share a factorization.  When sample k is the first to fail, the checks that need its frame fail with its
    error after k samples, and the factorization residuals cover samples
    0..k-1, and k itself if it failed only its refactor check.  A float pair
    evaluates its lifts at any sample, but conformality and
    isotropy-order-m also fail with sample 0's error when it has one.
    """
    t0 = time.monotonic()
    cfg = _normalize_plan(plan)

    if not isinstance(pot, NormalizedPotential):
        raise TypeError("run_suite wants a NormalizedPotential")
    m = pot.m
    ctx = get_context(m)

    hf = integrate_frame(to_nilpotent(pot))
    radii = degeneracy_scan(hf, r_range=(1e-3, max(2.5, 1.5 * cfg["radius"])))
    samples, rejected = _draw_samples(cfg, radii, hf)
    fd_samples = samples[: cfg["fd_samples"]]
    # An exact identity that does not hold is measured at sample 0.
    probe = samples[0] if samples else complex(1, 1) / 3
    H = hf.H_loop()

    def potential_isotropy():
        b1 = pot.b1hat()
        return LoopMatrix.from_constant(b1 @ b1.T)

    def frame_unipotent():
        E = H - LoopMatrix.identity(H.rows)
        return E @ E @ E

    # The exact identities as loops that vanish when they hold.
    residuals = (
        ("potential-isotropy", potential_isotropy),
        ("nilpotent-embed", lambda: ctx.iso_P(pot.eta_loop()) - hf.potential_loop()),
        ("frame-ode", lambda: H.d_dz() - H @ hf.potential_loop()),
        ("frame-unipotent", frame_unipotent),
    )
    # (name, residual or the exception it failed with, samples covered)
    results = [(name, _attempt(lambda: _exact_size(residual(), probe)), 1)
               for name, residual in residuals]

    n_eval, stack = 0, dict.fromkeys(tuple(_IWASAWA_CHECKS) + _FRAME_CHECKS, 0.0)
    if samples:
        try:
            n_eval, stack = _sample_checks(ctx, hf, samples)
        except Exception as e:
            stack = dict.fromkeys(stack, e)
    results += [(name, value, n_eval) for name, value in stack.items()]

    mc = (_maurer_cartan_checks(hf, fd_samples) if fd_samples
          else dict.fromkeys(_MC_CHECKS, 0.0))
    results += [(name, value, len(fd_samples)) for name, value in mc.items()]

    # Sample 0 is the first fd sample: these two checks fail with its error,
    # if it has one, as the frame checks do.
    pairs = [SurfacePair(m, lam, hf) for lam in LAMBDAS]
    first_error = stack["frame-refactor"] if samples and n_eval == 0 else None
    for name, check in (("conformality", _conformality),
                        ("isotropy-order-m", _isotropy_order_m)):
        value = _attempt(check, pairs, fd_samples) if first_error is None else first_error
        results.append((name, value, len(fd_samples)))

    results.append(("iso-oracle", _attempt(_iso_oracle, ctx, cfg, probe),
                    cfg["oracle_matrices"]))

    checks = {}
    for name, value, count in results:
        failed = isinstance(value, Exception)
        fd = name in _FD_CHECKS
        tol = cfg["tol_fd"] if fd else cfg["tol_algebraic"]
        residual = float("inf") if failed else float(value)
        entry = {
            "name": name,
            "kind": "finite-difference" if fd else "algebraic",
            # A failed check covers no samples, except the stacked sample
            # checks, which cover those before the failing one.
            "samples": 0 if failed and name not in stack else count,
            "max_residual": residual,
            "tolerance": tol,
            "passed": not failed and residual <= tol,
        }
        if failed:
            entry["error"] = "%s: %s" % (type(value).__name__, value)
        checks[name] = entry

    return VerificationReport(
        digest=pot.digest(),
        m=m,
        plan=_plan_for_report(cfg),
        singular_radii=[float(r) for r in radii],
        rejected_samples=rejected,
        checks=[checks[name] for name in CHECK_NAMES],
        timing_ms=int(1000 * (time.monotonic() - t0)),
    )
