"""Light-cone lifts extracted from the factorized frame, and their geometry.

This is the closed-form layer: it never factorizes.  Exact pairs carry
their lifts as rational functions, and a float pair's evaluators take the
float witness its caller solved; verify checks them by finite differences.

The two middle columns of the frame carry an adjoint pair of light-cone
lifts.  Recombining each column's entries (middle rows give the timelike
plane, outer rows pair up j with 2m+3-j) rotates the split basis back to
coordinates where the pairing is diag(-1, 1, ..., 1) on R^{1,2m+1}.

Exact pairs store the homogeneous components as rational functions without
the common sqrt(2)/2 factor; every quadratic check carries the rational
factor 1/2 instead, and projections cancel it entirely.  The exact columns
also sit in the rational gauge (a shared unit scalar away from the honest
frame columns), which no projective, quadratic, or derivative-flag check
can see.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    ExactPathRequired,
    FirstCoordinateVanishes,
    ResidualTooLarge,
    SingularLocus,
)
from .frames import HolomorphicFrame
from .iwasawa import (
    ExtendedFrame,
    IwasawaWitness,
    _eval_mat,
    _middle_blocks_d,
    gram_axis_derivatives,
    gram_float,
    middle_columns_float,
)
from .loops import sharp
from .scalars import (
    BP_ONE,
    DENOMINATOR_FLOOR,
    BiPoly,
    GR_ONE,
    GaussianRational,
    RF_I,
    PyComplexArray,
    RationalFn,
    _cmul_np,
    as_samples,
)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


def _rf_float(rf: RationalFn, z) -> np.ndarray:
    """rf over a 1-D array of z; SingularLocus at its first tiny denominator."""
    dv = rf.den.evaluate_float(z)
    for k in np.flatnonzero(np.abs(dv) < DENOMINATOR_FLOOR)[:1]:
        raise SingularLocus("rational component denominator %.3e at z=%r"
                            % (abs(dv[k]), complex(z[k])))
    return rf.num.evaluate_float(z) / dv


def _combine(col, m, times_minus_i):
    """Recombine one frame column into R^{1,2m+1} coordinates.

    col has 2m+2 entries; the result starts with the timelike pair from the
    middle rows, then walks the outer rows j and 2m+1-j inward.
    """
    comps = [col[m] - col[m + 1], col[m] + col[m + 1]]
    for j in range(1, m + 1):
        a = col[j - 1]
        b = col[2 * m + 2 - j]
        comps.append(times_minus_i(a - b))
        comps.append(a + b)
    return comps


def mink_pair_rf(xs, ys) -> RationalFn:
    """Bilinear pairing of signature (1, 2m+1) on rational-function vectors."""
    acc = -(xs[0] * ys[0])
    for a, b in zip(xs[1:], ys[1:]):
        acc = acc + a * b
    return acc


def mink_pair_np(x: np.ndarray, y: np.ndarray):
    """Bilinear pairing of signature (1, 2m+1) of two complex vectors, or of
    each row of two stacks (last axis).

    The timelike term is CPython's complex product and the rest one BLAS dot
    per row, so each row's value has the bits of the one-vector pairing.
    """
    dot = (x[..., None, 1:] @ y[..., 1:, None])[..., 0, 0]
    return (_cmul_np(-x[..., 0], y[..., 0]) + dot)[()]


class SurfacePair:
    """Adjoint pair of homogeneous light-cone lifts at one family parameter.

    Exact pair (Y is not None), from extract_pair: Y and Yhat are tuples of
    2m+2 RationalFn in R^{1,2m+1} coordinates (stored scale: true lift =
    (sqrt(2)/2) * stored, pairings carry factor 1/2), each a polynomial read
    off the exact frame's middle blocks at an exact unit lam, over det rho,
    and reduced by its num/den gcd; induced_metric keeps its conformal
    factors in metrics, by lift.
    Float pair (Y is None), SurfacePair(hf.m, lam, hf) for lam on the unit
    circle: its lifts are read off the middle columns of the frame at the
    samples of a float witness of hf that the caller solved.
    """

    __slots__ = ("m", "lam", "hf", "Y", "Yhat", "metrics")

    def __init__(self, m, lam, hf, Y=None, Yhat=None):
        if Y is None:
            lam = complex(lam)
            if abs(abs(lam) - 1.0) > 1e-12:
                raise ValueError("family parameter must lie on the unit circle")
        self.m = m
        self.lam = lam
        self.hf = hf
        self.Y = Y
        self.Yhat = Yhat
        self.metrics = {}

    def values(self, w):
        """Homogeneous lift values of a float pair at the samples of w, a
        float witness of self.hf (solve_iwasawa_float(self.hf, z)).

        Real vectors of the honest frame (factor included), future-pointing.
        Returns (Y, Yhat, errors): rows per sample of z, NaN where the sample
        failed, and errors[k] the error sample k failed with (None where it
        passed).
        """
        errors = list(w.errors)
        Y, Yhat = lift_columns_float(w, self.lam)
        scale = np.maximum(1.0, np.maximum(np.abs(Y).max(axis=-1), np.abs(Yhat).max(axis=-1)))
        drift = np.maximum(np.abs(Y.imag).max(axis=-1), np.abs(Yhat.imag).max(axis=-1))
        for k in np.flatnonzero(drift > 1e-8 * scale):
            errors[w.index[k]] = ResidualTooLarge(
                "lift has imaginary drift %.3e at z=%r" % (drift[k], complex(w.z[k])))
        return _scatter(Y.real, w.index, errors), _scatter(Yhat.real, w.index, errors), errors


def _bind_columns(blocks, lam, li, m, times_minus_i):
    """(Y column, Yhat column) of the frame at lam, li = 1 / lam, from its
    (top, mid, bot) middle blocks, recombined by _combine before any scale
    or sign: exact blocks with an exact lam, float stacks (one row per
    sample) with a complex one, through the same products."""
    top, mid, bot = blocks
    cols = np.concatenate([li * top, mid, lam * bot], axis=-2)
    return tuple(_combine(np.moveaxis(cols[..., j], -1, 0), m, times_minus_i)
                 for j in (1, 0))


def extract_pair(frame: ExtendedFrame, lam) -> SurfacePair:
    """Read the adjoint pair off an exact frame's middle blocks at lam.

    lam must be an exact unit; it is bound on the blocks' BiPoly numerators
    as lift_columns_float binds a float one on float columns, and each
    component, a numerator over det rho, is reduced to a RationalFn.  A
    float pair needs no frame: SurfacePair(hf.m, lam, hf) reads its lifts off
    the float witness of hf it is evaluated at.
    """
    if frame.middle is None:
        raise ExactPathRequired("extract_pair reads exact frames only")
    lam = GaussianRational.coerce(lam)
    if lam.abs_squared() != 1:
        raise ValueError("exact family parameter must satisfy |lambda| = 1")
    minus_i = GaussianRational(0, -1)
    ycol, yhatcol = _bind_columns(frame.middle, lam, GR_ONE / lam, frame.m,
                                  lambda x: minus_i * x)
    # Each component is a numerator over det rho; reducing it cancels their
    # gcd, so every downstream pairing, metric, and derivative works on the
    # true denominator.
    Y = tuple(RationalFn(-c, frame.den).reduced() for c in ycol)
    Yhat = tuple(RationalFn(c, frame.den).reduced() for c in yhatcol)
    return SurfacePair(frame.m, lam, frame.hf, Y=Y, Yhat=Yhat)


def lift_columns_float(w: IwasawaWitness, lam: complex):
    """Homogeneous lift vectors before realization, as complex arrays.

    Reads the frame's middle columns at the float witness w's samples, then
    binds the loop parameter to lam.  Returns (Ycol, Yhatcol) in
    R^{1,2m+1} coordinates including the overall sqrt(2)/2 scale, one row
    per sample of the witness; phase and realization are the caller's
    business.
    """
    ycol, yhatcol = _bind_columns(middle_columns_float(w), lam, 1.0 / lam, w.m,
                                  lambda x: _cmul_np(-1j, x))
    return (-SQRT2_OVER_2 * np.stack(ycol, axis=-1),
            SQRT2_OVER_2 * np.stack(yhatcol, axis=-1))


def _scatter(rows, index, errors):
    """One row per sample: rows at positions index, NaN where errors are set."""
    out = np.full((len(errors),) + rows.shape[1:], np.nan)
    ok = np.array([errors[k] is None for k in index], dtype=bool)
    out[index[ok]] = rows[ok]
    return out


def _lift_index(which: str) -> int:
    """0 for the lift Y and 1 for Yhat, on exact and float pairs alike."""
    if which in ("Y", "y"):
        return 0
    if which in ("Yhat", "yhat"):
        return 1
    raise ValueError("which must be 'Y' or 'Yhat'")


def project_to_sphere(pair: SurfacePair, which: str = "Y"):
    """First-coordinate projection of an exact pair's lift to the unit
    sphere S^{2m}, as a tuple of 2m+1 rational functions.

    A float pair raises ExactPathRequired; its projected rows are
    _project of SurfacePair.values.
    """
    comps = (pair.Y, pair.Yhat)[_lift_index(which)]
    if comps is None:
        raise ExactPathRequired("project_to_sphere reads exact pairs only")
    if comps[0].is_zero():
        raise FirstCoordinateVanishes("lift has identically zero first coordinate")
    return tuple(c / comps[0] for c in comps[1:])


def _project(vals, errors, z):
    """Rows vals[k, 1:] / vals[k, 0], with a vanishing first coordinate an error."""
    errors = list(errors)
    head = np.abs(vals[:, 0])
    bad = head < 1e-12 * np.maximum(1.0, np.abs(vals).max(axis=-1))
    for k in np.flatnonzero(bad):
        if errors[k] is None:
            errors[k] = FirstCoordinateVanishes(
                "first lift coordinate vanishes at z=%r" % (complex(z[k]),))
    ok = np.array([e is None for e in errors], dtype=bool)
    out = np.full((len(vals), vals.shape[1] - 1), np.nan)
    out[ok] = vals[ok, 1:] / vals[ok, :1]
    return out, errors


def induced_metric(pair: SurfacePair, which: str = "Y"):
    """Conformal factor |y_z|^2 of the projected surface.

    Exact pairs return it as a rational function (formal derivatives),
    computed once per pair and lift and kept in pair.metrics.  Float pairs
    return an evaluator metric(z, w, values, columns) for the caller's float
    witness w = solve_iwasawa_float(pair.hf, z), values = pair.values(w) and
    columns = metric_columns(pair, w), so that the lifts and both factors
    share them; z names the samples in errors.  It returns (factors,
    errors): errors as values gives them, with a vanishing first coordinate
    of this lift (_project) added, and the factor NaN wherever an error is
    set.  So a sample fails only where it fails itself.

    The factor is a closed form at the sample itself.  The honest lift is a
    scalar multiple of P, its column of metric_columns, so y = P[1:] / P[0].
    Along each real direction D, y_D follows from P and P_D by the quotient
    rule, and for the real y, |y_z|^2 = (|y_x|^2 + |y_y|^2) / 4.
    """
    idx = _lift_index(which)
    if pair.Y is not None:
        if idx not in pair.metrics:
            acc = None
            for c in project_to_sphere(pair, which):
                term = c.d_dz() * c.d_dzbar()
                acc = term if acc is None else acc + term
            pair.metrics[idx] = acc
        return pair.metrics[idx]

    def metric(z, w, values, columns):
        errors = _project(values[idx], values[2], z)[1]
        P, dPs = columns[idx]
        # A sample whose P[0] vanishes has its error from _project already.
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = [((dP[:, 1:] * P[:, :1] - P[:, 1:] * dP[:, :1])
                     / (P[:, :1] * P[:, :1])).real for dP in dPs]
        factors = np.sum(grad[0] ** 2 + grad[1] ** 2, axis=-1) / 4
        return _scatter(factors, w.index, errors), errors

    return metric


def metric_columns(pair: SurfacePair, w: IwasawaWitness):
    """What the float metric evaluators of both lifts differentiate, at the
    samples of w, a float witness of pair.hf: for Y and then Yhat, (P, dPs).

    P is the lift's column of the witness's middle blocks (the frame's
    middle columns before the l0^-1 factor) bound at pair.lam, and dPs its
    derivative along each real direction of gram_axis_derivatives, the
    blocks differentiated by the product rule (_middle_blocks_d).  Each
    stack of blocks is bound once for both lifts.
    """
    lam = pair.lam

    def columns(blocks):
        return [np.stack(c, axis=-1) for c in _bind_columns(
            blocks, lam, 1.0 / lam, pair.m, lambda x: _cmul_np(-1j, x))]

    ubar = w.u.conj()
    P = columns(w.middle)
    dP = [columns(_middle_blocks_d(w.fv, w.gv, ubar, fd, gd, sharp(dus).conj()))
          for fd, gd, _, dus in gram_axis_derivatives(pair.hf, w)]
    return [(P[k], [d[k] for d in dP]) for k in (0, 1)]


# -- total isotropy --------------------------------------------------------------


def _cofactor_times(num: BiPoly, den: BiPoly, dens) -> BiPoly:
    """num times every denominator in dens other than den: the numerator of
    num / den over the product of dens."""
    for other in dens:
        if other != den:
            num = num * other
    return num


def isotropy_check(pair: SurfacePair, which: str = "Y", max_order: int = None,
                   samples=()) -> dict:
    """Pairings of z-derivative pairs of an exact pair's lift, up to max_order.

    All of them must vanish: the z-derivative flag of the lift is isotropic,
    a property insensitive to the stored gauge and scale.

    The components are put over their common denominator D, the product of
    their distinct denominators, and differentiated by the quotient rule, so
    each pairing is a polynomial over a power of D and no gcd is taken.  A
    pairing that is the zero polynomial reports 0; any other reports its
    largest modulus at the samples, or inf without them.  A float pair
    raises ExactPathRequired; verify checks its lifts by finite differences.
    """
    comps = (pair.Y, pair.Yhat)[_lift_index(which)]
    if comps is None:
        raise ExactPathRequired("isotropy_check reads exact pairs only")
    if max_order is None:
        max_order = pair.m
    pairs = {}

    # Over the common denominator D the lift is P / D, and by the quotient
    # rule d^j/dz^j (P / D) = Q_j / D^(j+1) with
    # Q_(j+1) = dQ_j D - (j+1) Q_j dD, so <d^j Y, d^l Y> vanishes exactly
    # when the polynomial <Q_j, Q_l> does.
    dens = []
    for c in comps:
        if c.den != BP_ONE and c.den not in dens:
            dens.append(c.den)
    D = BP_ONE
    for den in dens:
        D = D * den
    derivs = [[_cofactor_times(c.num, c.den, dens) for c in comps]]
    dD = D.d_dz()
    for j in range(max_order):
        derivs.append([q.d_dz() * D - q * dD * (j + 1) for q in derivs[-1]])
    worst = 0.0
    for j in range(1, max_order + 1):
        for l in range(j, max_order + 1):
            p = mink_pair_rf(derivs[j], derivs[l])
            if p.is_zero():
                res = 0.0
            elif samples:
                p = RationalFn(p, D ** (j + l + 2))
                res = float(np.abs(_rf_float(p, np.asarray(samples))).max())
            else:
                res = float("inf")
            pairs["(%d,%d)" % (j, l)] = res
            worst = max(worst, res)
    return {"which": which, "max_order": max_order, "pairs": pairs, "max_residual": worst}


# -- degeneracy locus -------------------------------------------------------------


def _gram_det_float(hf: HolomorphicFrame, z) -> np.ndarray:
    """det rho over a 1-D array of z, one real value per sample; inf or NaN,
    without a warning, where the Gram product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.det(gram_float(_eval_mat(hf.f, z), _eval_mat(hf.g, z))).real


SCAN_GRID_N = 512


def degeneracy_scan(hf: HolomorphicFrame, theta: float = 0.0, r_range=(1e-3, 2.5)) -> list:
    """Radii along the ray arg z = theta where the factorization degenerates.

    The Gram determinant is a nonnegative function vanishing quadratically on
    the singular set, so its radial derivative changes sign there; each sign
    change is bisected to a bracket below 1e-10 and kept when the determinant
    is numerically zero at the located radius.  All brackets are bisected
    together, one stacked derivative per halving, each as if it were alone.
    """
    direction = complex(math.cos(theta), math.sin(theta))
    r0, r1 = float(r_range[0]), float(r_range[1])
    if r1 <= r0 or r0 < 0:
        raise ValueError("radial range must satisfy 0 <= r0 < r1")

    def sigma(r):
        return _gram_det_float(hf, r * direction)

    fd = 1e-6

    def dsigma(r):
        """Central radial difference at each of an array of radii, from one
        stack of determinants."""
        s = sigma(np.concatenate([r + fd, np.maximum(r - fd, 0.0)]))
        return (s[:len(r)] - s[len(r):]) / (2 * fd)

    rs = np.linspace(r0, r1, SCAN_GRID_N)
    sig = sigma(rs)
    dsig = dsigma(rs)
    scale = max(1.0, float(sig.max()))
    # min() of each neighbouring pair as Python's min takes it, NaN included
    low = np.where(sig[1:] < sig[:-1], sig[1:], sig[:-1])
    i = np.flatnonzero(~(low > 1e-2 * scale) & (dsig[:-1] < 0.0) & (dsig[1:] >= 0.0))
    a, b = rs[i], rs[i + 1]
    while (moving := b - a > 1e-11).any():
        mdl = 0.5 * (a[moving] + b[moving])
        below = dsigma(mdl) < 0.0
        a[moving] = np.where(below, mdl, a[moving])
        b[moving] = np.where(below, b[moving], mdl)
    root = 0.5 * (a + b)
    return root[sigma(root) <= 1e-8 * scale].tolist() if len(root) else []


# -- behavior at infinity ----------------------------------------------------------


def _reverse_terms(p: BiPoly, dz: int, db: int) -> BiPoly:
    """Coefficient reversal: z^dz zbar^db * p(1/z, 1/zbar)."""
    return BiPoly({(dz - a, db - b): c for (a, b), c in p.terms.items()})


def _invert_coordinate(rf: RationalFn) -> RationalFn:
    """Re-express a rational function in the coordinate 1/z (and 1/zbar)."""
    ndz, ndb = rf.num.degrees()
    ddz, ddb = rf.den.degrees()
    dz, db = max(ndz, ddz), max(ndb, ddb)
    return RationalFn(_reverse_terms(rf.num, dz, db), _reverse_terms(rf.den, dz, db))


def _diagonal_limit(rf: RationalFn) -> Fraction:
    """Limit of a real-valued rational function at 0 along the diagonal z = zbar = t."""
    def diagonal(p: BiPoly):
        out = {}
        for (a, b), c in p.terms.items():
            out[a + b] = out.get(a + b, c * 0) + c
        return {k: v for k, v in out.items() if not v.is_zero()}

    num = diagonal(rf.num)
    den = diagonal(rf.den)
    if not den:
        raise ZeroDivisionError("denominator restricts to zero on the diagonal")
    if not num:
        return Fraction(0)
    on, od = min(num), min(den)
    if on > od:
        return Fraction(0)
    if on < od:
        raise ZeroDivisionError("unbounded at the puncture")
    ratio = num[on] / den[od]
    if ratio.im != 0:
        raise ValueError("diagonal limit of a real-valued function came out complex")
    return ratio.re


def branch_analysis(pair: SurfacePair) -> dict:
    """Limits of both conformal factors at z = infinity (coordinate w = 1/z).

    The factor transforms as a metric: in the chart w it is
    g(1/w) |dz/dw|^2 = g(1/w) / |w|^4, with g the induced metric in z.  Zero
    limit marks a branch point of the projected surface there; a positive
    limit marks an immersed point.
    """
    if pair.Y is None:
        raise ExactPathRequired("behavior at infinity needs the exact components")
    out = {}
    for which, tag in (("Y", "y"), ("Yhat", "yhat")):
        g = _invert_coordinate(induced_metric(pair, which))
        lim = _diagonal_limit(RationalFn(g.num, g.den.shift(2, 2)))
        out["%s_limit" % tag] = lim
        out["%s_is_branch_point" % tag] = lim == 0
    return out


# -- shipped closed-form reference data ---------------------------------------------


def _r2poly(coeffs) -> BiPoly:
    """Polynomial in r^2 = z zbar from a list of rational coefficients."""
    return BiPoly({(k, k): GaussianRational(Fraction(c)) for k, c in enumerate(coeffs)
                   if Fraction(c) != 0})


def reference_lift_exact(example_id: int, lam) -> dict:
    """Closed-form homogeneous lifts of the two shipped examples, exact.

    Returns dict with keys m, Y, Yhat (tuples of rational functions, scale
    sqrt(2)/(2 sigma) omitted and signs included), sigma (the degeneracy
    polynomial in r^2), for an exact unit-circle lambda.
    """
    lam = GaussianRational.coerce(lam)
    if lam.abs_squared() != 1:
        raise ValueError("reference data needs |lambda| = 1")
    li = GR_ONE / lam

    def zc(p):
        # lam^-1 z^p - lam zbar^p and lam^-1 z^p + lam zbar^p
        zp = RationalFn(BiPoly({(p, 0): GR_ONE}))
        bp = RationalFn(BiPoly({(0, p): GR_ONE}))
        a = RationalFn.const(li) * zp
        b = RationalFn.const(lam) * bp
        return a - b, a + b

    def rp(coeffs):
        return RationalFn(_r2poly(coeffs))

    i_rf = RF_I
    if example_id == 1:
        d1, s1 = zc(1)
        d2, s2 = zc(2)
        r2 = rp([0, 1])
        Y = (
            rp([-1, -1, Fraction(-1, 4), Fraction(-1, 9)]),
            rp([1, -1, Fraction(1, 4), Fraction(1, 9)]),
            i_rf * rp([0, Fraction(1, 2)]) * d1,
            rp([0, Fraction(-1, 2)]) * s1,
            -(i_rf * d1),
            s1,
            i_rf * rp([0, Fraction(1, 3)]) * d2,
            rp([0, Fraction(-1, 3)]) * s2,
        )
        Yhat = (
            rp([1, 1, Fraction(5, 4), Fraction(4, 9), Fraction(1, 36)]),
            rp([1, -1, Fraction(-3, 4), Fraction(4, 9), Fraction(-1, 36)]),
            -(i_rf * d1) * rp([1, 0, 0, Fraction(1, 9)]),
            s1 * rp([1, 0, 0, Fraction(1, 9)]),
            i_rf * rp([0, Fraction(1, 2)]) * d1 * rp([1, Fraction(4, 3)]),
            rp([0, Fraction(-1, 2)]) * s1 * rp([1, Fraction(4, 3)]),
            -(i_rf * d2) * rp([1, 0, Fraction(-1, 12)]),
            s2 * rp([1, 0, Fraction(-1, 12)]),
        )
        sigma = _r2poly([1, 0, Fraction(-1, 4), Fraction(-2, 9)])
        return {"m": 3, "Y": Y, "Yhat": Yhat, "sigma": sigma}
    if example_id == 2:
        d1, s1 = zc(1)
        half = Fraction(1, 2)
        Y = (
            rp([1, 1, Fraction(1, 4)]),
            rp([-1, 1, Fraction(-1, 4)]),
            i_rf * d1,
            -s1,
            -(i_rf * rp([0, half]) * d1),
            rp([0, half]) * s1,
        )
        Yhat = (
            rp([1, 1, Fraction(1, 4)]),
            rp([1, -1, Fraction(1, 4)]),
            i_rf * rp([0, half]) * d1,
            rp([0, -half]) * s1,
            -(i_rf * d1),
            s1,
        )
        sigma = _r2poly([1, 0, Fraction(-1, 4)])
        return {"m": 2, "Y": Y, "Yhat": Yhat, "sigma": sigma}
    raise ValueError("no shipped example with id %r" % (example_id,))


def reference_lift_eval(example_id: int, lam: complex):
    """Float evaluator of the shipped closed forms, the honest homogeneous
    lifts away from the degeneracy curve: the sqrt(2)/(2 sigma) scale and
    the printed signs are included.

    At one complex z, at(z) returns (Y, Yhat) and raises SingularLocus where
    |sigma| < 1e-12.  At a 1-D array of z it returns (Y, Yhat, singular), a
    row per z and singular where the one-point call raises, with NaN rows
    there.  Either way each row has the bits that the closed form gives in
    Python's complex and float arithmetic at its z: the stack is evaluated
    as PyComplexArray, and r2**k by Python's float power.
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("reference data needs |lambda| = 1")
    if example_id not in (1, 2):
        raise ValueError("no shipped example with id %r" % (example_id,))
    li = 1.0 / lam
    I = PyComplexArray(0.0, 1.0)

    def fpow(x, k):
        return np.array([v ** k for v in x.tolist()])

    def stack(z):
        z = PyComplexArray(z.real, z.imag)
        zb = z.conjugate()
        r2 = (z * zb).real

        # d[p] = lam^-1 z^p - lam zbar^p and s[p] = lam^-1 z^p + lam zbar^p
        terms = {p: (li * z**p, lam * zb**p) for p in (1, 2)}
        d = {p: a - b for p, (a, b) in terms.items()}
        s = {p: a + b for p, (a, b) in terms.items()}

        if example_id == 1:
            p2, p3, p4 = (fpow(r2, k) for k in (2, 3, 4))
            sigma = 1 - p2 / 4 - 2 * p3 / 9
            Y = (
                -1 - r2 - p2 / 4 - p3 / 9,
                1 - r2 + p2 / 4 + p3 / 9,
                I * (r2 / 2) * d[1],
                -(r2 / 2) * s[1],
                -I * d[1],
                s[1],
                I * (r2 / 3) * d[2],
                -(r2 / 3) * s[2],
            )
            Yhat = (
                1 + r2 + 5 * p2 / 4 + 4 * p3 / 9 + p4 / 36,
                1 - r2 - 3 * p2 / 4 + 4 * p3 / 9 - p4 / 36,
                -I * d[1] * (1 + p3 / 9),
                s[1] * (1 + p3 / 9),
                I * (r2 / 2) * d[1] * (1 + 4 * r2 / 3),
                -(r2 / 2) * s[1] * (1 + 4 * r2 / 3),
                -I * d[2] * (1 - p2 / 12),
                s[2] * (1 - p2 / 12),
            )
            sy, sh = -1.0, 1.0
        else:
            sigma = 1 - fpow(r2, 2) / 4
            Y = (
                fpow(1 + r2 / 2, 2),
                -fpow(1 - r2 / 2, 2),
                I * d[1],
                -s[1],
                -I * (r2 / 2) * d[1],
                (r2 / 2) * s[1],
            )
            Yhat = (
                fpow(1 + r2 / 2, 2),
                fpow(1 - r2 / 2, 2),
                I * (r2 / 2) * d[1],
                -(r2 / 2) * s[1],
                -I * d[1],
                s[1],
            )
            sy, sh = 1.0, 1.0
        singular = np.abs(sigma) < 1e-12
        scale = SQRT2_OVER_2 / np.where(singular, np.nan, sigma)
        return real_rows(sy * scale, Y), real_rows(sh * scale, Yhat), r2, singular

    def real_rows(k, comps):
        # the real part of (k + 0j) * c, which is k * c for a real c
        return np.stack([(k * c).real for c in comps], axis=-1)

    def at(z):
        # Python's float arithmetic overflows to inf without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if np.ndim(z):
                Y, Yhat, _, singular = stack(as_samples(z))
                return Y, Yhat, singular
            Y, Yhat, r2, singular = stack(np.array([complex(z)]))
        if singular[0]:
            raise SingularLocus("reference lift undefined at r^2=%.6f" % r2[0])
        return Y[0], Yhat[0]

    return at


def reference_metric(example_id: int, which: str = "Y") -> RationalFn:
    """Printed conformal factors of the shipped examples, as rational functions."""
    if example_id == 1 and which in ("Y", "y"):
        num = _r2poly([2, 0, Fraction(1, 2), Fraction(8, 9)])
        den = _r2poly([1, 1, Fraction(1, 4), Fraction(1, 9)])
        return RationalFn(num, den * den)
    if example_id == 1 and which in ("Yhat", "yhat"):
        num = _r2poly([2, 8, Fraction(1, 2), Fraction(4, 9), Fraction(8, 9),
                       Fraction(1, 18), Fraction(2, 81)])
        den = _r2poly([1, 1, Fraction(5, 4), Fraction(4, 9), Fraction(1, 36)])
        return RationalFn(num, den * den)
    if example_id == 2 and which in ("Y", "y"):
        num = _r2poly([2, 0, Fraction(1, 2)])
        den = _r2poly([1, Fraction(1, 2)])
        return RationalFn(num, den * den * den * den)
    raise ValueError("no printed conformal factor for example %r, %r" % (example_id, which))


def reference_singular_radius(example_id: int) -> float:
    """Positive root of the shipped degeneracy polynomial sigma (bisected,
    exact input)."""
    sigma = reference_lift_exact(example_id, 1)["sigma"]

    def val(r: Fraction) -> Fraction:
        # sigma is a real polynomial in r^2 = z zbar, taken at z = r.
        return sigma.evaluate_exact(GaussianRational(r)).re

    a, b = Fraction(1), Fraction(2)
    while val(b) > 0:
        b *= 2
    for _ in range(60):
        mid = (a + b) / 2
        if val(mid) > 0:
            a = mid
        else:
            b = mid
    return float((a + b) / 2)
