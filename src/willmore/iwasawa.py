"""Explicit loop-group factorization for nilpotent integrated frames.

For frames H = I + loop^-1 (f, -f#) + loop^-2 (g) the factorization
H = F~ W^-1 is solved in closed form.  The Gram data comes from six block
equations, solved in the order 1F (rho), 1E (u#), 1C (q), 1D (v), 1A (a),
with 1B kept as a residual:

    1F: rho = I + Jm fbar J2 f^t Jm + gbar^t g
    1E: u# rho = f# - J2 fbar^t g
    1C: q = I + J2 fbar^t f - u# rho u#bar^t J2
    1D: v rho = g
    1A: a = I - u q J2 ubar^t - v rho vbar^t
    1B: u q - v rho u#bar^t J2 = f        (residual)

The diagonal Gram factor W0 = diag(a, q, rho) splits as tau(L)^-1 L with
L = diag(l1, l0, l4): l4 is the upper Cholesky factor of rho,
l0 = diag(s, 1/s) with s the square root of the unit c = q[0,0] that makes
the light-cone lift future-pointing (a choice continuous in z, unlike the
principal root), and l1 = Jm (l4^t)^-1 Jm, which satisfies the bilinear
pairing exactly and the Hermitian condition l1bar^t l1 = a as a theorem
(checked, not assumed).

l1 and l4 live outside the rational-function field (square roots), so the
exact witness is global but the float witness is numeric.  It is solved
over a stack of samples at once, every block carrying a leading sample
axis, and keeps f(z) and g(z) for the lifts and for L_z; a sample that
fails a check drops out of the stack with its error recorded.  The full
extended frame is built at one sample: a LoopMatrix of complex arrays,
checked against the holomorphic side, F L tau(W)^-1 = H, by BLAS products
of loop coefficients.  When q == I2 identically the frame's middle two
columns are rational and are assembled exactly; they are all the surface
extraction needs.
"""

from __future__ import annotations

import numpy as np

from . import matrices as mx
from .errors import ResidualTooLarge, SingularLocus
from .frames import HolomorphicFrame
from .groups import get_context
from .loops import LoopMatrix, unipotent_inverse
from .scalars import (
    BP_ZERO,
    BiPoly,
    GR_ONE,
    GR_ZERO,
    RF_ONE,
    RF_ZERO,
    RationalFn,
)

_STRUCT_TOL = 1e-8


def np_sharp(X: np.ndarray) -> np.ndarray:
    """X# of a matrix, or of each matrix in a stack (last two axes)."""
    p, q = X.shape[-2:]
    if p != 2 and q != 2:
        raise ValueError("sharp requires a 2-row or 2-column matrix")
    return X[..., ::-1, ::-1].swapaxes(-1, -2)


def _ct(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return X.conj().swapaxes(-1, -2)


class IwasawaWitness:
    """Gram data of the factorization, exact (global) or float (numeric).

    A float witness solved at one sample holds matrices and float residuals.
    One solved over an array of N samples holds stacks over the samples that
    passed every check: index gives their positions in the input and errors
    the error each of the N samples failed with (None where it passed).
    """

    def __init__(self, backend, m, rho, rho_inv, det_rho, u, usharp, v, q, a,
                 l0=None, l1=None, l4=None, q_is_identity=None, z=None,
                 residuals=None, fv=None, gv=None, index=None, errors=None):
        self.backend = backend
        self.m = m
        self.rho = rho
        self.rho_inv = rho_inv
        self.det_rho = det_rho
        self.u = u
        self.usharp = usharp
        self.v = v
        self.q = q
        self.a = a
        self.l0 = l0
        self.l1 = l1
        self.l4 = l4
        self.q_is_identity = q_is_identity
        self.z = z
        self.residuals = residuals or {}
        # Float witnesses keep f(z) and g(z) for the frame, lifts and L_z.
        self.fv = fv
        self.gv = gv
        self.index = index
        self.errors = errors


class ExtendedFrame:
    """Factorized frame: full float loop at a sample, or exact middle columns."""

    def __init__(self, backend, m, witness, F=None, middle=None, z=None,
                 factor_residual=None, hf=None):
        self.backend = backend
        self.m = m
        self.witness = witness
        self.F = F
        self.middle = middle
        self.z = z
        self.factor_residual = factor_residual
        self.hf = hf


def _jm(m):
    return tuple(
        tuple(GR_ONE if i + j == m - 1 else GR_ZERO for j in range(m))
        for i in range(m)
    )


def _j2():
    return ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO))


def solve_iwasawa_exact(hf: HolomorphicFrame) -> IwasawaWitness:
    """Global rational-function witness (no square roots taken)."""
    m = hf.m
    Jm = _jm(m)
    J2 = _j2()
    f = hf.f
    g = hf.g
    fbar = mx.mat_conj(f)
    gbar = mx.mat_conj(g)
    fsharp = mx.sharp(f)

    # 1F
    gram = mx.mat_mul(mx.mat_mul(Jm, fbar), mx.mat_mul(J2, mx.mat_mul(mx.mat_transpose(f), Jm)))
    rho_poly = mx.mat_add(
        mx.identity(m, BiPoly.const(1), BP_ZERO),
        mx.mat_add(gram, mx.mat_mul(mx.mat_transpose(gbar), g)),
    )
    if m == 1:
        det = rho_poly[0][0]
        adj = ((BiPoly.const(1),),)
    else:
        det = mx.det_small(rho_poly)
        adj = mx.adjugate_small(rho_poly)
    det_rf = RationalFn(det)
    rho_inv = mx.mat_map(adj, lambda p: RationalFn(p, det))
    rho = mx.mat_map(rho_poly, RationalFn.coerce)

    # 1E
    num_us = mx.mat_sub(
        mx.mat_map(fsharp, RationalFn.coerce),
        mx.mat_map(
            mx.mat_mul(mx.mat_mul(J2, mx.mat_transpose(fbar)), g), RationalFn.coerce
        ),
    )
    usharp = mx.mat_mul(num_us, rho_inv)
    u = mx.sharp(usharp)

    # 1C
    usharp_bar_t = mx.mat_transpose(mx.mat_conj(usharp))
    q = mx.mat_sub(
        mx.mat_add(
            mx.identity(2, RF_ONE, RF_ZERO),
            mx.mat_map(
                mx.mat_mul(mx.mat_mul(J2, mx.mat_transpose(fbar)), f),
                RationalFn.coerce,
            ),
        ),
        mx.mat_mul(mx.mat_mul(usharp, rho), mx.mat_mul(usharp_bar_t, mx.mat_map(J2, RationalFn.coerce))),
    )

    # 1D
    v = mx.mat_mul(mx.mat_map(g, RationalFn.coerce), rho_inv)

    # 1A
    ubar_t = mx.mat_transpose(mx.mat_conj(u))
    vbar_t = mx.mat_transpose(mx.mat_conj(v))
    J2rf = mx.mat_map(J2, RationalFn.coerce)
    a = mx.mat_sub(
        mx.mat_sub(
            mx.identity(m, RF_ONE, RF_ZERO),
            mx.mat_mul(mx.mat_mul(u, q), mx.mat_mul(J2rf, ubar_t)),
        ),
        mx.mat_mul(mx.mat_mul(v, rho), vbar_t),
    )

    # 1B residual must vanish identically.
    resid = mx.mat_sub(
        mx.mat_sub(
            mx.mat_mul(u, q),
            mx.mat_mul(mx.mat_mul(v, rho), mx.mat_mul(usharp_bar_t, J2rf)),
        ),
        mx.mat_map(f, RationalFn.coerce),
    )
    if not mx.mat_is_zero(resid):
        raise ResidualTooLarge("closure equation 1B fails as a rational identity")

    q_is_identity = mx.mat_eq(q, mx.identity(2, RF_ONE, RF_ZERO))
    l0 = mx.identity(2, RF_ONE, RF_ZERO) if q_is_identity else None
    return IwasawaWitness(
        "exact", m, rho, rho_inv, det_rf, u, usharp, v, q, a,
        l0=l0, q_is_identity=q_is_identity,
    )


def _eval_mat(mat, z) -> np.ndarray:
    """A polynomial matrix at z: (rows, cols), or (N, rows, cols) over N samples.

    Stacks are C-contiguous, so each sample's matrix has the strides of the
    one-sample matrix and every product of it rounds the same way.
    """
    vals = np.array(
        [[p.evaluate_float(z) if isinstance(p, BiPoly) else p.evaluate(z)
          for p in row] for row in mat],
        dtype=complex,
    )
    return vals if vals.ndim == 2 else np.ascontiguousarray(np.moveaxis(vals, -1, 0))


def _jm_np(m) -> np.ndarray:
    return np.eye(m)[::-1].astype(complex)


_J2_NP = np.array([[0, 1], [1, 0]], dtype=complex)
_J2_NP.setflags(write=False)


def gram_float(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Equation 1F at each sample: rho = I + Jm fbar J2 f^t Jm + gbar^t g."""
    m = fv.shape[-2]
    Jm = _jm_np(m)
    return (np.eye(m, dtype=complex) + Jm @ fv.conj() @ _J2_NP @ fv.swapaxes(-1, -2) @ Jm
            + _ct(gv) @ gv)


def _cholesky_stack(rho: np.ndarray):
    """Lower Cholesky factors of a stack, and the mask of matrices that have none.

    A failed matrix is replaced by the identity, so that one failure cannot
    fail the whole stack.
    """
    try:
        return np.linalg.cholesky(rho), np.zeros(len(rho), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(rho)
    failed = np.zeros(len(rho), dtype=bool)
    for k, mat in enumerate(rho):
        try:
            out[k] = np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            out[k] = np.eye(mat.shape[-1])
            failed[k] = True
    return out, failed


def solve_iwasawa_float(hf: HolomorphicFrame, z, tol: float = _STRUCT_TOL) -> IwasawaWitness:
    """Numeric witness including the triangular factors, at one sample or a stack.

    At a scalar z the witness holds matrices, and a failed check raises.  Over
    a 1-D array of z every check runs on the whole stack and a failed sample
    only drops out (see IwasawaWitness): the checks run in the order
    positivity of rho, unit diagonal q, Cholesky, 1B, a-factor, and a sample
    keeps the error of the first one it fails, the error the scalar call
    raises.  Each sample's values equal the scalar call's bit for bit.
    """
    if np.ndim(z) == 0:
        w = _solve_float_stack(hf, np.array([complex(z)]), tol)
        if w.errors[0] is not None:
            raise w.errors[0]
        return IwasawaWitness(
            "float", w.m, w.rho[0], w.rho_inv[0], float(w.det_rho[0]), w.u[0],
            w.usharp[0], w.v[0], w.q[0], w.a[0], l0=w.l0[0], l1=w.l1[0], l4=w.l4[0],
            q_is_identity=bool(w.q_is_identity[0]), z=complex(w.z[0]),
            residuals={k: float(r[0]) for k, r in w.residuals.items()},
            fv=w.fv[0], gv=w.gv[0],
        )
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError("sample points must be a scalar or a 1-D array")
    return _solve_float_stack(hf, z, tol)


def _solve_float_stack(hf: HolomorphicFrame, z: np.ndarray, tol: float) -> IwasawaWitness:
    m = hf.m
    n = len(z)
    Jm = _jm_np(m)
    J2 = _J2_NP
    eye_m = np.eye(m, dtype=complex)
    errors = [None] * n
    failed = np.zeros(n, dtype=bool)

    def check(bad, error):
        """Give each sample newly flagged in bad the error error(k)."""
        for k in np.flatnonzero(bad & ~failed):
            errors[k] = error(k)
        failed[:] |= bad

    fv = _eval_mat(hf.f, z)
    gv = _eval_mat(hf.g, z)
    fsh = np_sharp(fv)

    rho = gram_float(fv, gv)
    scale = np.maximum(1.0, np.abs(rho).max(axis=(-2, -1)))
    eig_min = np.linalg.eigvalsh((rho + _ct(rho)) / 2).min(axis=-1)
    check(eig_min <= 1e-12 * scale, lambda k: SingularLocus(
        "gram matrix lost positivity at z=%r (min eig %.3e)" % (complex(z[k]), eig_min[k])))
    # Samples without a positive Gram matrix get the identity in its place,
    # so that the stacked LAPACK calls below cannot fail on their account.
    rho_safe = np.where(failed[:, None, None], eye_m, rho)
    rho_inv = np.linalg.inv(rho_safe)

    # Shared left factors are computed once; products still associate from
    # the left, as in the one-sample formulas, so the bits do not change.
    j2fh = J2 @ _ct(fv)
    usharp = (fsh - j2fh @ gv) @ rho_inv
    u = np_sharp(usharp)
    q = np.eye(2, dtype=complex) + j2fh @ fv - usharp @ rho @ _ct(usharp) @ J2
    v = gv @ rho_inv
    uq = u @ q
    vrho = v @ rho
    a = eye_m - uq @ J2 @ _ct(u) - vrho @ _ct(v)

    residuals = {}
    residuals["1B"] = np.abs(uq - vrho @ _ct(usharp) @ J2 - fv).max(axis=(-2, -1))
    qscale = np.maximum(1.0, np.abs(q).max(axis=(-2, -1)))
    # Moduli of single entries use hypot, as abs() of a complex scalar does;
    # numpy's array abs can differ from it in the last bit.
    offdiag = np.maximum(np.hypot(q[:, 0, 1].real, q[:, 0, 1].imag),
                         np.hypot(q[:, 1, 0].real, q[:, 1, 0].imag))
    c = q[:, 0, 0]
    c_unit = np.abs(np.hypot(c.real, c.imag) - 1.0)
    pair = q[:, 1, 1] - c.conjugate()
    residuals["q-offdiag"] = offdiag
    residuals["q-unit"] = c_unit
    residuals["q-conj-pair"] = np.hypot(pair.real, pair.imag)
    check((offdiag > tol * qscale) | (c_unit > tol), lambda k: SingularLocus(
        "block q is not a unit diagonal at z=%r (offdiag %.3e, |c|-1 %.3e)"
        % (complex(z[k]), offdiag[k], c_unit[k])))
    # Either root of c gives a factorization; pick the one whose lift is
    # future-pointing.  Y0 = (sqrt(2)/2) s (M[1,1] - M[0,1]) with
    # M = I - f# Jm ubar, which is lambda-free and nonzero wherever the null
    # lift is, so this choice is continuous (the principal root is not).
    s = np.sqrt(c)
    t = (fsh @ u[:, ::-1, 1].conj()[:, :, None])[:, :, 0]
    y0 = 1.0 + t[:, 0] - t[:, 1]
    s = np.where(s.real * y0.real - s.imag * y0.imag < 0, -s, s)
    l0 = np.zeros((n, 2, 2), dtype=complex)
    l0[:, 0, 0] = s
    l0[:, 1, 1] = 1.0 / s

    Lc, no_cholesky = _cholesky_stack(rho_safe)
    check(no_cholesky, lambda k: SingularLocus("cholesky failed at z=%r" % (complex(z[k]),)))
    l4 = _ct(Lc)
    l1 = Jm @ np.linalg.inv(l4.swapaxes(-1, -2)) @ Jm
    residuals["a-factor"] = np.abs(_ct(l1) @ l1 - a).max(axis=(-2, -1))
    residuals["rho-factor"] = np.abs(_ct(l4) @ l4 - rho).max(axis=(-2, -1))
    fscale = np.maximum(1.0, np.abs(fv).max(axis=(-2, -1)))
    residuals["1B-scaled"] = residuals["1B"] / fscale
    check(residuals["1B"] > 1e-6 * fscale, lambda k: ResidualTooLarge(
        "closure equation 1B residual %.3e" % residuals["1B"][k]))
    check(residuals["a-factor"] > 1e-6 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1))),
          lambda k: ResidualTooLarge(
              "triangular factor mismatch %.3e against block a" % residuals["a-factor"][k]))

    q_is_identity = (offdiag <= tol) & (np.hypot(c.real - 1.0, c.imag) <= tol)
    ok = ~failed
    usharp = usharp[ok]
    return IwasawaWitness(
        "float", m, rho[ok], rho_inv[ok], np.linalg.det(rho[ok]).real, np_sharp(usharp),
        usharp, v[ok], q[ok], a[ok], l0=l0[ok], l1=l1[ok], l4=_ct(Lc[ok]),
        q_is_identity=q_is_identity[ok], z=z[ok],
        residuals={k: r[ok] for k, r in residuals.items()}, fv=fv[ok], gv=gv[ok],
        index=np.flatnonzero(ok), errors=errors,
    )


def assemble_frame(hf: HolomorphicFrame, witness: IwasawaWitness,
                   check: bool = True) -> ExtendedFrame:
    """Build the factorized frame from a witness."""
    if witness.backend == "float":
        return _assemble_float(hf, witness, check)
    return _assemble_exact_middle(hf, witness)


def middle_columns_float(w: IwasawaWitness):
    """The frame's middle two columns at a float witness, by loop power.

    Returns (top, mid, bot): rows 1..m at loop^-1, rows m+1, m+2 at loop^0
    and the last m rows at loop^1, stacked over the samples of a stacked
    witness.
    """
    Jm = _jm_np(w.m)
    cu = w.u.conj()
    l0inv = np.linalg.inv(w.l0)
    top = (w.fv + w.gv @ Jm @ cu) @ l0inv
    mid = (np.eye(2) - np_sharp(w.fv) @ Jm @ cu) @ l0inv
    bot = (Jm @ cu) @ l0inv
    return top, mid, bot


def _assemble_float(hf: HolomorphicFrame, w: IwasawaWitness, check: bool) -> ExtendedFrame:
    m = hf.m
    d = 2 * m + 2
    z = w.z
    Jm = _jm_np(m)
    fv, gv = w.fv, w.gv
    fsh = np_sharp(fv)
    cu_sharp = w.usharp.conj()
    cu = w.u.conj()
    cv = w.v.conj()
    l1inv = np.linalg.inv(w.l1)
    l4inv = np.linalg.inv(w.l4)
    top, mid, bot = middle_columns_float(w)

    blocks = {}

    def put(power, r0, c0, mat):
        blk = blocks.setdefault(power, np.zeros((d, d), dtype=complex))
        blk[r0:r0 + mat.shape[0], c0:c0 + mat.shape[1]] = mat

    put(0, 0, 0, (np.eye(m) - fv @ cu_sharp @ Jm + gv @ Jm @ cv @ Jm) @ l1inv)
    put(-1, 0, m, top)
    put(-2, 0, m + 2, gv @ l4inv)
    put(1, m, 0, -(cu_sharp @ Jm + fsh @ Jm @ cv @ Jm) @ l1inv)
    put(0, m, m, mid)
    put(-1, m, m + 2, -fsh @ l4inv)
    put(2, m + 2, 0, Jm @ cv @ Jm @ l1inv)
    put(1, m + 2, m, bot)
    put(0, m + 2, m + 2, l4inv)

    F = LoopMatrix(d, d, blocks)
    factor_residual = check_refactor(hf, w, F) if check else None
    return ExtendedFrame("float", m, w, F=F, z=z, factor_residual=factor_residual,
                         hf=hf)


def check_refactor(hf: HolomorphicFrame, w: IwasawaWitness, F: LoopMatrix) -> float:
    """Largest entry of F L tau(W)^-1 - H at the float witness's sample.

    Raises ResidualTooLarge above 1e-6, where F, L = diag(l1, l0, l4) and W
    fail to factor the holomorphic frame H.
    """
    m = w.m
    d = 2 * m + 2
    L_loop = LoopMatrix.from_constant(_block_diag(w.l1, w.l0, w.l4))
    # W = I + loop^-1 (u at (1,2), -u# at (2,3)) + loop^-2 (v at (1,3)).
    wp1 = np.zeros((d, d), dtype=complex)
    wp1[0:m, m:m + 2] = w.u
    wp1[m:m + 2, m + 2:] = -w.usharp
    wp2 = np.zeros((d, d), dtype=complex)
    wp2[0:m, m + 2:] = w.v
    W_loop = LoopMatrix(d, d, {0: np.eye(d), -1: wp1, -2: wp2})
    tauWinv = unipotent_inverse(get_context(m).tau(W_loop))
    residual = (F @ L_loop @ tauWinv - hf.H_loop().to_float(w.z)).max_abs()
    if residual > 1e-6:
        raise ResidualTooLarge(
            "frame does not refactor the holomorphic side: %.3e" % residual
        )
    return residual


def _assemble_exact_middle(hf: HolomorphicFrame, w: IwasawaWitness) -> ExtendedFrame:
    """Exact middle two columns; valid in any gauge of the unit block l0.

    The assembled columns omit the l0^-1 factor (the 'rational gauge').  They
    differ from the honest float columns by the unit scalars (s, sbar)
    column-wise, which every projective and quadratic check is insensitive
    to.  When q == I2 identically s = +-1: for both shipped examples the
    columns equal the honest ones inside the singular circle and are their
    negatives outside it, where the future-pointing lift takes s = -1.
    """
    m = hf.m
    d = 2 * m + 2
    Jm = mx.mat_map(_jm(m), RationalFn.coerce)
    f = mx.mat_map(hf.f, RationalFn.coerce)
    g = mx.mat_map(hf.g, RationalFn.coerce)
    fsharp = mx.mat_map(mx.sharp(hf.f), RationalFn.coerce)
    ubar = mx.mat_conj(w.u)
    top = mx.mat_add(f, mx.mat_mul(mx.mat_mul(g, Jm), ubar))
    mid = mx.mat_sub(
        mx.identity(2, RF_ONE, RF_ZERO),
        mx.mat_mul(mx.mat_mul(fsharp, Jm), ubar),
    )
    bot = mx.mat_mul(Jm, ubar)

    coeffs = {}
    for power, r0, block in ((-1, 0, top), (0, m, mid), (1, m + 2, bot)):
        col = np.full((d, 2), RF_ZERO, dtype=object)
        col[r0:r0 + len(block)] = block
        coeffs[power] = col
    middle = LoopMatrix(d, 2, coeffs)
    return ExtendedFrame("exact", m, w, middle=middle, hf=hf)


# -- connection forms ----------------------------------------------------------


def _block_diag(l1, l0, l4) -> np.ndarray:
    """diag(l1, l0, l4), the shape of L and of its derivatives."""
    m = l1.shape[0]
    L = np.zeros((2 * m + 2, 2 * m + 2), dtype=complex)
    L[0:m, 0:m] = l1
    L[m:m + 2, m:m + 2] = l0
    L[m + 2:, m + 2:] = l4
    return L


def gauge_z_derivative(hf: HolomorphicFrame, w: IwasawaWitness) -> np.ndarray:
    """Closed-form L_z at the float witness's sample, L = diag(l1, l0, l4).

    Each real direction D in (x, y) differentiates the Gram data by the
    product rule from exact f_D and g_D.  The Cholesky factor Lc = l4^H
    moves by dLc = Lc Phi(Lc^-1 drho Lc^-H), Phi keeping the lower triangle
    with its diagonal halved (Murray, arXiv:1602.07527), and ds = dc / 2s.
    L_z = (L_x - i L_y) / 2, because d/dz does not commute with ^H.
    """
    z = w.z
    Jm = _jm_np(hf.m)
    J2 = _J2_NP
    fv, gv = w.fv, w.gv
    rho, us = w.rho, w.usharp
    s = w.l0[0, 0]
    Lc = w.l4.conj().T
    Lc_inv = np.linalg.inv(Lc)

    dL = []
    for fpoly, gpoly in hf.axis_derivatives:
        fd = _eval_mat(fpoly, z)
        gd = _eval_mat(gpoly, z)
        half = Jm @ fd.conj() @ J2 @ fv.T @ Jm + gd.conj().T @ gv
        drho = half + half.conj().T
        dus = (np_sharp(fd) - J2 @ fd.conj().T @ gv - J2 @ fv.conj().T @ gd
               - us @ drho) @ w.rho_inv
        # dq = J2 d(fbar^t f) - d(u# rho u#^H) J2; only c = q[0,0] is needed.
        half_f = fd.conj().T @ fv
        half_u = dus @ rho @ us.conj().T
        dc = ((half_f + half_f.conj().T)[1, 0]
              - (half_u + half_u.conj().T + us @ drho @ us.conj().T)[0, 1])
        ds = dc / (2 * s)
        P = Lc_inv @ drho @ Lc_inv.conj().T
        dl4 = (Lc @ (np.tril(P) - np.diag(np.diag(P)) / 2)).conj().T
        dl1 = -w.l1 @ Jm @ dl4.T @ Jm @ w.l1
        dL.append(_block_diag(dl1, np.diag([ds, -ds / (s * s)]), dl4))
    return (dL[0] - 1j * dL[1]) / 2


def maurer_cartan(hf: HolomorphicFrame, z):
    """Closed-form connection coefficients at a sample (float path).

    Returns (alpha1p, alpha0p): the loop^-1 coefficient L N L^-1 (N the
    nilpotent potential value) and the loop^0 coefficient
    L [N, tauW1] L^-1 - L_z L^-1, with L_z from gauge_z_derivative.
    """
    m = hf.m
    d = 2 * m + 2
    Jm = _jm_np(m)

    w = solve_iwasawa_float(hf, z)
    L = _block_diag(w.l1, w.l0, w.l4)
    Linv = np.linalg.inv(L)
    fcv = _eval_mat(hf.fcheck, z)
    N = np.zeros((d, d), dtype=complex)
    N[0:m, m:m + 2] = fcv
    N[m:m + 2, m + 2:] = -np_sharp(fcv)
    alpha1p = L @ N @ Linv

    tauW1 = np.zeros((d, d), dtype=complex)
    tauW1[m:m + 2, 0:m] = -w.usharp.conj() @ Jm
    tauW1[m + 2:, m:m + 2] = Jm @ w.u.conj()
    commutator = N @ tauW1 - tauW1 @ N

    alpha0p = L @ commutator @ Linv - gauge_z_derivative(hf, w) @ Linv
    return alpha1p, alpha0p


def pullback_halfisotropy(ctx, alpha1p: np.ndarray) -> dict:
    """Pull the loop^-1 coefficient back and test the isotropy bilinear.

    The pullback must land in the off-diagonal part with top-right block B1
    satisfying B1 B1^t = 0; the report carries both residuals.
    """
    m = ctx.m
    d = ctx.dim
    pulled = ctx.iso_P_inv_np(alpha1p)
    B1 = pulled[0:2, 2:d]
    diag_contamination = max(
        float(abs(pulled[0:2, 0:2]).max()),
        float(abs(pulled[2:, 2:]).max()),
    )
    iso = float(abs(B1 @ B1.T).max())
    lower = pulled[2:, 0:2]
    I11 = np.diag([-1.0, 1.0]).astype(complex)
    pairing = float(abs(lower + B1.T @ I11).max())
    return {
        "b1_isotropy": iso,
        "offblock_residual": diag_contamination,
        "pairing_residual": pairing,
    }
