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

The exact witness reads rho (1F), E (1E) and the first term of 1C off one
polynomial Gram matrix G = Bbar^t Sigma B, Sigma = diag(I, J2, I), over the
basis B = [K | l0 | l1], K = [I; f^t Jm; g], l_k = [0; e_k; -f J2 e_k]
(block rows m, 2, m), all applied by indexing: rho = G[:m, :m],
E = G[m:, :m], G[m:, m:] J2 = I + J2 fbar^t f.  With rho^-1 = adj(rho) / det
the blocks it goes on to solve are polynomial numerators over a denominator
known in advance, det = det rho or D2 = det conj(det), so no gcd is needed:

    u# = U / det,   U = E adj(rho),   E = f# - J2 fbar^t g
    q  = Q / D2,    Q = det Q1,       Q1 = det (I + J2 fbar^t f) - E Ubar^t J2

with U# = sharp(U) the numerator of u.  No product with rho is formed:
adj(rho) rho = det I gives U rho = det E, and rho is Hermitian, so
conj(det) = det and D2 = det^2.  1B cleared of det D2 and
divided by det reads U# Q1 - det g Ubar^t J2 - D2 f = 0, a polynomial
identity (the polynomials have no zero divisors, so it holds exactly when
the undivided one does), and q == I2 reads Q == D2 I2.  The exact witness
stops at 1B: exact frames need only u, so 1D and 1A are solved only in
floats, where they check l1.

The diagonal Gram factor W0 = diag(a, q, rho) splits as tau(L)^-1 L with
L = diag(l1, l0, l4): l4 is the upper Cholesky factor of rho,
l0 = diag(s, 1/s) with s the square root of the unit c = q[0,0] that makes
the light-cone lift future-pointing (a choice continuous in z, unlike the
principal root), and l1 = Jm (l4^t)^-1 Jm, which satisfies the bilinear
pairing exactly and the Hermitian condition l1bar^t l1 = a as a theorem
(checked, not assumed).

l1 and l4 live outside the rational-function field (square roots), so the
exact witness is global but the float witness is numeric.  It keeps the
block formulas above, not the Gram, because its bits are pinned and the
Gram's products round differently.  It is solved over a stack of samples at
once, every block carrying a leading sample axis, and keeps f(z), g(z) and
the frame's middle blocks for the lifts, their metrics and L_z; a sample
that fails a check drops out of the stack with its error recorded.  The
float entry points take 1-D arrays of samples only.  The full extended frame
is built over the stack: a LoopMatrix of complex arrays, checked against the
holomorphic side, F L tau(W)^-1 = H, by BLAS products of loop coefficients,
matrix by matrix, so each sample holds the bits of a stack of one.  When
q == I2 identically the frame's middle two columns are rational, and the
exact frame is just their three nonzero blocks, the loop^-1, loop^0 and
loop^1 coefficients of _middle_blocks, held as polynomial numerators over
det rho: they are all the surface extraction needs, and it binds the loop
parameter on them as the float lifts do.
"""

from __future__ import annotations

import numpy as np

from .errors import ResidualTooLarge, SingularLocus
from .frames import HolomorphicFrame
from .groups import get_context
from .loops import (
    LoopMatrix,
    _object_product,
    exact_equal,
    exact_identity,
    exact_map,
    exact_matrix,
    nilpotent_block,
    sharp,
    unipotent_inverse,
)
from .scalars import BP_ONE, BP_ZERO, RationalFn, _cmul_np, as_samples

_STRUCT_TOL = 1e-8
REFACTOR_TOL = 1e-6


def _ct(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return X.conj().swapaxes(-1, -2)


class IwasawaWitness:
    """Gram data of the factorization, exact (global) or float (numeric).

    Both kinds carry m, rho, rho_inv, u, usharp and q.
    An exact witness holds read-only object arrays of RationalFn, so it is
    the one whose rho.dtype is object; it also sets det_rho, q_is_identity,
    usharp_frac = (U, det), the BiPoly numerator matrix and denominator
    that u# = U / det is solved on.
    A float witness is solved over a 1-D array of N samples and holds stacks
    over the samples that passed every check: v, l0, l1, l4, z, residuals,
    fv, gv and middle, the (top, mid, bot) blocks of _middle_blocks(fv, gv,
    u), with index giving their positions in the input and errors the error
    each of the N samples failed with (None where it passed).
    """

    def __init__(self, m, rho, rho_inv, u, usharp, q, v=None, det_rho=None,
                 usharp_frac=None, q_is_identity=None, l0=None, l1=None, l4=None,
                 z=None, residuals=None, fv=None, gv=None, middle=None, index=None,
                 errors=None):
        self.m = m
        self.rho = rho
        self.rho_inv = rho_inv
        self.det_rho = det_rho
        self.usharp_frac = usharp_frac
        self.u = u
        self.usharp = usharp
        self.v = v
        self.q = q
        self.q_is_identity = q_is_identity
        self.l0 = l0
        self.l1 = l1
        self.l4 = l4
        self.z = z
        self.residuals = residuals or {}
        # Float witnesses keep f(z) and g(z) for the frame, lifts and L_z,
        # and the frame's middle blocks for the frame, lifts and metrics.
        self.fv = fv
        self.gv = gv
        self.middle = middle
        self.index = index
        self.errors = errors


class ExtendedFrame:
    """Factorized frame: full float loop F over a stack of samples, or, set on
    an exact frame only, middle: the (top, mid, bot) blocks of _middle_blocks,
    the read-only loop^-1, loop^0 and loop^1 coefficients of the frame's two
    middle columns in rows 1..m, m+1..m+2 and m+3..2m+2 (all else is zero),
    as BiPoly numerators over the BiPoly den = det rho.

    A float frame has one matrix per sample that passed the witness's checks,
    one factor_residual per such sample, and errors: for each input sample,
    the witness's error or the ResidualTooLarge its refactor check failed
    with (None where it passed).
    """

    def __init__(self, m, witness, F=None, middle=None, den=None, z=None,
                 factor_residual=None, hf=None, errors=None):
        self.m = m
        self.witness = witness
        self.F = F
        self.middle = middle
        self.den = den
        self.z = z
        self.factor_residual = factor_residual
        self.hf = hf
        self.errors = errors


def _det_small(A):
    """Determinant by cofactor expansion, intended for n <= 4 ring scalars."""
    n, c = A.shape
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return A[0, 0]
    if n == 2:
        return A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    acc = None
    for j in range(n):
        if A[0, j].is_zero():
            continue
        term = A[0, j] * _det_small(np.delete(A[1:], j, axis=1))
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return A[0, 0] * 0  # a zero of the right scalar type
    return acc


def _adjugate_small(A):
    """Adjugate via cofactors: A @ adj(A) = det(A) * I.  Ring scalars, n <= 4."""
    n, c = A.shape
    if n != c:
        raise ValueError("adjugate of a non-square matrix")
    if n == 1:
        return np.full((1, 1), A[0, 0] ** 0, dtype=object)  # a one of A's ring
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            cof = _det_small(np.delete(np.delete(A, j, axis=0), i, axis=1))
            out[i, j] = -cof if (i + j) % 2 else cof
    return out


def _gram_exact(hf: HolomorphicFrame) -> np.ndarray:
    """The BiPoly Gram matrix G = Bbar^t Sigma B of the module docstring, by a
    product that skips the zeros of B; Sigma swaps rows m and m+1 of B."""
    m, f = hf.m, hf.f
    eye = exact_identity(m + 2, BP_ONE, BP_ZERO)
    basis = np.block([[eye[:m]], [sharp(f)[::-1], eye[m:, m:]], [hf.g, -f[:, ::-1]]])
    sigma = np.r_[:m, m + 1, m, m + 2:2 * m + 2]
    return _object_product(np.conjugate(basis).T, basis[sigma])


def solve_iwasawa_exact(hf: HolomorphicFrame) -> IwasawaWitness:
    """Global rational-function witness: no square root taken, no gcd called.

    Every block is solved on polynomial numerators over known denominators
    (see the module docstring) and returned as a read-only object array of
    RationalFn over its denominator: rho over 1, rho^-1, u# and u over
    det rho, and q over D2.
    """
    m = hf.m
    gram = _gram_exact(hf)
    rho_poly, E = gram[:m, :m], gram[m:, :m]  # 1F, and 1E: u# rho = E
    det = _det_small(rho_poly)
    adj = _adjugate_small(rho_poly)

    def over(mat, den):
        return exact_map(mat, lambda p: RationalFn(p, den))

    def times(mat, p):
        return exact_map(mat, lambda x: x * p)

    U = E @ adj  # 1E on the numerator: u# = U / det
    usharp = over(U, det)
    D2 = det * det.conjugate()  # q's denominator
    # 1C on Q = det Q1: U rho = det E, as adj(rho) rho = det I, and
    # conj(det) = det, as rho is Hermitian.  X[:, ::-1] is X J2.
    Ubar_t_J2 = np.conjugate(U).T[:, ::-1]
    Q1 = times(gram[m:, m:][:, ::-1], det) - E @ Ubar_t_J2
    Q = times(Q1, det)

    # 1B, cleared of det D2 and then divided by det, must vanish identically.
    resid = (sharp(U) @ Q1 - times(hf.g @ Ubar_t_J2, det)) - times(hf.f, D2)
    if not all(x.is_zero() for x in resid.flat):
        raise ResidualTooLarge("closure equation 1B fails as a rational identity")

    return IwasawaWitness(
        m, exact_map(rho_poly, RationalFn.coerce), over(adj, det), sharp(usharp), usharp,
        over(Q, D2), det_rho=RationalFn(det), usharp_frac=(U, det),
        q_is_identity=exact_equal(Q, exact_identity(2, D2, BP_ZERO)),
    )


def _eval_mat(mat, z) -> np.ndarray:
    """A matrix of BiPoly over a 1-D array of N samples, shape (N, rows, cols).

    The stack is C-contiguous, so each sample's matrix has the strides of a
    stack of one and every product of it rounds the same way.  Far from the
    origin a power of z overflows, and an infinite coefficient times a zero
    power is NaN; neither warns, and the Gram checks fail such samples.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.array([[p.evaluate_float(z) for p in row] for row in mat], dtype=complex)
    return np.ascontiguousarray(np.moveaxis(vals, -1, 0))


def gram_float(fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Equation 1F at each sample: rho = I + Jm fbar J2 f^t Jm + gbar^t g, the
    permutations Jm and J2 applied by indexing."""
    gram = (fv.conj()[..., ::-1, ::-1] @ fv.swapaxes(-1, -2))[..., ::-1]
    return np.eye(fv.shape[-2], dtype=complex) + gram + _ct(gv) @ gv


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


def solve_iwasawa_float(hf: HolomorphicFrame, z) -> IwasawaWitness:
    """Numeric witness including the triangular factors, over a 1-D array of z.

    Every check runs on the whole stack and a failed sample only drops out
    (see IwasawaWitness): the checks run in the order positivity of rho,
    unit diagonal q, Cholesky, 1B, a-factor, and a sample keeps the error of
    the first one it fails.  Each sample's values equal those of a stack of
    one bit for bit; a z that is not a 1-D array raises ValueError.
    """
    z = as_samples(z)
    m = hf.m
    tol = _STRUCT_TOL
    n = len(z)
    Jm = get_context(m).np("Jm")
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

    # Far from the origin the Gram product overflows; the check below fails
    # those samples.
    with np.errstate(over="ignore", invalid="ignore"):
        rho = gram_float(fv, gv)
    check(~np.isfinite(rho).all(axis=(-2, -1)), lambda k: SingularLocus(
        "gram matrix is not finite at z=%r" % (complex(z[k]),)))
    # A sample without a finite, then without a positive, Gram matrix gets
    # the identity in its place, and zero f and g, so that no stacked LAPACK
    # call fails and no later product overflows on its account.
    if failed.any():
        rho = np.where(failed[:, None, None], eye_m, rho)
    herm = (rho + _ct(rho)) / 2
    scale = np.maximum(1.0, np.abs(rho).max(axis=(-2, -1)))
    eig_min = np.linalg.eigvalsh(herm).min(axis=-1)
    check(eig_min <= 1e-12 * scale, lambda k: SingularLocus(
        "gram matrix lost positivity at z=%r (min eig %.3e)" % (complex(z[k]), eig_min[k])))
    if failed.any():
        spared = failed[:, None, None]
        rho = np.where(spared, eye_m, rho)
        fv = np.where(spared, 0.0, fv)
        gv = np.where(spared, 0.0, gv)
    fsh = sharp(fv)
    rho_inv = np.linalg.inv(rho)

    # Shared left factors are computed once; products still associate from
    # the left, as in the block equations, so the bits do not change.  J2
    # is applied by indexing (X[..., ::-1] is X J2, X[..., ::-1, :] is J2 X).
    j2fh = _ct(fv)[..., ::-1, :]
    usharp = (fsh - j2fh @ gv) @ rho_inv
    u = sharp(usharp)
    q = np.eye(2, dtype=complex) + j2fh @ fv - (usharp @ rho @ _ct(usharp))[..., ::-1]
    v = gv @ rho_inv
    uq = u @ q
    vrho = v @ rho
    a = eye_m - uq[..., ::-1] @ _ct(u) - vrho @ _ct(v)

    residuals = {}
    residuals["1B"] = np.abs(uq - (vrho @ _ct(usharp))[..., ::-1] - fv).max(axis=(-2, -1))
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

    Lc, no_cholesky = _cholesky_stack(rho)
    check(no_cholesky, lambda k: SingularLocus("cholesky failed at z=%r" % (complex(z[k]),)))
    l4 = _ct(Lc)
    l1 = Jm @ np.linalg.inv(l4.swapaxes(-1, -2)) @ Jm
    residuals["a-factor"] = np.abs(_ct(l1) @ l1 - a).max(axis=(-2, -1))
    residuals["rho-factor"] = np.abs(_ct(l4) @ l4 - rho).max(axis=(-2, -1))
    check(residuals["1B"] > 1e-6 * np.maximum(1.0, np.abs(fv).max(axis=(-2, -1))),
          lambda k: ResidualTooLarge("closure equation 1B residual %.3e" % residuals["1B"][k]))
    check(residuals["a-factor"] > 1e-6 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1))),
          lambda k: ResidualTooLarge(
              "triangular factor mismatch %.3e against block a" % residuals["a-factor"][k]))

    ok = ~failed
    usharp, fv, gv = usharp[ok], fv[ok], gv[ok]
    u = sharp(usharp)
    return IwasawaWitness(
        m, rho[ok], rho_inv[ok], u, usharp, q[ok], v=v[ok],
        l0=l0[ok], l1=l1[ok], l4=_ct(Lc[ok]), z=z[ok],
        residuals={k: r[ok] for k, r in residuals.items()}, fv=fv, gv=gv,
        middle=_middle_blocks(fv, gv, u), index=np.flatnonzero(ok), errors=errors,
    )


def assemble_frame(hf: HolomorphicFrame, witness: IwasawaWitness) -> ExtendedFrame:
    """Build the factorized frame from a witness."""
    if witness.rho.dtype == object:
        return _assemble_exact_middle(hf, witness)
    return _assemble_float(hf, witness)


def _middle_blocks(f, g, u, den=None):
    """The frame's middle two columns before the l0^-1 factor: rows 1..m at
    loop^-1, f + g Jm ubar; rows m+1, m+2 at loop^0, I - f# Jm ubar; the last
    m rows at loop^1, Jm ubar.  Given den, with conj(den) = den, u is the
    numerator of u over den, and the blocks are numerators over den, with
    den f and den I in place of f and I.  Float stacks and exact matrices
    over det rho take the same products; the permutation Jm is applied by
    indexing (X[..., ::-1] is X Jm, X[..., ::-1, :] is Jm X)."""
    ubar = np.conjugate(u)
    if den is None:
        top, eye = f, np.eye(2)
    else:
        top, eye = den * f, exact_identity(2, den, BP_ZERO)
    return top + g[..., ::-1] @ ubar, eye - sharp(f)[..., ::-1] @ ubar, ubar[..., ::-1, :]


def _middle_blocks_d(f, g, ubar, fd, gd, dubar):
    """The derivative of _middle_blocks(f, g, u) (no den) along one direction,
    by the product rule from f_D, g_D and ubar_D, in the shape of its blocks."""
    return (fd + gd[..., ::-1] @ ubar + g[..., ::-1] @ dubar,
            -(sharp(fd)[..., ::-1] @ ubar + sharp(f)[..., ::-1] @ dubar),
            dubar[..., ::-1, :])


def middle_columns_float(w: IwasawaWitness):
    """The frame's middle two columns at a float witness: (top, mid, bot) of
    its middle blocks times l0^-1, stacked over the samples of the witness."""
    l0inv = np.linalg.inv(w.l0)
    return tuple(b @ l0inv for b in w.middle)


def _assemble_float(hf: HolomorphicFrame, w: IwasawaWitness) -> ExtendedFrame:
    m = hf.m
    d = 2 * m + 2
    Jm = get_context(m).np("Jm")
    fv, gv = w.fv, w.gv
    fsh = sharp(fv)
    cu_sharp = w.usharp.conj()
    cv = w.v.conj()
    l1inv = np.linalg.inv(w.l1)
    l4inv = np.linalg.inv(w.l4)
    top, mid, bot = middle_columns_float(w)

    blocks = {}

    def put(power, r0, c0, mat):
        blk = blocks.setdefault(power, np.zeros(w.rho.shape[:-2] + (d, d), dtype=complex))
        blk[..., r0:r0 + mat.shape[-2], c0:c0 + mat.shape[-1]] = mat

    put(0, 0, 0, (np.eye(m) - (fv @ cu_sharp)[..., ::-1]
                  + (gv[..., ::-1] @ cv)[..., ::-1]) @ l1inv)
    put(-1, 0, m, top)
    put(-2, 0, m + 2, gv @ l4inv)
    put(1, m, 0, -(cu_sharp[..., ::-1] + (fsh[..., ::-1] @ cv)[..., ::-1]) @ l1inv)
    put(0, m, m, mid)
    put(-1, m, m + 2, -fsh @ l4inv)
    put(2, m + 2, 0, Jm @ cv @ Jm @ l1inv)
    put(1, m + 2, m, bot)
    put(0, m + 2, m + 2, l4inv)

    F = LoopMatrix(d, d, blocks)
    residual = check_refactor(hf, w, F)
    errors = list(w.errors)
    for j in np.flatnonzero(residual > REFACTOR_TOL):
        errors[w.index[j]] = ResidualTooLarge(
            "frame does not refactor the holomorphic side: %.3e" % residual[j])
    return ExtendedFrame(m, w, F=F, z=w.z, factor_residual=residual, hf=hf, errors=errors)


def check_refactor(hf: HolomorphicFrame, w: IwasawaWitness, F: LoopMatrix) -> np.ndarray:
    """Largest entry of F L tau(W)^-1 - H at each sample of the float witness.

    L = diag(l1, l0, l4), and H is bound exactly at each sample, so the check
    does not lean on the witness's f and g.  The residuals are returned as
    they are; _assemble_float records each one above REFACTOR_TOL, where F, L
    and W fail to factor the holomorphic frame, as its sample's error.
    """
    m = w.m
    d = 2 * m + 2
    L_loop = LoopMatrix.from_constant(_block_diag(w.l1, w.l0, w.l4))
    # W = I + loop^-1 (u at (1,2), -u# at (2,3)) + loop^-2 (v at (1,3)).
    wp1 = nilpotent_block(w.u, 0j)
    wp2 = np.zeros_like(wp1)
    wp2[..., 0:m, m + 2:] = w.v
    W_loop = LoopMatrix(d, d, {0: np.eye(d), -1: wp1, -2: wp2})
    tauWinv = unipotent_inverse(get_context(m).tau(W_loop))
    return (F @ L_loop @ tauWinv - hf.H_loop().to_float(w.z)).max_abs()


def _assemble_exact_middle(hf: HolomorphicFrame, w: IwasawaWitness) -> ExtendedFrame:
    """Exact middle two columns as their (top, mid, bot) blocks; valid in any
    gauge of the unit block l0.

    The assembled columns omit the l0^-1 factor (the 'rational gauge').  They
    differ from the honest float columns by the unit scalars (s, sbar)
    column-wise, which every projective and quadratic check is insensitive
    to.  When q == I2 identically s = +-1: for both shipped examples the
    columns equal the honest ones inside the singular circle and are their
    negatives outside it, where the future-pointing lift takes s = -1.
    """
    U, det = w.usharp_frac
    blocks = _middle_blocks(hf.f, hf.g, sharp(U), det)
    return ExtendedFrame(hf.m, w, middle=tuple(exact_matrix(b) for b in blocks), den=det,
                         hf=hf)


# -- connection forms ----------------------------------------------------------


def _block_diag(l1, l0, l4) -> np.ndarray:
    """diag(l1, l0, l4), the shape of L and of its derivatives, for matrices
    or for each sample of stacks (last two axes)."""
    m = l1.shape[-1]
    L = np.zeros(l1.shape[:-2] + (2 * m + 2, 2 * m + 2), dtype=complex)
    L[..., 0:m, 0:m] = l1
    L[..., m:m + 2, m:m + 2] = l0
    L[..., m + 2:, m + 2:] = l4
    return L


def gram_axis_derivatives(hf: HolomorphicFrame, w: IwasawaWitness) -> list:
    """[(f_D, g_D, drho_D, du#_D) for each real direction D in
    hf.axis_derivatives] at each sample of the float witness w of hf.

    f_D and g_D are the exact derivatives bound at the samples; drho_D and
    du#_D follow from 1F and 1E by the product rule:
    drho = d(Jm fbar J2 f^t Jm + gbar^t g), the sum of a half and its ^H, and
    du# = (f_D# - J2 fbar_D^t g - J2 fbar^t g_D - u# drho) rho^-1.
    """
    fv, gv = w.fv, w.gv
    out = []
    for fpoly, gpoly in hf.axis_derivatives:
        fd = _eval_mat(fpoly, w.z)
        gd = _eval_mat(gpoly, w.z)
        half = (fd.conj()[..., ::-1, ::-1] @ fv.swapaxes(-1, -2))[..., ::-1] + _ct(gd) @ gv
        drho = half + _ct(half)
        dus = (sharp(fd) - _ct(fd)[..., ::-1, :] @ gv - _ct(fv)[..., ::-1, :] @ gd
               - w.usharp @ drho) @ w.rho_inv
        out.append((fd, gd, drho, dus))
    return out


def gauge_z_derivative(hf: HolomorphicFrame, w: IwasawaWitness) -> np.ndarray:
    """Closed-form L_z at each sample of the float witness, L = diag(l1, l0, l4).

    Each real direction D in (x, y) differentiates the Gram data by the
    product rule (gram_axis_derivatives).  The Cholesky factor Lc = l4^H
    moves by dLc = Lc Phi(Lc^-1 drho Lc^-H), Phi keeping the lower triangle
    with its diagonal halved (Murray, arXiv:1602.07527), and ds = dc / 2s.
    L_z = (L_x - i L_y) / 2, because d/dz does not commute with ^H.
    Products of single entries are CPython's complex products, as they are
    on the entries of one matrix.
    """
    Jm = get_context(hf.m).np("Jm")
    fv = w.fv
    rho, us = w.rho, w.usharp
    s = w.l0[..., 0, 0]
    ss = _cmul_np(s, s)
    Lc = _ct(w.l4)
    Lc_inv = np.linalg.inv(Lc)

    dL = []
    for fd, _, drho, dus in gram_axis_derivatives(hf, w):
        # dq = J2 d(fbar^t f) - d(u# rho u#^H) J2; only c = q[0,0] is needed.
        half_f = _ct(fd) @ fv
        half_u = dus @ rho @ _ct(us)
        dc = ((half_f + _ct(half_f))[..., 1, 0]
              - (half_u + _ct(half_u) + us @ drho @ _ct(us))[..., 0, 1])
        ds = dc / (2 * s)
        P = Lc_inv @ drho @ _ct(Lc_inv)
        diag = np.where(np.eye(P.shape[-1], dtype=bool), P, 0)
        dl4 = _ct(Lc @ (np.tril(P) - diag / 2))
        dl1 = (-w.l1 @ Jm @ dl4.swapaxes(-1, -2))[..., ::-1] @ w.l1
        dl0 = np.zeros(s.shape + (2, 2), dtype=complex)
        dl0[..., 0, 0] = ds
        dl0[..., 1, 1] = -ds / ss
        dL.append(_block_diag(dl1, dl0, dl4))
    return (dL[0] - 1j * dL[1]) / 2


def maurer_cartan(hf: HolomorphicFrame, z):
    """Closed-form connection coefficients (float path) over a 1-D array of z.

    Returns (alpha1p, alpha0p, errors): the loop^-1 coefficient L N L^-1 (N
    the nilpotent potential value) and the loop^0 coefficient
    L [N, tauW1] L^-1 - L_z L^-1, with L_z from gauge_z_derivative, each one
    matrix per sample, NaN where the sample failed, from one stacked solve;
    errors is as SurfacePair.values gives it.  Each sample's matrices equal
    those of a stack of one bit for bit.
    """
    m = hf.m
    w = solve_iwasawa_float(hf, z)
    L = _block_diag(w.l1, w.l0, w.l4)
    Linv = np.linalg.inv(L)
    fcv = _eval_mat(hf.fcheck, w.z)
    N = nilpotent_block(fcv, 0j)
    alpha1p = L @ N @ Linv

    tauW1 = np.zeros(L.shape, dtype=complex)
    tauW1[..., m:m + 2, 0:m] = -w.usharp.conj()[..., ::-1]
    tauW1[..., m + 2:, m:m + 2] = w.u.conj()[..., ::-1, :]
    commutator = N @ tauW1 - tauW1 @ N

    alpha0p = L @ commutator @ Linv - gauge_z_derivative(hf, w) @ Linv
    out = np.full((2, len(w.errors)) + L.shape[1:], np.nan, dtype=complex)
    out[:, w.index] = alpha1p, alpha0p
    return out[0], out[1], w.errors


def pullback_halfisotropy(ctx, alpha1p: np.ndarray) -> dict:
    """Pull the loop^-1 coefficient back and test the isotropy bilinear.

    The pullback must land in the off-diagonal part with top-right block B1
    satisfying B1 B1^t = 0; the report carries both residuals, each the
    largest over the samples of a stack.
    """
    d = ctx.dim
    pulled = ctx.iso_P_inv_np(alpha1p)
    B1 = pulled[..., 0:2, 2:d]
    B1t = B1.swapaxes(-1, -2)
    diag_contamination = max(
        float(abs(pulled[..., 0:2, 0:2]).max()),
        float(abs(pulled[..., 2:, 2:]).max()),
    )
    iso = float(abs(B1 @ B1t).max())
    lower = pulled[..., 2:, 0:2]
    I11 = np.diag([-1.0, 1.0]).astype(complex)
    pairing = float(abs(lower + B1t @ I11).max())
    return {
        "b1_isotropy": iso,
        "offblock_residual": diag_contamination,
        "pairing_residual": pairing,
    }
