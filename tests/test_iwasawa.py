"""Closed-form loop factorization: exact witnesses, float witnesses, the
assembled frames, and the connection coefficients they induce."""

import math
from fractions import Fraction

import numpy as np
import pytest

import willmore.matrices as mx
from willmore.frames import integrate_frame
from willmore.groups import get_context
from willmore.errors import ResidualTooLarge, SingularLocus, WillmoreError
from willmore.iwasawa import (
    _block_diag,
    _cholesky_stack,
    _eval_mat,
    assemble_frame,
    check_refactor,
    gauge_z_derivative,
    gram_float,
    maurer_cartan,
    pullback_halfisotropy,
    solve_iwasawa_exact,
    solve_iwasawa_float,
)
from willmore.potentials import NormalizedPotential, builtin_potential, to_nilpotent
from willmore.scalars import BiPoly, GaussianRational, RationalFn
from willmore.surfaces import extract_pair, lift_columns_float, reference_singular_radius


def _r2_poly(coeffs):
    """sum coeffs[k] (z zbar)^k as an exact polynomial."""
    acc = BiPoly.zero()
    r2 = BiPoly.var_z() * BiPoly.var_zbar()
    power = BiPoly.const(1)
    for c in coeffs:
        acc = acc + power.scale(c) if c else acc
        power = power * r2
    return acc


def test_exact_witness_q_is_identity(frame1, frame2):
    for frame in (frame1, frame2):
        w = frame.witness
        assert w.backend == "exact"
        assert w.q_is_identity
        ident = mx.identity(2, RationalFn(BiPoly.const(1)), RationalFn(BiPoly.zero()))
        assert mx.mat_eq(w.q, ident)


def test_exact_determinant_is_a_perfect_square(hf1, hf2):
    from fractions import Fraction

    w1 = solve_iwasawa_exact(hf1)
    sigma1 = _r2_poly([1, 0, Fraction(-1, 4), Fraction(-2, 9)])
    assert w1.det_rho == RationalFn(sigma1 * sigma1)

    w2 = solve_iwasawa_exact(hf2)
    sigma2 = _r2_poly([1, 0, Fraction(-1, 4)])
    assert w2.det_rho == RationalFn(sigma2 * sigma2)


@pytest.mark.parametrize("example_id", [1, 2])
def test_float_witness_matches_exact_at_samples(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    wx = solve_iwasawa_exact(hf)
    for z in (0.2 + 0.1j, -0.5 + 0.4j, 0.7j):
        wf = solve_iwasawa_float(hf, z)
        for name in ("rho", "u", "v"):
            exact = np.array(
                [[e.evaluate(z) for e in row] for row in getattr(wx, name)],
                dtype=complex,
            )
            got = getattr(wf, name)
            assert np.abs(got - exact).max() < 1e-10, (name, z)
        assert abs(wf.det_rho - wx.det_rho.evaluate(z).real) < 1e-10


@pytest.mark.parametrize("example_id", [1, 2])
def test_float_witness_residuals(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    keys = ("1B", "q-offdiag", "q-unit", "q-conj-pair", "a-factor", "rho-factor")
    for z in (0.3 - 0.2j, 0.6 + 0.5j):
        w = solve_iwasawa_float(hf, z)
        for key in keys:
            assert w.residuals[key] < 1e-10, (key, z, w.residuals[key])


def test_singular_locus_raises(hf2):
    from willmore.errors import SingularLocus

    # the degeneracy circle of the second example is |z| = sqrt(2)
    with pytest.raises(SingularLocus):
        solve_iwasawa_float(hf2, complex(2 ** 0.5, 0.0))


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _near_locus_stack():
    """Samples within 1e-3 of the example-1 degeneracy circle, with four
    samples far from it interleaved."""
    r = reference_singular_radius(1)
    d = np.concatenate([-np.logspace(-10, -3, 30), np.logspace(-10, -3, 30)])
    near = r * (1 + d) * np.exp(0.3j)
    far = np.array([0.3 + 0.2j, -0.5 + 0.1j, 0.9j, 1.4 - 0.2j])
    return np.insert(near, [0, 15, 37, 60], far)


def _one_sample_reference(hf, z, lam):
    """The float witness and lift columns at one sample, computed the way the
    per-sample code did before stacking: 2-D numpy products and
    Python-complex scalar arithmetic."""
    m = hf.m
    z = complex(z)
    Jm = np.eye(m)[::-1].astype(complex)
    J2 = np.array([[0, 1], [1, 0]], dtype=complex)

    def sharp(X):
        return X[::-1, ::-1].T

    fv = np.array([[p.evaluate_float(z) for p in row] for row in hf.f], dtype=complex)
    gv = np.array([[p.evaluate_float(z) for p in row] for row in hf.g], dtype=complex)
    fsh = sharp(fv)
    rho = np.eye(m, dtype=complex) + Jm @ fv.conj() @ J2 @ fv.T @ Jm + gv.conj().T @ gv
    rho_inv = np.linalg.inv(rho)
    usharp = (fsh - J2 @ fv.conj().T @ gv) @ rho_inv
    u = sharp(usharp)
    q = np.eye(2, dtype=complex) + J2 @ fv.conj().T @ fv - usharp @ rho @ usharp.conj().T @ J2
    v = gv @ rho_inv
    a = np.eye(m, dtype=complex) - u @ q @ J2 @ u.conj().T - v @ rho @ v.conj().T
    s = np.sqrt(q[0, 0])
    t = fsh @ u[::-1, 1].conj()
    if (s * (1.0 + t[0] - t[1])).real < 0:
        s = -s
    l0 = np.diag([s, 1.0 / s])
    l4 = np.linalg.cholesky(rho).conj().T
    l1 = Jm @ np.linalg.inv(l4.T) @ Jm
    cu = u.conj()
    l0inv = np.linalg.inv(l0)
    top = (fv + gv @ Jm @ cu) @ l0inv
    mid = (np.eye(2) - fsh @ Jm @ cu) @ l0inv
    bot = (Jm @ cu) @ l0inv
    cols = np.concatenate([(1.0 / lam) * top, mid, lam * bot], axis=0)

    def combine(col):
        comps = [col[m] - col[m + 1], col[m] + col[m + 1]]
        for j in range(1, m + 1):
            comps += [-1j * (col[j - 1] - col[2 * m + 2 - j]), col[j - 1] + col[2 * m + 2 - j]]
        return np.array(comps)

    c = q[0, 0]
    residuals = {
        "1B": float(abs(u @ q - v @ rho @ usharp.conj().T @ J2 - fv).max()),
        "q-offdiag": float(max(abs(q[0, 1]), abs(q[1, 0]))),
        "q-unit": float(abs(abs(c) - 1.0)),
        "q-conj-pair": float(abs(q[1, 1] - c.conjugate())),
        "a-factor": float(abs(l1.conj().T @ l1 - a).max()),
        "rho-factor": float(abs(l4.conj().T @ l4 - rho).max()),
    }
    witness = {"rho": rho, "rho_inv": rho_inv, "u": u, "usharp": usharp, "v": v, "q": q,
               "a": a, "l0": l0, "l1": l1, "l4": l4, "fv": fv, "gv": gv}
    scale = math.sqrt(2.0) / 2.0
    return witness, residuals, (-scale * combine(cols[:, 1]), scale * combine(cols[:, 0]))


@pytest.mark.parametrize("example_id", [1, 2])
def test_stacked_float_path_is_bitwise_the_one_sample_code(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    zs = np.array([0j, 0.3 + 0.2j, -0.45 + 0.61j, complex(-0.0, 0.7), 0.05 - 0.9j, 1.3 + 0.4j])
    lam = np.exp(0.37j)
    w = solve_iwasawa_float(hf, zs)
    assert w.index.tolist() == list(range(len(zs)))
    Y, Yhat = lift_columns_float(w, lam)
    for k, z in enumerate(zs):
        witness, residuals, (Yr, Yhr) = _one_sample_reference(hf, z, lam)
        for name, want in witness.items():
            assert _same_bits(getattr(w, name)[k], want), (z, name)
        for key, want in residuals.items():
            assert _same_bits(w.residuals[key][k], want), (z, key)
        assert _same_bits(Y[k], Yr) and _same_bits(Yhat[k], Yhr), z


def _check_against_one_sample_calls(hf, zs, w):
    """Each sample of the stacked witness w equals, bit for bit, the witness
    solve_iwasawa_float gives it alone, or carries the error that call raises.
    Returns the (class, message head) of each error seen."""
    assert len(w.errors) == len(zs)
    failed = set()
    for k, z in enumerate(zs):
        try:
            one = solve_iwasawa_float(hf, complex(z))
        except WillmoreError as e:
            assert type(w.errors[k]) is type(e) and str(w.errors[k]) == str(e)
            failed.add((type(e), str(e).split(" at ")[0].split(" residual")[0]))
            continue
        assert w.errors[k] is None
        j = int(np.flatnonzero(w.index == k)[0])
        for name in ("rho", "rho_inv", "u", "usharp", "v", "q", "a", "l0", "l1", "l4",
                     "fv", "gv"):
            assert _same_bits(getattr(w, name)[j], getattr(one, name)), (z, name)
        assert _same_bits(w.det_rho[j], one.det_rho)
        assert bool(w.q_is_identity[j]) is one.q_is_identity
        for key, value in one.residuals.items():
            assert _same_bits(w.residuals[key][j], value), (z, key)
    return failed


def test_stacked_witness_isolates_failed_samples(hf1):
    zs = _near_locus_stack()
    w = solve_iwasawa_float(hf1, zs)
    failed = _check_against_one_sample_calls(hf1, zs, w)
    assert len(w.index) >= 4
    # positivity, the unit-diagonal q and the 1B closure each reject some
    assert failed == {(SingularLocus, "gram matrix lost positivity"),
                      (SingularLocus, "block q is not a unit diagonal"),
                      (ResidualTooLarge, "closure equation 1B")}


def test_exactly_singular_gram_matrix_fails_only_its_sample(hf2):
    # On example 2's degeneracy circle |z| = sqrt(2) the float Gram matrix is
    # exactly singular, so LAPACK rejects it and would fail a whole stack.
    root2 = 2 ** 0.5
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram_float(_eval_mat(hf2.f, root2), _eval_mat(hf2.g, root2)))
    zs = np.array([0.3 + 0.2j, root2, -0.5j, root2 * 1j])
    w = solve_iwasawa_float(hf2, zs)
    assert [type(e) for e in w.errors] == [type(None), SingularLocus, type(None), SingularLocus]
    _check_against_one_sample_calls(hf2, zs, w)


def test_stacked_lift_values_isolate_failed_samples(hf1):
    zs = _near_locus_stack()
    pair = extract_pair(assemble_frame(hf1, solve_iwasawa_float(hf1, 0.1)), np.exp(0.4j))
    Y, Yhat, errors = pair.values(zs)
    assert Y.shape == Yhat.shape == (len(zs), 8)
    for k, z in enumerate(zs):
        try:
            one = pair.values(complex(z))
        except WillmoreError as e:
            assert type(errors[k]) is type(e) and str(errors[k]) == str(e)
            assert np.isnan(Y[k]).all() and np.isnan(Yhat[k]).all()
            continue
        assert errors[k] is None
        assert _same_bits(Y[k], one[0]) and _same_bits(Yhat[k], one[1])
    assert sum(e is None for e in errors) >= 4


def test_cholesky_stack_isolates_a_failed_matrix():
    good = np.array([[2.0, 1j], [-1j, 3.0]])
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    L, failed = _cholesky_stack(np.array([good, bad, good * 2]))
    assert failed.tolist() == [False, True, False]
    assert _same_bits(L[0], np.linalg.cholesky(good))
    assert _same_bits(L[2], np.linalg.cholesky(good * 2))


@pytest.mark.parametrize("example_id", [1, 2])
def test_assembled_frame_memberships(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    ctx = get_context(hf.m)
    for z in (0.25 + 0.35j, -0.4 - 0.1j):
        frame = assemble_frame(hf, solve_iwasawa_float(hf, z))
        assert frame.factor_residual < 1e-8
        for which in ("G(2m+2,C)", "real-form-via-tau", "twisted-via-D0"):
            rep = ctx.check_membership(frame.F, which, z=z)
            assert rep["passed"], (which, rep)


def test_perturbed_float_frame_fails_its_checks(hf1):
    # one coefficient entry moved by 1e-6: the middle row, first column at
    # loop^0 couples the middle and outer blocks at an even power, so the
    # twist breaks too; at z = 1, |l1| ~ 2.1 lifts the refactor residual
    # to about 2e-6, clear of its 1e-6 bound
    from willmore.errors import ResidualTooLarge
    from willmore.loops import LoopMatrix

    z = 1.0 + 0j
    m = hf1.m
    d = 2 * m + 2
    ctx = get_context(m)
    w = solve_iwasawa_float(hf1, z)
    frame = assemble_frame(hf1, w)
    assert check_refactor(hf1, w, frame.F) == frame.factor_residual < 1e-12
    bump = np.zeros((d, d), dtype=complex)
    bump[m, 0] = 1e-6
    bad = frame.F + LoopMatrix.from_constant(bump)
    with pytest.raises(ResidualTooLarge):
        check_refactor(hf1, w, bad)
    for which in ("G(2m+2,C)", "real-form-via-tau", "twisted-via-D0"):
        assert ctx.check_membership(frame.F, which, z=z)["passed"], which
        rep = ctx.check_membership(bad, which, z=z)
        assert not rep["passed"], (which, rep)
        assert rep["max_residual"] > 5e-7, (which, rep)


def test_assembled_frame_window_is_bounded(hf1, hf2):
    # finite uniton bound: every assembled loop lives in powers [-2, 2]
    for hf in (hf1, hf2):
        for z in (0.3 + 0.2j, -0.6 + 0.1j):
            frame = assemble_frame(hf, solve_iwasawa_float(hf, z))
            lo, hi = frame.F.window()
            assert -2 <= lo <= hi <= 2


def test_exact_middle_columns_match_float(frame2, hf2):
    # the rational-gauge columns agree with the float frame columns up to
    # the unit gauge scalar; for this example q == I so they match exactly
    z = 0.4 + 0.3j
    float_frame = assemble_frame(hf2, solve_iwasawa_float(hf2, z))
    lam = np.exp(0.3j)
    Ffull = float_frame.F.evaluate(z, lam)
    mid_exact = frame2.middle.evaluate(z, lam)
    m = hf2.m
    assert np.abs(Ffull[:, m:m + 2] - mid_exact).max() < 1e-9


def test_maurer_cartan_coefficients(hf1):
    # the loop^-1 coefficient is nilpotent and its pullback satisfies the
    # half-isotropy structure; the loop^0 coefficient completes a connection
    # whose lambda-affinity is checked against F^-1 dF in the verify suite
    z = 0.31 + 0.17j
    a1p, a0p = maurer_cartan(hf1, z)
    assert np.abs(np.linalg.matrix_power(a1p, 3)).max() < 1e-18
    rep = pullback_halfisotropy(get_context(hf1.m), a1p)
    assert rep["b1_isotropy"] < 1e-10
    assert rep["offblock_residual"] < 1e-10
    assert rep["pairing_residual"] < 1e-10


def test_maurer_cartan_lambda_affinity(hf2):
    # F^-1 F_z evaluated at two lambdas must interpolate the affine form
    # lam^-1 a1p + a0p
    z = 0.22 - 0.41j
    a1p, a0p = maurer_cartan(hf2, z)
    h = 1e-5

    def F_at(zz, lam):
        fr = assemble_frame(hf2, solve_iwasawa_float(hf2, zz), check=False)
        return fr.F.evaluate(zz, lam)

    for lam in (1.0, 1j):
        F0 = F_at(z, lam)
        Fx = (F_at(z + h, lam) - F_at(z - h, lam)) / (2 * h)
        Fy = (F_at(z + 1j * h, lam) - F_at(z - 1j * h, lam)) / (2 * h)
        Fz = (Fx - 1j * Fy) / 2
        got = np.linalg.inv(F0) @ Fz
        want = a1p / lam + a0p
        assert np.abs(got - want).max() < 1e-5, lam


def _near_cut_frame():
    """An m = 3 potential whose q[0,0] crosses the negative real axis near Z_CUT.

    h = (iz - iz^2 - z^3/2, 1 - iz + iz^2 + z^3/2, 1),
    hhat = (z, -i - iz^2, 1 + z^2 + iz^3).
    """
    i = GaussianRational(0, 1)
    half = GaussianRational(Fraction(1, 2))
    P = BiPoly.from_z_coeffs
    pot = NormalizedPotential(
        3,
        [P([0, i, -i, -half]), P([1, -i, i, half]), P([1])],
        [P([0, 1]), P([-i, 0, -i]), P([1, 0, 1, i])],
    )
    return integrate_frame(to_nilpotent(pot))


Z_CUT = 0.2252 + 0.7150j


def test_gauge_is_continuous_across_the_principal_branch_cut():
    # c = q[0,0] is close to -1 here and changes the sign of its imaginary
    # part between Z_CUT and Z_CUT - 1e-4 i, where the principal square root
    # jumps from +i to -i.  The future-pointing choice of s must not.
    hf = _near_cut_frame()
    w0 = solve_iwasawa_float(hf, Z_CUT)
    Y0, Yh0 = lift_columns_float(w0, 1.0)
    assert abs(w0.q[0, 0] + 1) < 1e-3
    far = Z_CUT - 1e-4j
    assert w0.q[0, 0].imag > 0 > solve_iwasawa_float(hf, far).q[0, 0].imag
    for dz in (0, 1e-6, -1e-6, 1e-6j, -1e-6j, -1e-4j):
        z = Z_CUT + dz
        w = solve_iwasawa_float(hf, z)
        Y, Yh = lift_columns_float(w, 1.0)
        assert Y[0].real > 0 and Yh[0].real > 0, (dz, Y[0], Yh[0])
        # O(h) motion; a sign flip would move l0 by 2 and the lift by 2|Y|.
        bound = 100 * abs(dz) + 1e-12
        assert np.abs(w.l0 - w0.l0).max() < bound, dz
        assert max(np.abs(Y - Y0).max(), np.abs(Yh - Yh0).max()) < bound, dz


@pytest.mark.parametrize("source,z", [("near-cut", Z_CUT), ("example-1", 0.31 + 0.17j),
                                      ("example-1", -0.5 + 0.6j)])
def test_closed_form_gauge_derivative_matches_central_difference(source, z):
    if source == "near-cut":
        hf = _near_cut_frame()
    else:
        hf = integrate_frame(to_nilpotent(builtin_potential(1)))
    h = 1e-4

    def L_at(zz):
        w = solve_iwasawa_float(hf, zz)
        return _block_diag(w.l1, w.l0, w.l4)

    def axis(u):
        return (L_at(z - 2 * h * u) - 8 * L_at(z - h * u) + 8 * L_at(z + h * u)
                - L_at(z + 2 * h * u)) / (12 * h)

    want = (axis(1) - 1j * axis(1j)) / 2
    got = gauge_z_derivative(hf, solve_iwasawa_float(hf, z))
    assert np.abs(got - want).max() < 1e-8 * max(1.0, np.abs(want).max())
