"""Closed-form loop factorization: exact witnesses, float witnesses, the
assembled frames, and the connection coefficients they induce."""

import hashlib
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from willmore.frames import HolomorphicFrame, integrate_frame
from willmore.groups import get_context
from willmore.errors import ResidualTooLarge, SingularLocus
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
from willmore.loops import exact_equal, exact_identity, exact_map, exact_matrix, sharp
from willmore.potentials import NormalizedPotential, builtin_potential, to_nilpotent
from willmore.scalars import BiPoly, GaussianRational, RationalFn
from willmore.surfaces import (
    SurfacePair,
    induced_metric,
    lift_columns_float,
    reference_singular_radius,
)

from conftest import float_values


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
        assert w.rho.dtype == object
        assert w.q_is_identity
        ident = exact_identity(2, RationalFn(BiPoly.const(1)), RationalFn(BiPoly.zero()))
        assert exact_equal(w.q, ident)


def _sorted_text(x):
    """Text of an exact matrix or RationalFn: each num/den term dict, sorted."""
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ",".join(_sorted_text(e) for e in x) + "]"
    return "(%s)/(%s)" % (_sorted_terms(x.num), _sorted_terms(x.den))


def _sorted_terms(p):
    return "+".join("%d,%d:%s,%s" % (a, b, c.re, c.im) for (a, b), c in sorted(p.terms.items()))


def _chain_usharp(hf, w):
    """u# as the exact witness formed it before it solved 1E on the numerator
    over det rho: a product of RationalFn through rho^-1, whose num/den text
    the first digest below pins."""
    J2 = get_context(hf.m).J2

    def rf(mat):
        return exact_map(mat, RationalFn.coerce)

    j2fh = J2 @ np.conjugate(hf.f).T
    return exact_matrix((rf(sharp(hf.f)) - rf(j2fh @ hf.g)) @ w.rho_inv)


def test_exact_intermediates_keep_their_representation(hf1, hf2, frame1, frame2, pair1):
    # the num/den form of each entry follows from the association of every
    # exact product; pinned are rho, u# and det rho of both examples and both
    # example-1 metrics at lambda = 1.  The first digest is the text the
    # tuple-matrix code computed, with u# rebuilt by its rational chain; the
    # witness's own u#, its numerator over det rho, must equal that u# and
    # is pinned by the second digest.
    old, new = hashlib.sha256(), hashlib.sha256()
    for hf, frame in ((hf1, frame1), (hf2, frame2)):
        w = frame.witness
        chain = _chain_usharp(hf, w)
        assert chain.shape == w.usharp.shape
        for (i, j), x in np.ndenumerate(w.usharp):
            assert x == chain[i, j], (hf.m, i, j)
        for digest, usharp in ((old, chain), (new, w.usharp)):
            for part in (w.rho, usharp, w.det_rho):
                digest.update(_sorted_text(part).encode())
    for which in ("Y", "Yhat"):
        text = _sorted_text(induced_metric(pair1, which)).encode()
        old.update(text)
        new.update(text)
    assert old.hexdigest() == (
        "2ad8b3fcbc56bb7faf3f4696fa7819d67460fe494949abb38254f100f3129d24")
    assert new.hexdigest() == (
        "9a49af25cdb5b5f1bfe404b8a44647c9823a2d6ba525bef2ebd0ab0966d42ecb")


def test_exact_witness_of_a_random_potential_keeps_its_representation():
    # criterion 6's fourth random draw (m = 2, q != I2): rho, u#, q and det rho,
    # whose num/den text follows the term order of every exact product on a
    # potential other than the two shipped examples
    from test_acceptance import _random_potentials

    w = solve_iwasawa_exact(integrate_frame(to_nilpotent(_random_potentials(20)[3])))
    assert w.q_is_identity is False
    digest = hashlib.sha256()
    for part in (w.rho, w.usharp, w.q, w.det_rho):
        digest.update(_sorted_text(part).encode())
    assert digest.hexdigest() == (
        "7f3bf2b5de02f7fae73ce22596170ba1b52a8e218e486c107b9378fcbe28e48a")


def test_exact_witness_blocks_sit_over_their_known_denominators(frame1, frame2):
    # u# over det = det rho and q over D2 = det conj(det), each up to a
    # constant factor, which construction normalizes away
    def over(x, den):
        lead = x.den.leading_coefficient()
        return x.is_zero() or x.den * den.leading_coefficient() == den * lead

    for frame in (frame1, frame2):
        w = frame.witness
        det = w.det_rho.num
        assert w.det_rho.den == BiPoly.const(1)
        D2 = det * det.conjugate()
        for name, den in (("usharp", det), ("u", det), ("q", D2)):
            for (i, j), x in np.ndenumerate(getattr(w, name)):
                assert over(x, den), (w.m, name, i, j, x.den.degrees())


def test_exact_determinant_is_a_perfect_square(hf1, hf2):
    from fractions import Fraction

    w1 = solve_iwasawa_exact(hf1)
    sigma1 = _r2_poly([1, 0, Fraction(-1, 4), Fraction(-2, 9)])
    assert w1.det_rho == RationalFn(sigma1 * sigma1)

    w2 = solve_iwasawa_exact(hf2)
    sigma2 = _r2_poly([1, 0, Fraction(-1, 4)])
    assert w2.det_rho == RationalFn(sigma2 * sigma2)


def _rational_chain(hf, w):
    """q as a product of RationalFn, as the exact witness formed it before it
    solved 1C over a known denominator: the reference for that block, from
    the witness's rho and u#."""
    J2 = get_context(hf.m).J2

    def rf(mat):
        return exact_map(mat, RationalFn.coerce)

    one, zero = RationalFn(BiPoly.const(1)), RationalFn(BiPoly.zero())
    J2rf = rf(J2)
    usharp_bar_t = np.conjugate(w.usharp).T
    return ((exact_identity(2, one, zero) + rf((J2 @ np.conjugate(hf.f).T) @ hf.f))
            - (w.usharp @ w.rho) @ (usharp_bar_t @ J2rf))


def test_exact_witness_blocks_equal_the_rational_chain(hf1, hf2, frame1, frame2):
    for hf, frame in ((hf1, frame1), (hf2, frame2)):
        w = frame.witness
        q = _rational_chain(hf, w)
        assert w.q.shape == q.shape
        for (i, j), x in np.ndenumerate(w.q):
            assert x == q[i, j], (hf.m, i, j)
        ident = exact_identity(2, RationalFn(BiPoly.const(1)), RationalFn(BiPoly.zero()))
        assert w.q_is_identity and exact_equal(q, ident)


def test_exact_closure_rejects_a_broken_frame(hf1):
    # g[0,0] + z breaks the quadrature g = -int f fcheck#, so 1B cannot hold
    g = np.array(hf1.g)
    g[0, 0] = g[0, 0] + BiPoly.var_z()
    broken = HolomorphicFrame(hf1.m, hf1.fcheck, hf1.f, exact_matrix(g))
    with pytest.raises(ResidualTooLarge):
        solve_iwasawa_exact(broken)


@pytest.mark.parametrize("example_id", [1, 2])
def test_float_witness_matches_exact_at_samples(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    wx = solve_iwasawa_exact(hf)
    # the exact witness solves no v; 1D gives it as g rho^-1
    exact_blocks = {"rho": wx.rho, "u": wx.u,
                    "v": exact_map(hf.g, RationalFn.coerce) @ wx.rho_inv}
    for z in (0.2 + 0.1j, -0.5 + 0.4j, 0.7j):
        wf = solve_iwasawa_float(hf, np.array([z]))
        for name, block in exact_blocks.items():
            exact = np.array(
                [[e.evaluate(z) for e in row] for row in block],
                dtype=complex,
            )
            got = getattr(wf, name)[0]
            assert np.abs(got - exact).max() < 1e-10, (name, z)


@pytest.mark.parametrize("example_id", [1, 2])
def test_float_witness_residuals(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    keys = ("1B", "q-offdiag", "q-unit", "q-conj-pair", "a-factor", "rho-factor")
    for z in (0.3 - 0.2j, 0.6 + 0.5j):
        w = solve_iwasawa_float(hf, np.array([z]))
        for key in keys:
            assert w.residuals[key][0] < 1e-10, (key, z, w.residuals[key][0])


def test_singular_locus_raises(hf2):
    from willmore.errors import SingularLocus

    # the degeneracy circle of the second example is |z| = sqrt(2)
    w = solve_iwasawa_float(hf2, np.array([complex(2 ** 0.5, 0.0)]))
    assert isinstance(w.errors[0], SingularLocus)


@pytest.mark.parametrize("z", [0.3 + 0.2j, np.array(0.3 + 0.2j)], ids=["complex", "0-d array"])
@pytest.mark.parametrize("call", [
    solve_iwasawa_float,
    maurer_cartan,
    lambda hf, z: hf.f[0, 0].evaluate_float(z),
], ids=["solve_iwasawa_float", "maurer_cartan", "BiPoly.evaluate_float"])
def test_float_evaluators_take_stacks_only(hf1, call, z):
    # a one-sample z is a stack of one, np.array([z]); a 0-d z is refused
    with pytest.raises(ValueError, match="1-D array"):
        call(hf1, z)


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

    fv = np.array([[p.evaluate_float(np.array([z]))[0] for p in row] for row in hf.f],
                  dtype=complex)
    gv = np.array([[p.evaluate_float(np.array([z]))[0] for p in row] for row in hf.g],
                  dtype=complex)
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
               "l0": l0, "l1": l1, "l4": l4, "fv": fv, "gv": gv}
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
    solve_iwasawa_float gives it in a stack of one, or carries the error that
    stack records.  Returns the (class, message head) of each error seen."""
    assert len(w.errors) == len(zs)
    failed = set()
    for k, z in enumerate(zs):
        one = solve_iwasawa_float(hf, np.array([z]))
        e = one.errors[0]
        if e is not None:
            assert type(w.errors[k]) is type(e) and str(w.errors[k]) == str(e)
            failed.add((type(e), str(e).split(" at ")[0].split(" residual")[0]))
            continue
        assert w.errors[k] is None
        j = int(np.flatnonzero(w.index == k)[0])
        for name in ("rho", "rho_inv", "u", "usharp", "v", "q", "l0", "l1", "l4", "fv", "gv"):
            assert _same_bits(getattr(w, name)[j], getattr(one, name)[0]), (z, name)
        for key, value in one.residuals.items():
            assert _same_bits(w.residuals[key][j], value[0]), (z, key)
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
    one = np.array([root2])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(gram_float(_eval_mat(hf2.f, one), _eval_mat(hf2.g, one))[0])
    zs = np.array([0.3 + 0.2j, root2, -0.5j, root2 * 1j])
    w = solve_iwasawa_float(hf2, zs)
    assert [type(e) for e in w.errors] == [type(None), SingularLocus, type(None), SingularLocus]
    _check_against_one_sample_calls(hf2, zs, w)


def test_stacked_lift_values_isolate_failed_samples(hf1):
    zs = _near_locus_stack()
    pair = SurfacePair(hf1.m, np.exp(0.4j), hf1)
    Y, Yhat, errors = float_values(pair, zs)
    assert Y.shape == Yhat.shape == (len(zs), 8)
    for k, z in enumerate(zs):
        oneY, oneYhat, (e,) = float_values(pair, np.array([z]))
        if e is not None:
            assert type(errors[k]) is type(e) and str(errors[k]) == str(e)
            assert np.isnan(Y[k]).all() and np.isnan(Yhat[k]).all()
            continue
        assert errors[k] is None
        assert _same_bits(Y[k], oneY[0]) and _same_bits(Yhat[k], oneYhat[0])
    assert sum(e is None for e in errors) >= 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gram_matrix_fails_only_its_sample(hf1):
    # From |z| ~ 1e52 the example-1 Gram matrix overflows, and LAPACK would
    # fail a whole stack on its account.
    zs = np.array([1e60, 0.3])
    one = np.array([1e60])
    assert not np.isfinite(gram_float(_eval_mat(hf1.f, one), _eval_mat(hf1.g, one))[0]).all()
    w = solve_iwasawa_float(hf1, zs)
    assert type(w.errors[0]) is SingularLocus and "not finite" in str(w.errors[0])
    assert w.errors[1] is None and w.index.tolist() == [1]
    assert isinstance(solve_iwasawa_float(hf1, np.array([1e60])).errors[0], SingularLocus)
    _check_against_one_sample_calls(hf1, zs, w)


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
        frame = assemble_frame(hf, solve_iwasawa_float(hf, np.array([z])))
        assert frame.factor_residual[0] < 1e-8
        for which in ("G(2m+2,C)", "real-form-via-tau", "twisted-via-D0"):
            rep = ctx.check_membership(frame.F, which)
            assert rep["passed"], (which, rep)


def test_perturbed_float_frame_fails_its_checks(hf1):
    # one coefficient entry moved by 1e-6: the middle row, first column at
    # loop^0 couples the middle and outer blocks at an even power, so the
    # twist breaks too; at z = 1, |l1| ~ 2.1 lifts the refactor residual
    # to about 2e-6, clear of its 1e-6 bound
    from willmore.iwasawa import REFACTOR_TOL
    from willmore.loops import LoopMatrix

    z = 1.0 + 0j
    m = hf1.m
    d = 2 * m + 2
    ctx = get_context(m)
    w = solve_iwasawa_float(hf1, np.array([z]))
    frame = assemble_frame(hf1, w)
    assert check_refactor(hf1, w, frame.F)[0] == frame.factor_residual[0] < 1e-12
    bump = np.zeros((d, d), dtype=complex)
    bump[m, 0] = 1e-6
    bad = frame.F + LoopMatrix.from_constant(bump)
    assert check_refactor(hf1, w, bad)[0] > REFACTOR_TOL
    for which in ("G(2m+2,C)", "real-form-via-tau", "twisted-via-D0"):
        assert ctx.check_membership(frame.F, which)["passed"], which
        rep = ctx.check_membership(bad, which)
        assert not rep["passed"], (which, rep)
        assert rep["max_residual"] > 5e-7, (which, rep)


def test_float_frame_over_no_samples_is_an_empty_stack(hf2):
    # a witness over zero samples gives a frame and refactor residuals
    # stacked over zero samples, not a single value
    w = solve_iwasawa_float(hf2, np.array([], dtype=complex))
    frame = assemble_frame(hf2, w)
    assert frame.errors == []
    assert frame.factor_residual.shape == (0,)
    assert frame.F.evaluate(w.z, 1.0).shape == (0, 6, 6)


def test_assembled_frame_window_is_bounded(hf1, hf2):
    # finite uniton bound: every assembled loop lives in powers [-2, 2]
    for hf in (hf1, hf2):
        for z in (0.3 + 0.2j, -0.6 + 0.1j):
            frame = assemble_frame(hf, solve_iwasawa_float(hf, np.array([z])))
            lo, hi = frame.F.window()
            assert -2 <= lo <= hi <= 2


def test_exact_middle_columns_match_float(frame2, hf2):
    # the rational-gauge columns agree with the float frame columns up to
    # the unit gauge scalar; for this example q == I so they match exactly
    z = 0.4 + 0.3j
    float_frame = assemble_frame(hf2, solve_iwasawa_float(hf2, np.array([z])))
    lam = np.exp(0.3j)
    Ffull = float_frame.F.evaluate(z, lam)[0]
    # the exact blocks are numerators over det rho
    top, mid, bot = (np.array([[x.evaluate(z) for x in row] for row in b])
                     / frame2.den.evaluate(z) for b in frame2.middle)
    mid_exact = np.concatenate([top / lam, mid, lam * bot])
    m = hf2.m
    assert np.abs(Ffull[:, m:m + 2] - mid_exact).max() < 1e-9


def test_maurer_cartan_coefficients(hf1):
    # the loop^-1 coefficient is nilpotent and its pullback satisfies the
    # half-isotropy structure; the loop^0 coefficient completes a connection
    # whose lambda-affinity is checked against F^-1 dF in the verify suite
    z = 0.31 + 0.17j
    a1, a0, _ = maurer_cartan(hf1, np.array([z]))
    a1p, a0p = a1[0], a0[0]
    assert np.abs(np.linalg.matrix_power(a1p, 3)).max() < 1e-18
    rep = pullback_halfisotropy(get_context(hf1.m), a1p)
    assert rep["b1_isotropy"] < 1e-10
    assert rep["offblock_residual"] < 1e-10
    assert rep["pairing_residual"] < 1e-10


def test_maurer_cartan_lambda_affinity(hf2):
    # F^-1 F_z evaluated at two lambdas must interpolate the affine form
    # lam^-1 a1p + a0p
    z = 0.22 - 0.41j
    a1, a0, _ = maurer_cartan(hf2, np.array([z]))
    a1p, a0p = a1[0], a0[0]
    h = 1e-5

    def F_at(zz, lam):
        fr = assemble_frame(hf2, solve_iwasawa_float(hf2, np.array([zz])))
        return fr.F.evaluate(zz, lam)[0]

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

    def P(coeffs):
        return BiPoly({(k, 0): c for k, c in enumerate(coeffs)})

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
    w0 = solve_iwasawa_float(hf, np.array([Z_CUT]))
    Y0, Yh0 = (c[0] for c in lift_columns_float(w0, 1.0))
    assert abs(w0.q[0][0, 0] + 1) < 1e-3
    far = Z_CUT - 1e-4j
    assert w0.q[0][0, 0].imag > 0 > solve_iwasawa_float(hf, np.array([far])).q[0][0, 0].imag
    for dz in (0, 1e-6, -1e-6, 1e-6j, -1e-6j, -1e-4j):
        z = Z_CUT + dz
        w = solve_iwasawa_float(hf, np.array([z]))
        Y, Yh = (c[0] for c in lift_columns_float(w, 1.0))
        assert Y[0].real > 0 and Yh[0].real > 0, (dz, Y[0], Yh[0])
        # O(h) motion; a sign flip would move l0 by 2 and the lift by 2|Y|.
        bound = 100 * abs(dz) + 1e-12
        assert np.abs(w.l0[0] - w0.l0[0]).max() < bound, dz
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
        w = solve_iwasawa_float(hf, np.array([zz]))
        return _block_diag(w.l1, w.l0, w.l4)[0]

    def axis(u):
        return (L_at(z - 2 * h * u) - 8 * L_at(z - h * u) + 8 * L_at(z + h * u)
                - L_at(z + 2 * h * u)) / (12 * h)

    want = (axis(1) - 1j * axis(1j)) / 2
    got = gauge_z_derivative(hf, solve_iwasawa_float(hf, np.array([z])))[0]
    assert np.abs(got - want).max() < 1e-8 * max(1.0, np.abs(want).max())


def _stack_with_locus_point(example_id):
    """Five samples of an example; the one at index 2 lies on its degeneracy
    circle and fails to factorize."""
    r = reference_singular_radius(example_id)
    return np.array([0.3 + 0.2j, -0.45 + 0.61j, r * np.exp(0.7j), 0.05 - 0.9j, 1.3 + 0.4j])


@pytest.mark.parametrize("example_id", [1, 2])
def test_stacked_connection_forms_are_bitwise_the_one_sample_calls(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    d = 2 * hf.m + 2
    zs = _stack_with_locus_point(example_id)
    a1, a0, errors = maurer_cartan(hf, zs)
    assert a1.shape == a0.shape == (len(zs), d, d)
    w = solve_iwasawa_float(hf, zs)
    Lz = gauge_z_derivative(hf, w)
    for k, z in enumerate(zs):
        one1, one0, (e,) = maurer_cartan(hf, np.array([z]))
        if e is not None:
            assert type(errors[k]) is type(e) and str(errors[k]) == str(e)
            assert np.isnan(a1[k]).all() and np.isnan(a0[k]).all()
            continue
        assert errors[k] is None
        assert _same_bits(a1[k], one1[0]) and _same_bits(a0[k], one0[0]), z
        j = int(np.flatnonzero(w.index == k)[0])
        one_w = solve_iwasawa_float(hf, np.array([z]))
        assert _same_bits(Lz[j], gauge_z_derivative(hf, one_w)[0]), z
    assert [e is not None for e in errors] == [False, False, True, False, False]


def _sample(w, j):
    """Sample j of a float witness, its fields without the sample axis."""
    return SimpleNamespace(**{name: getattr(w, name)[j] for name in (
        "rho", "rho_inv", "usharp", "l0", "l1", "l4", "fv", "gv", "z")})


def _one_sample_gauge_reference(hf, w):
    """L_z at one sample, computed the way the one-sample code did before
    stacking: 2-D numpy products and numpy complex scalars for s."""
    ctx = get_context(hf.m)
    Jm, J2 = ctx.np("Jm"), ctx.np("J2")
    fv, gv, rho, us = w.fv, w.gv, w.rho, w.usharp
    s = w.l0[0, 0]
    Lc = w.l4.conj().T
    Lc_inv = np.linalg.inv(Lc)
    dL = []
    for fpoly, gpoly in hf.axis_derivatives:
        fd = _eval_mat(fpoly, np.array([w.z]))[0]
        gd = _eval_mat(gpoly, np.array([w.z]))[0]
        half = Jm @ fd.conj() @ J2 @ fv.T @ Jm + gd.conj().T @ gv
        drho = half + half.conj().T
        dus = (sharp(fd) - J2 @ fd.conj().T @ gv - J2 @ fv.conj().T @ gd
               - us @ drho) @ w.rho_inv
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


@pytest.mark.parametrize("source", ["example-1", "example-2", "near-cut"])
def test_stacked_gauge_derivative_is_bitwise_the_one_sample_formulas(source):
    # Both examples have q == I2, so s = +-1 there; near the cut s is a
    # general unit, and numpy's array product s * s differs from the complex
    # scalar product in the last bit at about 1 sample in 100.
    if source == "near-cut":
        hf = _near_cut_frame()
        rng = np.random.default_rng(0)
        zs = Z_CUT + 0.05 * (rng.normal(size=200) + 1j * rng.normal(size=200))
    else:
        hf = integrate_frame(to_nilpotent(builtin_potential(int(source[-1]))))
        zs = np.array([0.3 + 0.2j, -0.45 + 0.61j, 0.05 - 0.9j, 1.3 + 0.4j, 0.7 - 0.1j, -0.2j])
    w = solve_iwasawa_float(hf, zs)
    assert len(w.index) == len(zs)
    Lz = gauge_z_derivative(hf, w)
    for k, z in enumerate(zs.tolist()):
        want = _one_sample_gauge_reference(hf, _sample(solve_iwasawa_float(hf, np.array([z])), 0))
        assert _same_bits(Lz[k], want), z


@pytest.mark.parametrize("example_id", [1, 2])
def test_stacked_frame_is_bitwise_the_one_sample_frame(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    zs = _stack_with_locus_point(example_id)
    w = solve_iwasawa_float(hf, zs)
    fr = assemble_frame(hf, w)
    assert fr.errors == w.errors and len(fr.factor_residual) == len(w.index) == 4
    assert _same_bits(check_refactor(hf, w, fr.F), fr.factor_residual)
    for j, k in enumerate(w.index):
        one = assemble_frame(hf, solve_iwasawa_float(hf, np.array([zs[k]])))
        assert sorted(fr.F.coeffs) == sorted(one.F.coeffs)
        for power, coeff in one.F.coeffs.items():
            assert _same_bits(fr.F.coeffs[power][j], coeff[0]), (k, power)
        assert _same_bits(fr.factor_residual[j], one.factor_residual[0]), k


def test_stacked_refactor_check_returns_what_the_one_sample_check_raises(hf1):
    # A bump like that of test_perturbed_float_frame_fails_its_checks, scaled
    # by |l1|: about 2.1 times its size at z = 1, above the bound, and about
    # its size near z = 0, below it.
    from willmore.iwasawa import REFACTOR_TOL
    from willmore.loops import LoopMatrix

    m = hf1.m
    bump = np.zeros((2 * m + 2, 2 * m + 2), dtype=complex)
    bump[m, 0] = 8e-7
    zs = np.array([1.0 + 0j, 0.1 + 0.05j])
    w = solve_iwasawa_float(hf1, zs)
    residual = check_refactor(hf1, w, assemble_frame(hf1, w).F + LoopMatrix.from_constant(bump))
    assert residual[0] > REFACTOR_TOL >= residual[1]
    for j, z in enumerate(zs):
        one = solve_iwasawa_float(hf1, np.array([z]))
        bad = assemble_frame(hf1, one).F + LoopMatrix.from_constant(bump)
        assert _same_bits(check_refactor(hf1, one, bad)[0], residual[j])


def test_stacked_frame_records_refactor_failures(hf1, monkeypatch):
    import willmore.iwasawa

    zs = np.array([0.3 + 0.2j, -0.4 + 0.1j])
    monkeypatch.setattr(willmore.iwasawa, "REFACTOR_TOL", 0.0)
    fr = assemble_frame(hf1, solve_iwasawa_float(hf1, zs))
    for k, z in enumerate(zs):
        one = assemble_frame(hf1, solve_iwasawa_float(hf1, np.array([z])))
        assert type(one.errors[0]) is ResidualTooLarge
        assert type(fr.errors[k]) is ResidualTooLarge
        assert str(fr.errors[k]) == str(one.errors[0])
