"""Group-theoretic scaffolding: the basis isometry, involutions, and
membership reporting."""

import random
from fractions import Fraction

import numpy as np
import pytest

import willmore.loops
from willmore.groups import GroupContext, get_context
from willmore.loops import LoopMatrix, exact_map
from willmore.scalars import BiPoly, GaussianRational, RationalFn


def _rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
    )


def _rand_loop(rng, d):
    coeffs = {}
    for power in (-1, 0, 1):
        if rng.random() < 0.7:
            coeffs[power] = [
                [RationalFn(BiPoly.const(_rand_gr(rng))) for _ in range(d)]
                for _ in range(d)
            ]
    if not coeffs:
        coeffs[0] = [
            [RationalFn(BiPoly.const(_rand_gr(rng))) for _ in range(d)]
            for _ in range(d)
        ]
    return LoopMatrix(d, d, coeffs)


# Entries whose cleared numerators pass 2**62: 2**61 + 1 among Gaussian
# integers is held by int64, but its sums and products are not; (10**20 + 1)/3
# + i/7 is not held by int64 at all.
_BIG_ENTRIES = (GaussianRational(2 ** 61 + 1),
                GaussianRational(Fraction(10 ** 20 + 1, 3), Fraction(1, 7)))


def _big_gr_loop(rng, d, big):
    """A GaussianRational loop at powers -1, 0 and 1 of small entries over
    the denominators of big, with big in its leading 2 x 2 block, which
    index-wise entry (m, m) adds with one weight, and now and then
    elsewhere."""
    def entry(i, j):
        if max(i, j) < 2 or rng.random() < 0.1:
            return big
        return GaussianRational(Fraction(rng.randint(-3, 3), big._d),
                                Fraction(rng.randint(-3, 3), big._d))

    return LoopMatrix(d, d, {k: [[entry(i, j) for j in range(d)] for i in range(d)]
                             for k in (-1, 0, 1)})


def _object_matmul(A, B):
    """A @ B for exact loops by numpy's object @, power by power."""
    out = {}
    for k1, m1 in A.coeffs.items():
        for k2, m2 in B.coeffs.items():
            prod = m1 @ m2
            out[k1 + k2] = out[k1 + k2] + prod if k1 + k2 in out else prod
    return LoopMatrix(A.rows, B.cols, out)


def _rings(L):
    return {type(x) for m in L.coeffs.values() for x in m.flat}


def test_iso_P_keeps_the_ring_of_its_input():
    # A constant loop and a polynomial loop go through iso_P and the index
    # oracle in their own rings, to the values their RationalFn copies give.
    ctx = get_context(2)
    rng = random.Random(5)
    d = ctx.dim
    z, zb = BiPoly.var_z(), BiPoly.var_zbar()
    polys = [BiPoly.const(1), z, zb, z * zb + 1]
    G = LoopMatrix(d, d, {k: [[_rand_gr(rng) for _ in range(d)] for _ in range(d)]
                          for k in (-1, 0, 1)})
    P = LoopMatrix(d, d, {k: [[rng.choice(polys) * _rand_gr(rng) for _ in range(d)]
                              for _ in range(d)] for k in (-1, 0)})
    for A, ring in ((G, GaussianRational), (P, BiPoly)):
        Ar = LoopMatrix(d, d, {k: exact_map(m, RationalFn.coerce)
                               for k, m in A.coeffs.items()})
        for iso in (ctx.iso_P, ctx.iso_P_indexwise, ctx.iso_P_inv):
            got, want = iso(A), iso(Ar)
            assert _rings(got) == {ring}
            assert got == want
            for lam in (1.0, 1j):
                a, b = got.evaluate(0.3 + 0.2j, lam), want.evaluate(0.3 + 0.2j, lam)
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert ctx.iso_P(A) == ctx.iso_P_indexwise(A)


def test_context_constants_are_cached():
    assert get_context(2) is get_context(2)
    assert get_context(2) is not get_context(3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_iso_P_matches_indexwise_oracle(m):
    # two independently derived forms of the same conjugation must agree
    # exactly, entry for entry, on random exact inputs
    ctx = get_context(m)
    rng = random.Random(100 + m)
    d = ctx.dim
    for _ in range(34):
        A = _rand_loop(rng, d)
        via_conj = ctx.iso_P(A)
        via_index = ctx.iso_P_indexwise(A)
        assert (via_conj - via_index).is_zero()
    # Numerators past int64's range: both forms equal numpy's object @.
    left, right = (LoopMatrix.from_constant(c) for c in (ctx.iso_left, ctx.iso_right))
    for big in _BIG_ENTRIES:
        A = _big_gr_loop(rng, d, big)
        want = _object_matmul(_object_matmul(left, A), right)
        assert ctx.iso_P(A) == want
        assert ctx.iso_P_indexwise(A) == want


def test_indexwise_oracle_reads_no_other_constant(monkeypatch):
    # The oracle is independent of the change of basis it checks: with M,
    # P1 and the two sides of iso_P gone from its context, and no matrix
    # product to call, it gives the same loop, on loops of each ring.
    ctx = GroupContext(3)
    rng = random.Random(11)
    d = ctx.dim
    z = BiPoly.var_z()
    inputs = [_rand_loop(rng, d),
             LoopMatrix(d, d, {k: [[_rand_gr(rng) for _ in range(d)] for _ in range(d)]
                               for k in (-1, 0, 1)}),
             LoopMatrix(d, d, {k: [[z * _rand_gr(rng) + _rand_gr(rng) for _ in range(d)]
                                   for _ in range(d)] for k in (0, 1)})]
    wants = [ctx.iso_P(A) for A in inputs]
    for name in ("M", "P1", "iso_left", "iso_right"):
        setattr(ctx, name, None)

    def no_product(*args):
        raise AssertionError("the oracle multiplied matrices")

    monkeypatch.setattr(willmore.loops, "_gr_product", no_product)
    monkeypatch.setattr(LoopMatrix, "__matmul__", no_product)
    for A, want in zip(inputs, wants):
        got = ctx.iso_P_indexwise(A)
        assert _rings(got) == _rings(A)
        assert got == want


@pytest.mark.parametrize("m", [2, 3])
def test_iso_P_is_a_homomorphism(m):
    ctx = get_context(m)
    rng = random.Random(7 * m)
    d = ctx.dim
    for _ in range(5):
        A = _rand_loop(rng, d)
        B = _rand_loop(rng, d)
        lhs = ctx.iso_P(A @ B)
        rhs = ctx.iso_P(A) @ ctx.iso_P(B)
        assert (lhs - rhs).is_zero()
    # Numerators past int64's range: every product equals numpy's object @.
    for big in _BIG_ENTRIES:
        A, B = _big_gr_loop(rng, d, big), _big_gr_loop(rng, d, big)
        AB = A @ B
        assert AB == _object_matmul(A, B)
        PA, PB = ctx.iso_P(A), ctx.iso_P(B)
        assert ctx.iso_P(AB) == PA @ PB == _object_matmul(PA, PB)


@pytest.mark.parametrize("m", [2, 3])
def test_iso_P_inverse_round_trip(m):
    ctx = get_context(m)
    rng = random.Random(m)
    A = _rand_loop(rng, ctx.dim)
    assert (ctx.iso_P_inv(ctx.iso_P(A)) - A).is_zero()
    assert (ctx.iso_P(ctx.iso_P_inv(A)) - A).is_zero()


def test_iso_P_shape_guard():
    ctx = get_context(2)
    with pytest.raises(ValueError):
        ctx.iso_P(LoopMatrix.identity(3))


def test_tau_is_involutive():
    ctx = get_context(2)
    rng = random.Random(42)
    F = _rand_loop(rng, ctx.dim)
    assert (ctx.tau(ctx.tau(F)) - F).is_zero()


def test_membership_reports_identity():
    ctx = get_context(2)
    I = LoopMatrix.from_constant(np.eye(ctx.dim))
    for which in ("G(2m+2,C)", "real-form-via-tau", "twisted-via-D0"):
        rep = ctx.check_membership(I, which)
        assert rep["passed"], rep
        assert rep["max_residual"] == 0.0
    # an exact loop holds no frame to check
    with pytest.raises(ValueError):
        ctx.check_membership(LoopMatrix.identity(ctx.dim), "G(2m+2,C)")


def test_membership_detects_violation():
    ctx = get_context(2)
    d = ctx.dim
    # a non-orthogonal diagonal matrix breaks the bilinear form
    F = LoopMatrix.from_constant(2 * np.eye(d))
    rep = ctx.check_membership(F, "G(2m+2,C)")
    assert not rep["passed"]
    assert rep["max_residual"] > 1.0


def test_twisted_membership_grades_by_parity():
    # D0-conjugation negates entries coupling the middle 2-block to the
    # outer blocks, so those entries are the odd part of the grading
    ctx = get_context(2)
    d = ctx.dim
    m = ctx.m
    diag = np.eye(d)
    off = np.zeros((d, d))
    off[0, m] = 1.0
    off[m, 0] = 1.0
    F = LoopMatrix(d, d, {0: diag, -1: off})
    rep = ctx.check_membership(F, "twisted-via-D0")
    assert rep["passed"], rep
    # moving the same off-block to an even power breaks the twist
    G = LoopMatrix(d, d, {0: diag, 2: off})
    rep = ctx.check_membership(G, "twisted-via-D0")
    assert not rep["passed"]


def test_minkowski_transfer_under_iso_P_inv_np():
    # the conjugation takes the graded form J to the Minkowski form G,
    # so pulling back an orthogonal-for-J matrix gives an isometry for G
    ctx = get_context(2)
    d = ctx.dim
    J = ctx.np("J")
    G = ctx.np("minkowski")
    rng = np.random.default_rng(3)
    # build an exact J-orthogonal element: permutation-like block exchange
    B = np.eye(d)
    F = ctx.iso_P_inv_np(B)
    assert np.allclose(F.T @ G @ F, G, atol=1e-12)
