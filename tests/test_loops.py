"""Laurent-polynomial matrix algebra on exact (RationalFn) and complex arrays."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from willmore.loops import LoopMatrix, exact_map, unipotent_inverse
from willmore.scalars import BiPoly, GaussianRational, RationalFn

gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def loop_matrices(draw, n=2, max_power=2):
    coeffs = {}
    for k in range(draw(st.integers(0, 2))):
        power = draw(st.integers(-max_power, max_power))
        mat = [
            [RationalFn(BiPoly.const(draw(gaussians))) for _ in range(n)]
            for _ in range(n)
        ]
        coeffs[power] = mat
    return LoopMatrix(n, n, coeffs)


# Entries with mixed denominators, zeros among them.
mixed_gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
) | st.just(GaussianRational(0))


@st.composite
def gr_loop_pairs(draw):
    """Two GaussianRational loops, r x k and k x c, with powers in [-1, 1]."""
    r, k, c = (draw(st.integers(1, 3)) for _ in range(3))

    def loop(rows, cols):
        powers = draw(st.sets(st.integers(-1, 1), min_size=1, max_size=2))
        return {p: [[draw(mixed_gaussians) for _ in range(cols)] for _ in range(rows)]
                for p in powers}

    return (r, k, loop(r, k)), (k, c, loop(k, c))


@given(gr_loop_pairs())
@settings(deadline=None, max_examples=15)
def test_gaussian_rational_matmul_matches_object_matmul(pair):
    (r, k, a), (_, c, b) = pair
    want = {}
    for pa, ma in a.items():
        for pb, mb in b.items():
            # numpy's object @: one GaussianRational product and sum per term
            prod = np.array(ma, dtype=object) @ np.array(mb, dtype=object)
            want[pa + pb] = want[pa + pb] + prod if pa + pb in want else prod
    got = LoopMatrix(r, k, a) @ LoopMatrix(k, c, b)
    assert (got.rows, got.cols) == (r, c)
    kept = {p: m for p, m in want.items() if any(x for x in m.flat)}
    assert sorted(got.coeffs) == sorted(kept)
    for p, m in kept.items():
        assert got.coeffs[p].shape == (r, c)
        for x, y in zip(got.coeffs[p].flat, m.flat):
            assert type(x) is GaussianRational and (x._a, x._b, x._d) == (y._a, y._b, y._d)


@given(loop_matrices(), loop_matrices(), loop_matrices())
@settings(deadline=None, max_examples=30)
def test_loop_ring_axioms(A, B, C):
    assert (A + B) + C == A + (B + C)
    assert (A @ B) @ C == A @ (B @ C)
    assert A @ (B + C) == (A @ B) + (A @ C)


@given(loop_matrices(), loop_matrices())
@settings(deadline=None, max_examples=30)
def test_loop_evaluation_respects_product(A, B):
    z = 0.31 - 0.27j
    lam = np.exp(0.6j)
    va = _eval_np(A, z, lam)
    vb = _eval_np(B, z, lam)
    vab = _eval_np(A @ B, z, lam)
    assert np.allclose(va @ vb, vab, atol=1e-12)


def _entry(L, i, j, z, lam):
    """Entry (i, j) of a loop at (z, lam), read from its coefficients; z is
    ignored by a float loop."""
    return sum((m[i, j].evaluate(z) if L.exact else m[i, j]) * lam ** k
               for k, m in L.coeffs.items())


def _eval_np(L, z, lam):
    out = np.zeros((L.rows, L.cols), dtype=complex)
    for i in range(L.rows):
        for j in range(L.cols):
            out[i, j] = _entry(L, i, j, z, lam)
    return out


def _tuple_matmul(A, B):
    """The tuple-of-tuples product: each entry a0*b0, then + ak*bk in order."""
    out = []
    for row in A:
        orow = []
        for col in zip(*B):
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def test_exact_matmul_matches_tuple_reference():
    # numpy's object matmul sums the products in the tuple loop's order, so
    # the two agree on the RationalFn representations, not only on their values
    rng = np.random.default_rng(11)
    z, zb = BiPoly.var_z(), BiPoly.var_zbar()
    pool = [BiPoly.const(GaussianRational(1, 2)), z, zb, z * zb + 1, z * z - zb]

    def rand_rf():
        num = pool[rng.integers(len(pool))] * GaussianRational(int(rng.integers(-3, 4)), 1)
        return RationalFn(num, pool[rng.integers(len(pool))])

    a = [[rand_rf() for _ in range(3)] for _ in range(2)]
    b = [[rand_rf() for _ in range(2)] for _ in range(3)]
    got = (LoopMatrix(2, 3, {0: a}) @ LoopMatrix(3, 2, {0: b})).coeffs[0]
    want = _tuple_matmul(a, b)
    for i in range(2):
        for j in range(2):
            assert got[i, j].num.terms == want[i][j].num.terms
            assert got[i, j].den.terms == want[i][j].den.terms


def test_identity_and_shift_power():
    I = LoopMatrix.identity(3)
    assert I.window() == (0, 0)
    S = LoopMatrix(3, 3, {-2: I.coeffs[0]})
    assert S.window() == (-2, -2)
    assert (S @ S).window() == (-4, -4)
    lam = 0.6 + 0.8j
    v = _eval_np(S, 0.1 + 0.2j, lam)
    assert np.allclose(v, np.eye(3) * lam ** -2, atol=1e-14)


def test_empty_float_stack_keeps_its_shape_and_kind():
    # a float coefficient over zero samples is kept, so every loop built
    # from it is an empty stack of its kind, and the Neumann series of an
    # empty unipotent stack still ends
    empty = np.zeros((0, 3, 3))
    L = LoopMatrix(3, 3, {0: empty})
    assert L.exact is False and L.coeffs[0].shape == (0, 3, 3)
    assert L.is_zero() and L == L
    z = np.array([], dtype=complex)
    assert L.evaluate(z, 1.0).shape == (0, 3, 3)
    assert (L @ L.bar()).evaluate(z, 1j).shape == (0, 3, 3)
    U = LoopMatrix(3, 3, {0: empty + np.eye(3), -1: empty})
    assert (U @ unipotent_inverse(U)).evaluate(z, 1.0).shape == (0, 3, 3)


def test_window_tracks_support():
    z = RationalFn(BiPoly.var_z())
    one = RationalFn(BiPoly.const(1))
    zero = RationalFn(BiPoly.zero())
    A = LoopMatrix(1, 1, {-1: [[z]], 2: [[one]], 5: [[zero]]})
    # all-zero coefficient blocks are dropped at construction
    assert A.window() == (-1, 2)
    assert set(A.coeffs) == {-1, 2}


def test_bar_and_negate_lambda_on_scalars():
    # bar: lambda -> 1/conj(lambda) composed with entrywise conjugation
    z = RationalFn(BiPoly.var_z())
    A = LoopMatrix(1, 1, {1: [[z]]})
    B = A.bar()
    lam = np.exp(1.1j)
    s = 0.4 + 0.1j
    want = np.conj(_eval_np(A, s, 1 / np.conj(lam)))
    assert np.allclose(_eval_np(B, s, lam), want, atol=1e-14)
    C = A.negate_lambda()
    assert np.allclose(_eval_np(C, s, lam), _eval_np(A, s, -lam), atol=1e-14)


def test_loop_derivatives_are_entrywise():
    z = RationalFn(BiPoly.var_z())
    zb = RationalFn(BiPoly.var_zbar())
    A = LoopMatrix(1, 1, {0: [[z * z * zb]]})
    s = 0.2 + 0.5j
    assert abs(_entry(A.d_dz(), 0, 0, s, 1.0) - 2 * s * np.conj(s)) < 1e-14
    assert abs(_entry(A.d_dzbar(), 0, 0, s, 1.0) - s * s) < 1e-14


def test_float_backend_round_trip():
    A = LoopMatrix(2, 2, {-1: np.array([[1.0, 2.0], [0.0, 1.0]])})
    assert A.exact is False
    assert A.coeffs[-1].dtype == complex
    lam = np.exp(0.25j)
    v = _eval_np(A, 0.0, lam)
    assert np.allclose(v, np.array([[1, 2], [0, 1]]) / lam, atol=1e-14)
    assert np.array_equal(A.evaluate(0.0, lam), v)


def _random_float_loop(rng, n=3, powers=(-2, -1, 0, 1)):
    return LoopMatrix(n, n, {
        k: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for k in powers
    })


def test_float_loop_operations_match_their_values():
    rng = np.random.default_rng(5)
    A = _random_float_loop(rng)
    B = _random_float_loop(rng, powers=(0, 2))
    z = 0.3 + 0.1j
    for lam in (1.0, np.exp(0.7j), -0.4 + 0.2j):
        a, b = A.evaluate(z, lam), B.evaluate(z, lam)
        assert np.allclose((A @ B).evaluate(z, lam), a @ b, atol=1e-12)
        assert np.allclose((A - B).evaluate(z, lam), a - b, atol=1e-14)
        assert np.allclose(A.transpose().evaluate(z, lam), a.T, atol=1e-14)
        assert np.allclose(A.negate_lambda().evaluate(z, lam),
                           A.evaluate(z, -lam), atol=1e-14)
        assert np.allclose(A.bar().evaluate(z, lam),
                           np.conj(A.evaluate(z, 1 / np.conj(lam))), atol=1e-12)


def test_float_unipotent_inverse():
    rng = np.random.default_rng(6)
    N = np.triu(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 1)
    U = LoopMatrix(4, 4, {0: np.eye(4), -1: N, 1: N @ N})
    Uinv = unipotent_inverse(U)
    assert Uinv.exact is False
    ident = LoopMatrix.from_constant(np.eye(4))
    assert (U @ Uinv - ident).max_abs() < 1e-12
    # an exact loop is refused: its constant identity would be a float one
    with pytest.raises(ValueError, match="mixed exact and float"):
        unipotent_inverse(LoopMatrix.identity(4))


def test_to_float_binds_exact_entries():
    z = RationalFn(BiPoly.var_z())
    zb = RationalFn(BiPoly.var_zbar())
    A = LoopMatrix(2, 2, {-1: [[z, zb], [z * zb, RationalFn(BiPoly.const(1))]],
                          1: [[zb, z], [z, z]]})
    s, lam = 0.2 - 0.7j, np.exp(0.4j)
    F = A.to_float(s)
    assert F.exact is False and A.exact is True
    assert sorted(F.coeffs) == [-1, 1]
    assert np.array_equal(F.evaluate(None, lam), A.evaluate(s, lam))
    assert np.allclose(F.coeffs[-1], [[s, np.conj(s)], [abs(s) ** 2, 1]], atol=1e-15)


def test_mixed_backend_rejected():
    A = LoopMatrix.identity(2)
    B = LoopMatrix.from_constant(np.eye(2))
    for op in (lambda: A @ B, lambda: A + B, lambda: B - A):
        with pytest.raises(ValueError):
            op()
    with pytest.raises(ValueError):
        LoopMatrix(2, 2, {0: A.coeffs[0], 1: np.eye(2)})


def test_shape_mismatch_rejected():
    A = LoopMatrix.from_constant(np.ones((2, 3)))
    B = LoopMatrix.from_constant(np.ones((2, 3)))
    with pytest.raises(ValueError):
        A @ B


@pytest.mark.parametrize("example", [1, 2])
def test_to_float_is_the_entrywise_evaluation(example, request):
    # Bitwise, signed zeros included: to_float leaves zero entries as 0j
    # without evaluating them.
    H = request.getfixturevalue("hf%d" % example).H_loop()
    for z in (0.3 - 0.2j, -0.45 + 0.1j, 0.05j):
        F = H.to_float(z)
        assert sorted(F.coeffs) == sorted(H.coeffs)
        for k, exact in H.coeffs.items():
            want = np.array([x.evaluate(z) for x in exact.flat],
                            dtype=complex).reshape(exact.shape)
            assert F.coeffs[k].dtype == complex
            assert np.array_equal(F.coeffs[k].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("example", [1, 2])
def test_binding_a_stack_is_each_entrys_evaluation_at_the_float_z(example, request):
    # _bind makes each sample exact once and evaluates every entry at that
    # point; each entry must still give what evaluate gives at the float z,
    # bit for bit, signed zeros included.
    from willmore.loops import _bind

    H = request.getfixturevalue("hf%d" % example).H_loop()
    zs = np.array([0.3 - 0.2j, -0.45 + 0.1j, 0.05j, 0.71 + 0.33j, -0.2 - 0.6j])
    for k, exact in H.coeffs.items():
        got = _bind(exact, zs)
        assert got.shape == zs.shape + exact.shape and got.dtype == complex
        for j, z in enumerate(zs.tolist()):
            want = np.array([x.evaluate(z) if x else 0j for x in exact.flat],
                            dtype=complex).reshape(exact.shape)
            assert np.array_equal(got[j].view(np.uint64), want.view(np.uint64)), (k, j)


def _ring_loops(rng, d=3):
    """A GaussianRational loop and a BiPoly loop, random over a few powers."""
    z, zb = BiPoly.var_z(), BiPoly.var_zbar()
    pool = [BiPoly.const(GaussianRational(1, 2)), z, zb, z * zb + 1, z * z - zb]

    def gr():
        return GaussianRational(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))

    G = LoopMatrix(d, d, {k: [[gr() for _ in range(d)] for _ in range(d)]
                          for k in (-1, 0, 2)})
    P = LoopMatrix(d, d, {k: [[pool[rng.integers(len(pool))] * gr() for _ in range(d)]
                              for _ in range(d)] for k in (-2, 0, 1)})
    return G, P


def _as_rational(L):
    """The same loop with every entry a RationalFn."""
    return LoopMatrix(L.rows, L.cols,
                      {k: exact_map(m, RationalFn.coerce) for k, m in L.coeffs.items()})


def _rings(L):
    return {type(x) for m in L.coeffs.values() for x in m.flat}


def test_exact_rings_agree_with_their_rationalfn_copies():
    # Constant and polynomial loops keep their ring through every operation
    # and give the values their RationalFn copies give, bit for bit once
    # evaluated.
    rng = np.random.default_rng(14)
    G, P = _ring_loops(rng)
    G2, P2 = _ring_loops(rng)
    Gr, Pr = _as_rational(G), _as_rational(P)
    assert [_rings(L) for L in (G, P, Gr)] == [{GaussianRational}, {BiPoly}, {RationalFn}]
    for A, B in ((G, G2), (G, P2), (P, G2), (P, P2)):
        Ar, Br = _as_rational(A), _as_rational(B)
        assert _rings(A @ B) == ({BiPoly} if BiPoly in _rings(A) | _rings(B)
                                 else {GaussianRational})
        for op in (lambda x, y: x @ y, lambda x, y: x + y, lambda x, y: x - y):
            got = op(A, B)
            assert _rings(got) <= _rings(A) | _rings(B)
            assert got == op(Ar, Br)
            assert got == op(A, Br)
    z = 0.3 - 0.45j
    for L, Lr in ((G, Gr), (P, Pr)):
        assert L.bar() == Lr.bar() and _rings(L.bar()) == _rings(L)
        for lam in (GaussianRational(1), GaussianRational(0, 1),
                    GaussianRational(Fraction(3, 5), Fraction(-4, 5))):
            got, want = L.evaluate(z, lam.to_complex()), Lr.evaluate(z, lam.to_complex())
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        F, Fr = L.to_float(z), Lr.to_float(z)
        assert sorted(F.coeffs) == sorted(Fr.coeffs)
        for k in F.coeffs:
            assert np.array_equal(F.coeffs[k].view(np.uint64), Fr.coeffs[k].view(np.uint64))


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("example", [1, 2])
def test_stacked_float_loop_ops_are_bitwise_the_one_sample_ops(example, request):
    # Each sample of a stacked loop holds what the loop built at that sample
    # alone holds: F is the float frame, H the exact holomorphic frame.
    from willmore.iwasawa import assemble_frame, solve_iwasawa_float

    hf = request.getfixturevalue("hf%d" % example)
    zs = np.array([0.3 - 0.2j, -0.45 + 0.1j, 0.05j])
    lam = np.exp(0.37j)
    H = hf.H_loop()
    F = assemble_frame(hf, solve_iwasawa_float(hf, zs)).F
    Hs = H.to_float(zs)

    def ops(F, Hf):
        return {"matmul": F @ Hf, "transpose": F.transpose(), "bar": F.bar(),
                "to_float": Hf}

    stacked = ops(F, Hs)
    Fv, Hv, worst = F.evaluate(zs, lam), H.evaluate(zs, lam), F.max_abs()
    for k, z in enumerate(zs.tolist()):
        F1 = assemble_frame(hf, solve_iwasawa_float(hf, np.array([z]))).F
        for name, loop in ops(F1, H.to_float(np.array([z]))).items():
            assert sorted(stacked[name].coeffs) == sorted(loop.coeffs), name
            for power, coeff in loop.coeffs.items():
                assert _same_bits(stacked[name].coeffs[power][k], coeff[0]), (name, power)
        assert _same_bits(Fv[k], F1.evaluate(z, lam)[0])
        assert _same_bits(Hv[k], H.evaluate(z, lam))
        assert _same_bits(worst[k], F1.max_abs()[0])
