"""Exact arithmetic kernel: Gaussian rationals, bivariate polynomials,
rational functions, and the gcd reduction behind RationalFn.reduced()."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from willmore.scalars import (
    BP_ONE,
    BP_ZERO,
    BiPoly,
    GaussianRational,
    RationalFn,
)

from conftest import quotient_rule_metric

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

gaussians = st.builds(GaussianRational, fractions, fractions)

nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero())


@st.composite
def bipolys(draw, max_terms=5, max_deg=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        dz = draw(st.integers(0, max_deg))
        db = draw(st.integers(0, max_deg))
        terms[(dz, db)] = draw(gaussians)
    return BiPoly(terms)


# -- Gaussian rationals ------------------------------------------------------


@given(gaussians, gaussians, gaussians)
@settings(deadline=None)
def test_gr_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(gaussians, nonzero_gaussians)
@settings(deadline=None)
def test_gr_field_inverse(a, b):
    assert (a / b) * b == a


@given(gaussians, gaussians)
@settings(deadline=None)
def test_gr_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(gaussians)
@settings(deadline=None)
def test_gr_abs_squared_matches_conjugate_product(a):
    n = a * a.conjugate()
    assert n.im == 0
    assert n.re == a.abs_squared()


def test_gr_coercion_and_literals():
    assert GaussianRational.coerce(3) == GaussianRational(3)
    assert GaussianRational.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    assert GaussianRational.coerce(1j) == GaussianRational(0, 1)
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(gaussians)
@settings(deadline=None)
def test_gr_complex_round_trip(a):
    z = a.to_complex()
    assert abs(z - complex(float(a.re), float(a.im))) == 0


# -- the integer kernel against a Fraction-pair reference ---------------------
#
# Each GaussianRational is a canonical triple (a + b*i)/d.  The reference is
# plain (re, im) Fraction-pair arithmetic on the drawn parts.


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _ref_gcd(a, b):
    # gcd on Q: gcd of numerators over lcm of denominators, always >= 0.
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(math.gcd(a.numerator, b.numerator), den)


def _ref_repr(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return "%s*i" % im
    return "(%s%s%s*i)" % (re, "+" if im > 0 else "-", abs(im))


def _assert_is(x, want):
    """x is the canonical triple of the Fraction pair want."""
    assert x._d > 0 and math.gcd(x._a, x._b, x._d) == 1
    assert (Fraction(x._a, x._d), Fraction(x._b, x._d)) == want
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == want


wide_fractions = st.fractions(max_denominator=10**6) | st.integers(-10**20, 10**20) | fractions
fraction_pairs = st.tuples(wide_fractions.map(Fraction), wide_fractions.map(Fraction))
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)


@given(fraction_pairs, fraction_pairs)
@settings(deadline=None, max_examples=300)
def test_gr_kernel_matches_fraction_pair_reference(rx, ry):
    x, y = GaussianRational(*rx), GaussianRational(*ry)
    _assert_is(x, rx)
    _assert_is(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
    _assert_is(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
    _assert_is(x * y, _ref_mul(rx, ry))
    _assert_is(-x, (-rx[0], -rx[1]))
    _assert_is(x.conjugate(), (rx[0], -rx[1]))
    if ry != (0, 0):
        _assert_is(x / y, _ref_div(rx, ry))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (rx == ry)
    if rx[1] == 0:
        assert hash(x) == hash(rx[0])
    if float(rx[0]) == rx[0] and float(rx[1]) == rx[1]:
        assert hash(x) == hash(complex(float(rx[0]), float(rx[1])))
    assert x.content() == _ref_gcd(*rx)
    assert type(x.content()) is Fraction
    assert x.abs_squared() == rx[0] ** 2 + rx[1] ** 2
    assert repr(x) == _ref_repr(rx)
    got, want = x.to_complex(), complex(float(rx[0]), float(rx[1]))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert x.is_zero() == (rx == (0, 0))


@given(wide_fractions, st.integers(-3, 3))
@settings(deadline=None)
def test_gr_kernel_mixed_operands(q, k):
    x = GaussianRational(q, k)
    rq = Fraction(q)
    _assert_is(x + q, (rq + rq, Fraction(k)))
    _assert_is(k - x, (k - rq, Fraction(-k)))
    _assert_is(x * k, (rq * k, Fraction(k * k)))
    _assert_is(GaussianRational.coerce(q), (rq, Fraction(0)))
    if float(rq) == rq:
        assert x == complex(float(rq), k)


def _old_bipoly_content(p):
    """Reference: the content fold over Fraction pairs, early stop included."""
    c = Fraction(0)
    for coeff in p.terms.values():
        c = _ref_gcd(c, _ref_gcd(coeff.re, coeff.im))
        if c == 1:
            break
    return c


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), wide_gaussians),
                max_size=6))
@settings(deadline=None)
def test_bipoly_content_is_the_early_stopping_fold(entries):
    p = BiPoly({(a, b): c for a, b, c in entries})
    assert p.content() == _old_bipoly_content(p)


def test_bipoly_content_stops_at_one():
    # The fold meets 1 at the constant term and stops there: the value is 1,
    # not the true content 1/9, and rho's num/den text keeps this form.
    p = BiPoly({(0, 0): 1, (3, 3): Fraction(4, 9)})
    assert p.content() == 1
    assert repr(RationalFn(p)) == "1 + 4/9*z^3*w^3"
    assert BiPoly({(3, 3): Fraction(4, 9), (0, 0): 1}).content() == Fraction(1, 9)


# -- bivariate polynomials ---------------------------------------------------


@given(bipolys(), bipolys(), bipolys())
@settings(deadline=None)
def test_bipoly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(bipolys(), bipolys())
@settings(deadline=None)
def test_bipoly_evaluation_is_a_homomorphism(p, q):
    z = GaussianRational(Fraction(1, 3), Fraction(-1, 2))
    w = GaussianRational(Fraction(2, 5), Fraction(1, 7))
    assert (p * q).evaluate_at(z, w) == p.evaluate_at(z, w) * q.evaluate_at(z, w)
    assert (p + q).evaluate_at(z, w) == p.evaluate_at(z, w) + q.evaluate_at(z, w)


@given(bipolys(), bipolys())
@settings(deadline=None)
def test_bipoly_derivative_product_rule(p, q):
    assert (p * q).d_dz() == p.d_dz() * q + p * q.d_dz()
    assert (p * q).d_dzbar() == p.d_dzbar() * q + p * q.d_dzbar()


@given(bipolys())
@settings(deadline=None)
def test_bipoly_mixed_partials_commute(p):
    assert p.d_dz().d_dzbar() == p.d_dzbar().d_dz()


@given(bipolys())
@settings(deadline=None)
def test_bipoly_conjugation_swaps_variables(p):
    # conj(sum c z^a zbar^b) = sum conj(c) z^b zbar^a
    assert p.conjugate().conjugate() == p
    assert p.conjugate().d_dz() == p.d_dzbar().conjugate()


@given(bipolys())
@settings(deadline=None)
def test_bipoly_integrate_then_differentiate(p):
    assert p.integrate_z().d_dz() == p


def test_bipoly_exact_evaluation_matches_float():
    z = BiPoly.var_z()
    zb = BiPoly.var_zbar()
    p = z * z * zb - zb * 3 + BiPoly.const(GaussianRational(0, Fraction(1, 2)))
    s = 0.25 + 0.5j
    exact = p.evaluate_exact(GaussianRational(Fraction(1, 4), Fraction(1, 2)))
    assert abs(exact.to_complex() - p.evaluate_float(np.array([s]))[0]) < 1e-15


def _evaluate_python_complex(p, z):
    """Reference float evaluation: term by term in Python complex arithmetic."""
    zb = z.conjugate()
    zp = {0: 1 + 0j}
    bp = {0: 1 + 0j}
    total = 0j
    for (a, b), c in p.terms.items():
        while a not in zp:
            k = max(zp)
            zp[k + 1] = zp[k] * z
        while b not in bp:
            k = max(bp)
            bp[k + 1] = bp[k] * zb
        total += c.to_complex() * zp[a] * bp[b]
    return total


sample_floats = st.floats(min_value=-8, max_value=8, allow_nan=False) | st.sampled_from(
    [0.0, -0.0])


@given(bipolys(max_terms=6, max_deg=4),
       st.lists(st.builds(complex, sample_floats, sample_floats), min_size=1, max_size=12))
@settings(deadline=None)
def test_bipoly_array_evaluation_is_bitwise_the_python_complex_loop(p, zs):
    got = p.evaluate_float(np.array(zs))
    want = np.array([_evaluate_python_complex(p, z) for z in zs], dtype=complex)
    assert got.dtype == complex and got.shape == (len(zs),)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# -- the integer kernels against term-by-term GaussianRational references -----


def _ref_product_terms(p, q):
    """The product's (key, coefficient) list as the term loop over
    GaussianRational coefficients builds it: a cancelled key is popped and
    goes to the end if it comes back."""
    out = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            key = (a1 + a2, b1 + b2)
            s = out.get(key)
            s = c1 * c2 if s is None else s + c1 * c2
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return list(out.items())


def _ref_evaluate_at(p, z, zbar):
    total = GaussianRational(0)
    for (a, b), c in p.terms.items():
        for _ in range(a):
            c = c * z
        for _ in range(b):
            c = c * zbar
        total = total + c
    return total


# Mixed denominators up to 60, and numerators too large for a float.
mixed_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60) | st.integers(
    -10**20, 10**20)
mixed_gaussians = st.builds(GaussianRational, mixed_fractions, mixed_fractions)
nonzero_mixed_gaussians = mixed_gaussians.filter(lambda g: not g.is_zero())


@st.composite
def cancelling_pairs(draw):
    """(p, q, key): three-term p and q whose product sums p0 q0, p1 q1 and
    p2 q2 on key, in that order, with p1 q1 = -p0 q0, so that the key is
    popped and then inserted again, last."""
    p0, q0, p1, p2, q2 = (draw(nonzero_mixed_gaussians) for _ in range(5))
    s, t = draw(st.tuples(st.integers(0, 2), st.integers(0, 2))), (0, 0)
    axis = draw(st.integers(0, 1))

    def key(k, shift):
        return (k + shift[0], shift[1]) if axis == 0 else (shift[0], k + shift[1])

    p = BiPoly({key(0, s): p0, key(1, s): p1, key(2, s): p2})
    q = BiPoly({key(2, t): q0, key(1, t): -(p0 * q0) / p1, key(0, t): q2})
    return p, q, key(2, s)


@st.composite
def mixed_bipolys(draw, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)))] = draw(
            mixed_gaussians)
    return BiPoly(terms)


@given(st.tuples(mixed_bipolys(), mixed_bipolys(), st.none()) | cancelling_pairs())
@settings(deadline=None, max_examples=20)
def test_bipoly_product_matches_the_term_loop_in_value_and_order(case):
    p, q, popped = case
    got = list((p * q).terms.items())
    assert got == _ref_product_terms(p, q)
    assert all(type(c) is GaussianRational and not c.is_zero() for _, c in got)
    if popped is not None:
        assert got[-1][0] == popped


@given(mixed_bipolys(max_deg=4), mixed_gaussians, mixed_gaussians)
@settings(deadline=None, max_examples=20)
def test_bipoly_evaluate_at_matches_the_term_loop(p, z, zbar):
    got = p.evaluate_at(z, zbar)
    want = _ref_evaluate_at(p, z, zbar)
    assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert BP_ZERO.evaluate_at(z, zbar) == 0


@given(st.integers(-10**30, 10**30) | fractions | wide_fractions.map(Fraction),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@settings(deadline=None, max_examples=30)
def test_hash_agrees_with_equal_python_numbers(q, re, im):
    x = GaussianRational(q)
    assert x == q and hash(x) == hash(q)
    assert BiPoly.const(q) == q and hash(BiPoly.const(q)) == hash(q)
    c = complex(re, im)
    y = GaussianRational.from_complex(c)
    assert y == c and hash(y) == hash(c)


def test_equal_numbers_find_each_other_as_keys():
    assert {GaussianRational(1): "x"}[1] == "x"
    assert {BiPoly.const(1): "x"}[1] == "x"
    assert {BP_ZERO: "x"}[0] == "x"
    assert {GaussianRational(Fraction(1, 3)): "x"}[Fraction(1, 3)] == "x"
    assert {GaussianRational(0, 1): "x"}[1j] == "x"
    assert {1.5 - 2j: "x"}[GaussianRational(Fraction(3, 2), -2)] == "x"
    # hash(re) + sys.hash_info.imag * hash(im) is -1 here, which CPython
    # reserves and replaces by -2
    big = GaussianRational(-1000004, 1)
    assert hash(big) == hash(complex(-1000004, 1)) == -2


def test_bipoly_equals_equal_numbers_of_every_type():
    one = BiPoly.const(1)
    for x in (1, Fraction(1), 1.0, 1 + 0j, GaussianRational(1)):
        assert one == x and x == one
        assert {one: "x"}[x] == "x"
    assert one != 1.5 and one != 1j
    half_i = BiPoly.const(GaussianRational(Fraction(1, 2), Fraction(-1, 2)))
    assert half_i == 0.5 - 0.5j and {half_i: "x"}[0.5 - 0.5j] == "x"
    assert BP_ZERO == 0.0 and BP_ZERO == 0j
    assert BiPoly.var_z() != 1.0


def test_bipoly_degrees_and_leading_coefficient():
    z = BiPoly.var_z()
    zb = BiPoly.var_zbar()
    p = z ** 3 * zb + z * zb ** 2
    assert p.degrees() == (3, 2)
    assert p.min_degrees() == (1, 1)
    assert BP_ZERO.degrees() == (0, 0)
    assert BP_ONE.leading_coefficient() == GaussianRational(1)


def test_bipoly_divides_by_an_exact_scalar_only():
    # p / 9 is p times 1/9, term for term in p's order; a RationalFn divisor
    # still gives the RationalFn quotient, and a BiPoly one is refused
    p = BiPoly({(2, 1): GaussianRational(3, -2), (0, 0): 1, (1, 1): Fraction(1, 2)})
    ninth = p * GaussianRational(Fraction(1, 9))
    assert list((p / 9).terms.items()) == list(ninth.terms.items())
    assert list((p / GaussianRational(9)).terms.items()) == list(ninth.terms.items())
    assert p / GaussianRational(0, 2) == p * GaussianRational(0, Fraction(-1, 2))
    r = RationalFn(BiPoly.var_z() + 1, BiPoly.var_zbar())
    got = p / r
    assert isinstance(got, RationalFn)
    assert got == RationalFn(p * BiPoly.var_zbar(), BiPoly.var_z() + 1)
    with pytest.raises(TypeError):
        p / BiPoly.var_z()
    with pytest.raises(ZeroDivisionError):
        p / 0


# -- rational functions ------------------------------------------------------


@st.composite
def rationals(draw):
    num = draw(bipolys(max_terms=3, max_deg=2))
    den = draw(bipolys(max_terms=3, max_deg=2).filter(lambda p: not p.is_zero()))
    return RationalFn(num, den)


@given(rationals(), rationals(), rationals())
@settings(deadline=None, max_examples=40)
def test_rationalfn_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == RationalFn(BP_ZERO)
    if not b.is_zero():
        assert (a / b) * b == a


@given(rationals(), rationals())
@settings(deadline=None, max_examples=40)
def test_rationalfn_quotient_rule(a, b):
    # (a/b)' = (a'b - ab')/b^2 follows from the product rule; check the
    # product rule itself on the stored quotient form.
    assert (a * b).d_dz() == a.d_dz() * b + a * b.d_dz()
    assert (a * b).d_dzbar() == a.d_dzbar() * b + a * b.d_dzbar()


@given(rationals())
@settings(deadline=None, max_examples=60)
def test_rationalfn_reduced_preserves_value(a):
    r = a.reduced()
    assert r == a
    # reduction never raises the degrees
    an, ad = a.num.degrees(), a.den.degrees()
    rn, rd = r.num.degrees(), r.den.degrees()
    assert rn <= an and rd <= ad


@given(bipolys(max_terms=3, max_deg=2),
       bipolys(max_terms=3, max_deg=2).filter(lambda p: not p.is_zero()),
       bipolys(max_terms=2, max_deg=2).filter(lambda p: not p.is_zero()))
@settings(deadline=None, max_examples=60)
def test_rationalfn_reduced_cancels_common_factor(num, den, common):
    blown = RationalFn(num * common, den * common)
    r = blown.reduced()
    assert r == RationalFn(num, den)
    # the common factor is fully cancelled: degrees come back down to
    # at most the reduced form of num/den itself
    base = RationalFn(num, den).reduced()
    assert r.num.degrees() == base.num.degrees()
    assert r.den.degrees() == base.den.degrees()


def _sympy_poly(p, gens):
    import sympy

    QQ_I = sympy.QQ_I
    return sympy.Poly.from_dict(
        {k: QQ_I(sympy.QQ(c.re.numerator, c.re.denominator),
                 sympy.QQ(c.im.numerator, c.im.denominator))
         for k, c in p.terms.items()}, *gens, domain=QQ_I)


def _from_sympy(P):
    return BiPoly({k: GaussianRational(Fraction(int(c.x.numerator), int(c.x.denominator)),
                                       Fraction(int(c.y.numerator), int(c.y.denominator)))
                   for k, c in P.as_dict(native=True).items()})


# (a + b i)/d from three small ints: cheaper to draw than two Fractions
_small_gaussians = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 6)).filter(
    lambda t: t[0] or t[1]).map(lambda t: GaussianRational(Fraction(t[0], t[2]), Fraction(t[1], t[2])))


def _small_polys(max_terms, min_terms=0, z_free=False):
    keys = st.tuples(st.just(0) if z_free else st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(keys, _small_gaussians, min_size=min_terms,
                           max_size=max_terms).map(BiPoly)


# (p, q, c): small polynomials, c nonzero, p and c z-free in some cases
gcd_cases = st.tuples(st.booleans(), st.booleans()).flatmap(lambda free: st.tuples(
    _small_polys(3, z_free=free[0]), _small_polys(3),
    _small_polys(2, min_terms=1, z_free=free[1])))


@given(gcd_cases)
@settings(deadline=None, max_examples=40)
def test_gcd_and_exact_division_match_sympy(case):
    # the monic lex gcd of p c and q c, and the exact quotient (of zero when
    # p or q is), against sympy over Q(i) with z > zbar in lex order
    from willmore.scalars import _bipoly_gcd, _div_exact

    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("z w")
    p, q, c = case
    a, b = p * c, q * c
    if a and b:
        want = _sympy_poly(a, gens).gcd(_sympy_poly(b, gens))
        assert _bipoly_gcd(a, b) == _from_sympy(want)
    for num, den in ((a, c), (p, c), (a, p), (b, q)):
        if not den:
            continue
        divisible = _sympy_poly(num, gens).rem(_sympy_poly(den, gens)).is_zero
        if divisible:
            quot = _div_exact(num, den)
            assert quot * den == num
            assert list(quot.terms) == sorted(quot.terms, reverse=True)
        else:
            with pytest.raises(ArithmeticError):
                _div_exact(num, den)


@given(st.tuples(_small_polys(3, z_free=True), _small_polys(3, z_free=True),
                 _small_polys(2, min_terms=1, z_free=True)))
@settings(deadline=None, max_examples=40)
def test_zbar_gcd_is_monic_and_matches_sympy(case):
    # Euclid's algorithm in zbar, each remainder made monic: the gcd of p c
    # and q c is monic in lex order and equals sympy's over Q(i)
    from willmore.scalars import GR_ONE, _zbar_gcd

    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("z w")
    p, q, c = case
    a, b = p * c, q * c
    assume(a or b)
    got = _zbar_gcd(a, b)
    assert got.terms[max(got.terms)] == GR_ONE
    assert got == _from_sympy(_sympy_poly(a, gens).gcd(_sympy_poly(b, gens)))


def test_rationalfn_known_reduction():
    z = BiPoly.var_z()
    zb = BiPoly.var_zbar()
    num = (z + zb) * (z - zb)
    den = (z + zb) * (z * zb + 1)
    r = RationalFn(num, den).reduced()
    assert r == RationalFn(z - zb, z * zb + 1)
    assert r.num.degrees() == (1, 1)


def test_rationalfn_denominator_vanishing_guard():
    from willmore.errors import DenominatorVanishes

    f = RationalFn(BiPoly.var_z()) / RationalFn(BiPoly.var_zbar())
    with pytest.raises(DenominatorVanishes):
        f.evaluate(0.0)


def test_float_evaluation_rounds_the_exact_value_once(pair2):
    # evaluate rounds from unnormalized numerators and _bind shares one power
    # table per point; both must give the normalized exact value rounded, bit
    # for bit, signed zeros included, and the same errors
    from willmore.errors import DenominatorVanishes
    from willmore.frames import integrate_frame
    from willmore.loops import _bind
    from willmore.potentials import builtin_potential, to_nilpotent

    H = integrate_frame(to_nilpotent(builtin_potential(1))).H_loop()
    entries = [x for c in H.coeffs.values() for x in c.flat if x]
    assert any(isinstance(x, RationalFn) and x.den != BP_ONE for x in entries)
    # example 2's yhat factor as the quotient rule forms it, (54, 54)/(56, 56):
    # the large numerators of an unreduced quotient
    big = quotient_rule_metric(pair2, "Yhat")
    assert (big.num.degrees(), big.den.degrees()) == ((54, 54), (56, 56))
    entries.append(big)
    zs = [0j, complex(-0.0, 0.0), 0.3 - 0.7j, -1.25 + 0.5j, 1e-3j, 0.7, 1e-200 + 1e200j]
    bits = lambda v: np.array(v, dtype=complex, ndmin=1).view(np.uint64)
    for x in entries:
        for z in zs:
            try:
                want = x.evaluate_exact(z).to_complex()
            except (DenominatorVanishes, OverflowError) as e:
                with pytest.raises(type(e), match=str(e)):
                    x.evaluate(z)
                continue
            assert np.array_equal(bits(x.evaluate(z)), bits(want)), (x, z)
    for c in H.coeffs.values():
        got = _bind(c, np.array(zs[:6]))
        want = [[x.evaluate_exact(z).to_complex() if x else 0j for x in c.flat] for z in zs[:6]]
        assert np.array_equal(got.reshape(len(want), -1).view(np.uint64), bits(want))
    f = RationalFn(BiPoly.var_z()) / RationalFn(BiPoly.var_zbar() + GaussianRational(Fraction(1, 10**13)))
    with pytest.raises(DenominatorVanishes, match="1.000e-13 below floor"):
        f.evaluate(0.0)


def test_rationalfn_conjugate_evaluates_to_conjugate():
    rz = RationalFn(BiPoly.var_z())
    f = (rz * rz + 1) / (RationalFn(BiPoly.var_zbar()) + 2)
    z = 0.3 - 0.7j
    assert abs(f.conjugate().evaluate(z) - f.evaluate(z).conjugate()) < 1e-15


def test_rationalfn_evaluate_over_denominator_one_keeps_the_exact_bits():
    # 14 of example 1's 18 nonzero H entries have denominator 1; evaluate
    # reads only their numerators, to the bits of the exact quotient.
    from willmore.frames import integrate_frame
    from willmore.potentials import builtin_potential, to_nilpotent

    H = integrate_frame(to_nilpotent(builtin_potential(1))).H_loop()
    entries = [x for c in H.coeffs.values() for x in c.flat if x and x.den == BP_ONE]
    assert len(entries) == 14
    for x in entries:
        for z in (0j, complex(-0.0, 0.0), 0.3 - 0.7j, -1.25 + 0.5j, 1e-3j, 0.7):
            got, want = x.evaluate(z), x.evaluate_exact(z).to_complex()
            assert np.array([got]).tobytes() == np.array([want]).tobytes(), (x, z)
