"""Exact scalar arithmetic for the synthesis pipeline.

Three layers, all on Python integers:

* GaussianRational: (a + b*i)/d stored as three ints with d > 0 and
  gcd(a, b, d) = 1, so each value has exactly one representation.  Closed
  under + - * /; every operation normalizes once with one integer gcd.
  Parts leave the triple as Fractions (re, im, content, abs_squared).
* BiPoly: polynomial in two formally independent variables z, zbar with
  GaussianRational coefficients, stored as a dict mapping exponent pairs
  (i, j) to nonzero coefficients.  Conjugation swaps the variables and
  conjugates the coefficients; zbar only becomes conj(z) at evaluation time.
  A product or an exact evaluation runs on Gaussian-integer numerators over
  a common denominator and normalizes once per output term, not once per
  operation; a product keeps the term order of the loop over coefficients.
* RationalFn: quotient of two BiPoly, kept unreduced apart from cheap
  monomial and content strips.  Equality is decided by cross-multiplication,
  never by computing a gcd normal form.  reduced() cancels the num/den gcd
  on demand, computed on BiPoly itself; its one caller is the exact lift
  extraction, which reduces numerators over det rho.  Where the denominator
  is known in advance (the exact witness, the exact frame, the exact
  isotropy check) the pipeline works on BiPoly numerators over it instead.

Numeric evaluation computes exactly (the sample point is converted to exact
rationals) and rounds to complex once at the end.  All three evaluate(z),
a GaussianRational to its own value, so an exact matrix may mix the rings.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

import numpy as np

from .errors import DenominatorVanishes

# A rational function is not evaluated where its denominator is smaller.
DENOMINATOR_FLOOR = 1e-12


def _cmul(x, y):
    """CPython's complex product on (re, im) pairs of floats or float arrays."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _cmul_np(x, y) -> np.ndarray:
    """x * y on complex scalars or arrays, rounded as CPython's complex product
    rounds; numpy's array product can differ from it in the last bit."""
    re, im = _cmul((x.real, x.imag), (y.real, y.imag))
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


class PyComplexArray:
    """Complex arrays whose arithmetic rounds as CPython's complex scalars
    do, element by element: a product is (ac - bd, ad + bc) (_cmul), a
    float or float array x takes part as x + 0j (its real and imag), and
    z**p for an int p >= 1 is binary powering from 1 + 0j.  Products of
    floats commute, so x * z is z * x."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # an ndarray operand defers to the reflected method

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __mul__(self, other):
        return PyComplexArray(*_cmul((self.real, self.imag), (other.real, other.imag)))

    __rmul__ = __mul__

    def __add__(self, other):
        return PyComplexArray(self.real + other.real, self.imag + other.imag)

    def __sub__(self, other):
        return PyComplexArray(self.real - other.real, self.imag - other.imag)

    def __neg__(self):
        return PyComplexArray(-self.real, -self.imag)

    def __pow__(self, p: int):
        out, x = PyComplexArray(1.0, 0.0), self
        while p:
            if p & 1:
                out = out * x
            p >>= 1
            if p:
                x = x * x
        return out

    def conjugate(self) -> "PyComplexArray":
        return PyComplexArray(self.real, -self.imag)


def as_samples(z) -> np.ndarray:
    """z as a 1-D complex array of sample points; anything else raises ValueError."""
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1:
        raise ValueError("sample points must be a 1-D array")
    return z


def _to_float(n: int, d: int) -> float:
    """n / d (d > 0), correctly rounded, or a signed infinity past the float range."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _ratio(x):
    """(numerator, denominator > 0) in lowest terms of an exact real input.

    A float converts exactly (its binary expansion); a str parses as "p/q".
    """
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if isinstance(x, float):
        return x.as_integer_ratio()
    if isinstance(x, str):
        x = Fraction(x)
        return x.numerator, x.denominator
    raise TypeError("cannot coerce %r to a rational" % (x,))


_new = object.__new__


def _raw(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from a triple already in lowest terms with d > 0."""
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _gr(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for any d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    # _raw inlined: this runs once per arithmetic operation.
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


_HASH_MODULUS = 1 << sys.hash_info.width


class GaussianRational:
    """Exact complex number (a + b*i)/d over the integers, in lowest terms.

    The triple is canonical (d > 0, gcd(a, b, d) = 1), so == compares
    integers.  re and im are the real and imaginary parts as Fractions.
    Values are immutable: the triple's slots are private and set only when
    the value is made.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        # Over d = lcm(p, q) of two denominators in lowest terms no prime
        # divides all of a, b and d, so the triple is canonical.
        n1, p = _ratio(re)
        n2, q = _ratio(im)
        d = lcm(p, q)
        self._a, self._b, self._d = n1 * (d // p), n2 * (d // q), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @classmethod
    def from_complex(cls, z: complex) -> "GaussianRational":
        return cls(float(z.real), float(z.imag))

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return _raw(x.numerator, 0, x.denominator)
        if isinstance(x, complex):
            return cls.from_complex(x)
        if isinstance(x, float):
            return cls(x)
        raise TypeError("cannot coerce %r to GaussianRational" % (x,))

    @classmethod
    def _try(cls, x):
        # None for what coerce rejects, such as a BiPoly or RationalFn
        # operand, without building coerce's error message (its repr).
        if isinstance(x, (GaussianRational, int, Fraction, complex, float)):
            return cls.coerce(x)
        return None

    def __add__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._try(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _gr(self._a + other._a, self._b + other._b, d1)
        return _gr(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1,
                   d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._try(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _gr(self._a - other._a, self._b - other._b, d1)
        return _gr(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1,
                   d1 * d2)

    def __rsub__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._try(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _gr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._try(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a1 + b1 i)/d1 / ((a2 + b2 i)/d2) = (a1 + b1 i)(a2 - b2 i) d2 / (d1 n)
        d2 = other._d
        return _gr((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                   self._d * n)

    def __rtruediv__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def conjugate(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            other = GaussianRational._try(other)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # The hash of an equal int, Fraction, float or complex: CPython's
        # complex hash of the parts, wrapped to a signed machine word, with
        # -1 (its error value) made -2.
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % _HASH_MODULUS
        if h >= _HASH_MODULUS >> 1:
            h -= _HASH_MODULUS
        return -2 if h == -1 else h

    def abs_squared(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs_squared()))

    def to_complex(self) -> complex:
        return complex(_to_float(self._a, self._d), _to_float(self._b, self._d))

    def evaluate(self, z) -> complex:
        """The value at any z, as a constant BiPoly or RationalFn evaluates."""
        return self.to_complex()

    def content(self) -> Fraction:
        """gcd of the parts over Q: gcd(a, b)/d, already in lowest terms."""
        return Fraction(gcd(self._a, self._b), self._d)

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "%s*i" % im
        sign = "+" if im > 0 else "-"
        return "(%s%s%s*i)" % (re, sign, abs(im))


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF = GaussianRational(Fraction(1, 2))


def _cleared(coeffs):
    """(d, xs, ys): a sequence of GaussianRationals, in order, as
    Gaussian-integer numerators x + y*i over d, the lcm of their denominators."""
    d = lcm(*(c._d for c in coeffs))
    return d, [c._a * (d // c._d) for c in coeffs], [c._b * (d // c._d) for c in coeffs]


def _numerator_powers(x: "GaussianRational", n: int):
    """[(re, im) of (x._a + x._b*i)^k x._d^(n-k) for k = 0..n]: the powers of x
    up to n as numerators over x._d^n."""
    a, b, d = x._a, x._b, x._d
    out = [(d ** n, 0)]
    r, i = 1, 0
    for k in range(n - 1, -1, -1):
        r, i = r * a - i * b, r * b + i * a
        s = d ** k
        out.append((r * s, i * s))
    return out


class ExactPoint:
    """A float or exact point z made a GaussianRational once, with the
    _numerator_powers of z and of conj(z) up to degree: every polynomial of
    degree at most degree in z and in zbar is evaluated at z from these
    tables, over den (BiPoly._numerator), so several entries share them."""

    __slots__ = ("zp", "bp", "den")

    def __init__(self, z, degree: int):
        z = GaussianRational.coerce(z)
        self.zp = _numerator_powers(z, degree)
        # (a - b i)^k is the conjugate of (a + b i)^k.
        self.bp = [(r, -i) for r, i in self.zp]
        self.den = z._d ** (2 * degree)


_zbar_exponent = itemgetter(1)


def _bipoly(terms) -> "BiPoly":
    """A BiPoly owning terms, a dict of nonzero GaussianRational coefficients."""
    p = _new(BiPoly)
    object.__setattr__(p, "terms", terms)
    return p


class BiPoly:
    """Polynomial in (z, zbar) over GaussianRational, as a sparse term dict."""

    __slots__ = ("terms", "_float_terms")

    def __init__(self, terms=None):
        # terms: {(i, j): GaussianRational}, zeros dropped, keys owned by self.
        clean = {}
        if terms:
            for key, c in terms.items():
                c = GaussianRational.coerce(c)
                if not c.is_zero():
                    clean[key] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls({(0, 0): GaussianRational.coerce(c)})

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def var_z(cls) -> "BiPoly":
        return cls({(1, 0): GR_ONE})

    @classmethod
    def var_zbar(cls) -> "BiPoly":
        return cls({(0, 1): GR_ONE})

    def coerce_other(self, other):
        if isinstance(other, BiPoly):
            return other
        c = GaussianRational._try(other)
        return None if c is None else BiPoly.const(c)

    def __add__(self, other):
        other = self.coerce_other(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return BiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self.coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self.coerce_other(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            c0 = GaussianRational.coerce(other)
            if c0.is_zero():
                return BiPoly.zero()
            return BiPoly({k: c * c0 for k, c in self.terms.items()})
        other = self.coerce_other(other)
        if other is None:
            return NotImplemented
        if len(self.terms) == 1 or len(other.terms) == 1:
            # A monomial shifts the other operand's keys, in their order, and
            # nothing sums: one GaussianRational product per term.
            mono, poly = (self, other) if len(self.terms) == 1 else (other, self)
            ((a0, b0), c0), = mono.terms.items()
            return _bipoly({(a + a0, b + b0): c * c0 for (a, b), c in poly.terms.items()})
        # The term loop runs on Gaussian-integer numerators over a common
        # denominator.  A sum is zero exactly when the rational sum is, so
        # keys are inserted, and a cancelled key deleted, as a loop over
        # GaussianRational coefficients would: the dict order, which the
        # _content fold follows, is that loop's.  The real and imaginary sums
        # sit in two dicts that see the same inserts and deletes, so they
        # share one key order and no pair object is built per term.
        d1, xs1, ys1 = _cleared(self.terms.values())
        d2, xs2, ys2 = _cleared(other.terms.values())
        keys2 = list(other.terms)
        out_re, out_im = {}, {}
        for (a1, b1), x1, y1 in zip(self.terms, xs1, ys1):
            for (a2, b2), x2, y2 in zip(keys2, xs2, ys2):
                key = (a1 + a2, b1 + b2)
                re = x1 * x2 - y1 * y2
                im = x1 * y2 + y1 * x2
                s = out_re.get(key)
                if s is not None:
                    re += s
                    im += out_im[key]
                    if not (re or im):
                        del out_re[key], out_im[key]
                        continue
                out_re[key] = re
                out_im[key] = im
        d = d1 * d2
        return _bipoly({k: _gr(re, im, d)
                        for (k, re), im in zip(out_re.items(), out_im.values())})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a BiPoly")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def conjugate(self) -> "BiPoly":
        """Swap z <-> zbar and conjugate coefficients."""
        return BiPoly({(b, a): c.conjugate() for (a, b), c in self.terms.items()})

    def d_dz(self) -> "BiPoly":
        return BiPoly(
            {(a - 1, b): c * a for (a, b), c in self.terms.items() if a > 0}
        )

    def d_dzbar(self) -> "BiPoly":
        return BiPoly(
            {(a, b - 1): c * b for (a, b), c in self.terms.items() if b > 0}
        )

    def integrate_z(self) -> "BiPoly":
        """Formal antiderivative in z with zero constant term."""
        return BiPoly(
            {(a + 1, b): c / (a + 1) for (a, b), c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self.coerce_other(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A constant equals its coefficient, so it hashes as that.
        if not self.terms:
            return 0
        if len(self.terms) == 1 and (0, 0) in self.terms:
            return hash(self.terms[(0, 0)])
        return hash(frozenset(self.terms.items()))

    def degrees(self):
        """(max z-exponent, max zbar-exponent), (0, 0) for the zero poly."""
        if not self.terms:
            return 0, 0
        return max(self.terms)[0], max(self.terms, key=_zbar_exponent)[1]

    def min_degrees(self):
        if not self.terms:
            return 0, 0
        return min(self.terms)[0], min(self.terms, key=_zbar_exponent)[1]

    def shift(self, dz: int, db: int) -> "BiPoly":
        return BiPoly({(a + dz, b + db): c for (a, b), c in self.terms.items()})

    def _content(self):
        """(n, d): the fold of gcd(a, b) and lcm(d) over the coefficients in
        term order, stopped at the first running value of exactly 1.

        The stop makes this a content only up to that point (1 + 4/9*z^3*w^3
        stops at 1, not 1/9); RationalFn's content strip, and so the text of
        every exact intermediate, follows it.
        """
        n, m = 0, 1
        for c in self.terms.values():
            n = gcd(n, c._a, c._b)
            m = lcm(m, c._d)
            if n == 1 and m == 1:
                break
        return n, m

    def content(self) -> Fraction:
        return Fraction(*self._content())

    def scale(self, f) -> "BiPoly":
        """Every coefficient times the rational f (an int or a Fraction)."""
        return self._scale(f.numerator, f.denominator)

    def _scale(self, p: int, q: int) -> "BiPoly":
        # Every coefficient times p/q, with q > 0.
        if p == q:
            return self
        return BiPoly({k: _gr(c._a * p, c._b * p, c._d * q)
                       for k, c in self.terms.items()})

    def evaluate_at(self, z, zbar) -> GaussianRational:
        """Exact value with z and zbar bound independently."""
        z = GaussianRational.coerce(z)
        zbar = GaussianRational.coerce(zbar)
        A, B = self.degrees()
        return _gr(*self._numerator(_numerator_powers(z, A), _numerator_powers(zbar, B),
                                    z._d ** A * zbar._d ** B))

    def _numerator(self, zp, bp, den):
        """(re, im, d): the value at the point whose _numerator_powers of z
        and zbar are zp and bp, over den, as a Gaussian-integer numerator
        over d, not normalized.

        Over the common denominator of the coefficients times den each term
        is an integer product; the caller normalizes or rounds the sum once.
        """
        d, xs, ys = _cleared(self.terms.values())
        tr = ti = 0
        for (a, b), x, y in zip(self.terms, xs, ys):
            zr, zi = zp[a]
            br, bi = bp[b]
            pr, pi = x * zr - y * zi, x * zi + y * zr
            tr += pr * br - pi * bi
            ti += pr * bi + pi * br
        return tr, ti, d * den

    def evaluate_exact(self, z) -> GaussianRational:
        """Exact value at a physical point: zbar bound to conj(z)."""
        z = GaussianRational.coerce(z)
        return self.evaluate_at(z, z.conjugate())

    def evaluate(self, z) -> complex:
        """The value at z, zbar bound to conj(z), computed exactly and
        rounded once from its unnormalized numerator: each part is an
        integer ratio, and int / int rounds correctly, so the value is that
        of evaluate_exact rounded.  z is a number or an ExactPoint whose
        degree covers the polynomial's."""
        if not isinstance(z, ExactPoint):
            z = ExactPoint(z, max(self.degrees()))
        tr, ti, d = self._numerator(z.zp, z.bp, z.den)
        return complex(_to_float(tr, d), _to_float(ti, d))

    def evaluate_float(self, z) -> np.ndarray:
        """Floating evaluation over a 1-D array of z, one complex per sample.

        The coefficients are converted to floats once and cached.  Every
        product is formed as CPython forms a complex product,
        (ar br - ai bi, ar bi + ai br), from separate float operations, in
        term order with powers by repeated multiplication, so each sample
        equals a Python complex evaluation bit for bit (numpy's complex
        multiply rounds differently).  A z that is not a 1-D array raises
        ValueError.
        """
        try:
            terms = self._float_terms
        except AttributeError:
            # (a, b, re c, im c) per term in dict order; the slot stays unset
            # on the many polynomials that are never evaluated in floats.
            terms = tuple((a, b, _to_float(c._a, c._d), _to_float(c._b, c._d))
                          for (a, b), c in self.terms.items())
            object.__setattr__(self, "_float_terms", terms)
        z = as_samples(z)
        zr, zi = z.real, z.imag
        zp = [(1.0, 0.0)]
        bp = [(1.0, 0.0)]
        tr = ti = 0.0
        for a, b, cr, ci in terms:
            while len(zp) <= a:
                zp.append(_cmul(zp[-1], (zr, zi)))
            while len(bp) <= b:
                bp.append(_cmul(bp[-1], (zr, -zi)))
            xr, xi = _cmul(_cmul((cr, ci), zp[a]), bp[b])
            tr = tr + xr
            ti = ti + xi
        out = np.empty(z.shape, dtype=complex)
        out.real = tr
        out.imag = ti
        return out

    def leading_coefficient(self) -> GaussianRational:
        if not self.terms:
            return GR_ZERO
        key = max(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1]))
        return self.terms[key]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0], k[1])):
            c = self.terms[(a, b)]
            mono = []
            if a:
                mono.append("z" if a == 1 else "z^%d" % a)
            if b:
                mono.append("w" if b == 1 else "w^%d" % b)
            bits.append("%r%s" % (c, ("*" + "*".join(mono)) if mono else ""))
        return " + ".join(bits)


BP_ZERO = BiPoly.zero()
BP_ONE = BiPoly.const(1)


# Polynomial gcd for RationalFn.reduced().  A BiPoly is read as a polynomial
# in z whose coefficients are polynomials in zbar over the field Q(i).  The
# gcd runs the primitive remainder sequence in z (Brown 1971), which keeps
# coefficient growth tame at the degrees arising here (tens, not thousands),
# and splits off the zbar contents by Euclid's algorithm on z-free
# polynomials.  Both rest on one long division on lex-leading terms.

def _divmod_lex(p: BiPoly, g: BiPoly):
    """(q, r) with p = q g + r, by long division on lex-leading terms that
    stops at the first leading term of r that the leading term of g does not
    divide.  For z-free p and g, r is the remainder in zbar.  When g divides
    p, r is zero and q is the exact quotient, its terms in descending lex
    order."""
    a0, b0 = lead = max(g.terms)
    lg = g.terms[lead]
    rest = [(a, b, c) for (a, b), c in g.terms.items() if (a, b) != lead]
    r = dict(p.terms)
    q = {}
    while r:
        a, b = key = max(r)
        if a < a0 or b < b0:
            break
        c = r.pop(key) / lg
        a, b = a - a0, b - b0
        q[(a, b)] = c
        for ga, gb, gc in rest:
            k = (a + ga, b + gb)
            v = r.get(k)
            v = -(c * gc) if v is None else v - c * gc
            if v:
                r[k] = v
            else:
                del r[k]
    return _bipoly(q), _bipoly(r)


def _div_exact(p: BiPoly, g: BiPoly) -> BiPoly:
    """Quotient p / g, erroring out unless the division is exact."""
    q, r = _divmod_lex(p, g)
    if r:
        raise ArithmeticError("inexact division in gcd reduction")
    return q


def _monic(p: BiPoly) -> BiPoly:
    """p over the coefficient of its lex-leading term; zero stays zero."""
    lead = p.terms[max(p.terms)] if p else GR_ONE
    return p if lead == GR_ONE else p * (GR_ONE / lead)


def _zbar_gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """Monic gcd of two z-free polynomials, not both zero; each remainder is
    made monic, which keeps its coefficients from growing."""
    while b:
        a, b = b, _monic(_divmod_lex(a, b)[1])
    return _monic(a)


def _z_coefficient(p: BiPoly, i: int) -> BiPoly:
    """The coefficient of z^i in p, a z-free polynomial."""
    return _bipoly({(0, b): c for (a, b), c in p.terms.items() if a == i})


def _primitive_split(p: BiPoly):
    """(content, primitive part) of a nonzero p read as a polynomial in z; a
    content of degree zero is returned as 1, with p as it is."""
    cont = BP_ZERO
    for i in {a for a, _ in p.terms}:
        cont = _zbar_gcd(cont, _z_coefficient(p, i))
        if cont.degrees() == (0, 0):
            return BP_ONE, p
    return cont, _div_exact(p, cont)


def _prem(a: BiPoly, b: BiPoly) -> BiPoly:
    """Pseudo-remainder of a by b in z."""
    db = b.degrees()[0]
    lb = _z_coefficient(b, db)
    while a:
        da = a.degrees()[0]
        if da < db:
            break
        a = a * lb - _z_coefficient(a, da).shift(da - db, 0) * b
    return a


def _bipoly_gcd(p: BiPoly, q: BiPoly) -> BiPoly:
    """gcd of two nonzero polynomials, monic in lex order."""
    cp, pa = _primitive_split(p)
    cq, pb = _primitive_split(q)
    if pa.degrees()[0] < pb.degrees()[0]:
        pa, pb = pb, pa
    while pb and pb.degrees()[0] > 0:
        r = _prem(pa, pb)
        pa, pb = pb, (_primitive_split(r)[1] if r else r)
    g = pa if not pb else BP_ONE
    return _monic(g * _zbar_gcd(cp, cq))


class RationalFn:
    """Quotient of two BiPoly.  Unreduced; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly = None):
        if not isinstance(num, BiPoly):
            num = BiPoly.const(num)
        if den is None:
            den = BP_ONE
        elif not isinstance(den, BiPoly):
            den = BiPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("RationalFn with zero denominator")
        if num.is_zero():
            num, den = BP_ZERO, BP_ONE
        else:
            # Cheap strips keep intermediate growth tolerable without a gcd.
            nz, nb = num.min_degrees()
            dz, db = den.min_degrees()
            sz, sb = min(nz, dz), min(nb, db)
            if sz or sb:
                num = num.shift(-sz, -sb)
                den = den.shift(-sz, -sb)
            # Divide both by the gcd n/m of their contents (both nonzero).
            n1, m1 = num._content()
            n2, m2 = den._content()
            n, m = gcd(n1, n2), lcm(m1, m2)
            if n != m:
                num = num._scale(m, n)
                den = den._scale(m, n)
            lead = den.leading_coefficient()
            if lead._b == 0 and lead._a < 0:
                num = -num
                den = -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @classmethod
    def const(cls, c) -> "RationalFn":
        return cls(BiPoly.const(c))

    @classmethod
    def coerce(cls, x) -> "RationalFn":
        if isinstance(x, RationalFn):
            return x
        if isinstance(x, BiPoly):
            return cls(x)
        return cls(BiPoly.const(GaussianRational.coerce(x)))

    @classmethod
    def _try(cls, x):
        try:
            return cls.coerce(x)
        except TypeError:
            return None

    def __add__(self, other):
        other = RationalFn._try(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        other = RationalFn._try(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RationalFn._try(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            # A constant scales the numerator; no RationalFn is built for it.
            if self.num.is_zero() or other.is_zero():
                return RF_ZERO
            return RationalFn(self.num * other, self.den)
        other = RationalFn._try(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return RF_ZERO
        # Structural cancellation avoids needless degree growth.
        if self.num == other.den:
            return RationalFn(other.num, self.den)
        if other.num == self.den:
            return RationalFn(self.num, other.den)
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFn._try(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RationalFn")
        return self * RationalFn(other.den, other.num)

    def __rtruediv__(self, other):
        other = RationalFn._try(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "RationalFn":
        return RationalFn(self.num.conjugate(), self.den.conjugate())

    def d_dz(self) -> "RationalFn":
        if self.den == BP_ONE:
            return RationalFn(self.num.d_dz())
        return RationalFn(
            self.num.d_dz() * self.den - self.num * self.den.d_dz(),
            self.den * self.den,
        )

    def d_dzbar(self) -> "RationalFn":
        if self.den == BP_ONE:
            return RationalFn(self.num.d_dzbar())
        return RationalFn(
            self.num.d_dzbar() * self.den - self.num * self.den.d_dzbar(),
            self.den * self.den,
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = RationalFn.coerce(other)
        except TypeError:
            return NotImplemented
        if self.num is other.num and self.den is other.den:
            return True
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RationalFn is unhashable (equality is extensional)")

    def reduced(self) -> "RationalFn":
        """Cancel the polynomial gcd of numerator and denominator.

        Construction keeps quotients unreduced because most intermediates are
        used once.  The exact lift extraction calls this once per component,
        where the factorization's denominators (degrees in the tens) collapse
        to the true one that the metrics and branch limits are built on.
        """
        if self.den == BP_ONE or self.num.is_zero():
            return self
        g = _bipoly_gcd(self.num, self.den)
        if g.degrees() == (0, 0):
            return self
        return RationalFn(_div_exact(self.num, g), _div_exact(self.den, g))

    def evaluate_at(self, z, zbar) -> GaussianRational:
        dv = self.den.evaluate_at(z, zbar)
        if dv.is_zero() or abs(dv) < DENOMINATOR_FLOOR:
            raise DenominatorVanishes(
                "denominator %.3e below floor %.1e" % (abs(dv), DENOMINATOR_FLOOR)
            )
        return self.num.evaluate_at(z, zbar) / dv

    def evaluate_exact(self, z) -> GaussianRational:
        z = GaussianRational.coerce(z)
        return self.evaluate_at(z, z.conjugate())

    def evaluate(self, z) -> complex:
        """Exact value at z rounded once, as BiPoly.evaluate rounds: the
        quotient of the unnormalized numerators of num and den, with the
        denominator floor of evaluate_at.  z is a number or an ExactPoint
        whose degree covers those of num and den."""
        if self.den == BP_ONE:
            return self.num.evaluate(z)
        if not isinstance(z, ExactPoint):
            z = ExactPoint(z, max(*self.num.degrees(), *self.den.degrees()))
        dr, di, dd = self.den._numerator(z.zp, z.bp, z.den)
        n2 = dr * dr + di * di
        # abs(dv) of evaluate_at: a Fraction's float is its integer ratio.
        size = math.sqrt(n2 / (dd * dd))
        if n2 == 0 or size < DENOMINATOR_FLOOR:
            raise DenominatorVanishes(
                "denominator %.3e below floor %.1e" % (size, DENOMINATOR_FLOOR))
        nr, ni, nd = self.num._numerator(z.zp, z.bp, z.den)
        # (nr + ni i) / nd over (dr + di i) / dd
        q = nd * n2
        return complex(_to_float((nr * dr + ni * di) * dd, q),
                       _to_float((ni * dr - nr * di) * dd, q))

    def __repr__(self):
        if self.den == BP_ONE:
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den)


RF_ZERO = RationalFn(BP_ZERO)
RF_ONE = RationalFn(BP_ONE)
RF_I = RationalFn(BiPoly.const(GR_I))
