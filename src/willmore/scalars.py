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
* RationalFn: quotient of two BiPoly, kept unreduced apart from cheap
  monomial and content strips.  Equality is decided by cross-multiplication,
  never by computing a gcd normal form.  reduced() cancels the num/den gcd
  on demand; its one caller is the exact lift extraction.  Where the
  denominator is known in advance (the exact witness, the exact isotropy
  check) the pipeline works on BiPoly numerators over it instead.

Numeric evaluation computes exactly (the sample point is converted to exact
rationals) and rounds to complex once at the end.  All three evaluate(z),
a GaussianRational to its own value, so an exact matrix may mix the rings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm

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
        return hash((self.re, self.im))

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

    @classmethod
    def from_z_coeffs(cls, coeffs) -> "BiPoly":
        """Polynomial in z alone from an ascending coefficient list."""
        return cls({(k, 0): GaussianRational.coerce(c) for k, c in enumerate(coeffs)})

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
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                p = c1 * c2
                s = out.get(key)
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return BiPoly(out)

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
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = BiPoly.const(other)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degrees(self):
        """(max z-exponent, max zbar-exponent), (0, 0) for the zero poly."""
        dz = max((a for a, _ in self.terms), default=0)
        db = max((b for _, b in self.terms), default=0)
        return dz, db

    def min_degrees(self):
        dz = min((a for a, _ in self.terms), default=0)
        db = min((b for _, b in self.terms), default=0)
        return dz, db

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
        zp = {0: GR_ONE}
        bp = {0: GR_ONE}

        def power(cache, base, n):
            v = cache.get(n)
            if v is None:
                v = power(cache, base, n - 1) * base
                cache[n] = v
            return v

        total = GR_ZERO
        for (a, b), c in self.terms.items():
            total = total + c * power(zp, z, a) * power(bp, zbar, b)
        return total

    def evaluate_exact(self, z) -> GaussianRational:
        """Exact value at a physical point: zbar bound to conj(z)."""
        z = GaussianRational.coerce(z)
        return self.evaluate_at(z, z.conjugate())

    def evaluate(self, z: complex) -> complex:
        """Bind zbar = conj(z), compute exactly, round once."""
        return self.evaluate_exact(GaussianRational.coerce(z)).to_complex()

    def evaluate_float(self, z):
        """Floating evaluation at a scalar z (a complex) or a 1-D array of z.

        The coefficients are converted to floats once and cached.  Every
        product is formed as CPython forms a complex product,
        (ar br - ai bi, ar bi + ai br), from separate float operations, in
        term order with powers by repeated multiplication, so an array
        evaluation equals the scalar one bit for bit at every sample (numpy's
        complex multiply rounds differently).
        """
        try:
            terms = self._float_terms
        except AttributeError:
            # (a, b, re c, im c) per term in dict order; the slot stays unset
            # on the many polynomials that are never evaluated in floats.
            terms = tuple((a, b, _to_float(c._a, c._d), _to_float(c._b, c._d))
                          for (a, b), c in self.terms.items())
            object.__setattr__(self, "_float_terms", terms)
        scalar = np.ndim(z) == 0
        z = complex(z) if scalar else np.asarray(z, dtype=complex)
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
        if scalar:
            return complex(tr, ti)
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


# Polynomial gcd support for RationalFn.reduced().  A BiPoly is viewed as a
# univariate polynomial in z whose coefficients are univariate polynomials in
# zbar over the field Q(i); both layers are sparse dicts.  The bivariate gcd
# uses the primitive polynomial remainder sequence, which keeps coefficient
# growth tame at the degrees arising here (tens, not thousands).

def _u_deg(u):
    return max(u) if u else -1


def _u_monic(u):
    if not u:
        return u
    lead = u[_u_deg(u)]
    if lead == GR_ONE:
        return u
    inv = GR_ONE / lead
    return {k: c * inv for k, c in u.items()}


def _u_mul(a, b):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            k = i + j
            v = out.get(k)
            v = ca * cb if v is None else v + ca * cb
            if v.is_zero():
                out.pop(k, None)
            else:
                out[k] = v
    return out


def _u_divmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    db = _u_deg(b)
    lb = b[db]
    q = {}
    r = dict(a)
    while r and _u_deg(r) >= db:
        dr = _u_deg(r)
        c = r[dr] / lb
        q[dr - db] = c
        for j, cb in b.items():
            k = dr - db + j
            v = r.get(k, GR_ZERO) - c * cb
            if v.is_zero():
                r.pop(k, None)
            else:
                r[k] = v
    return q, r


def _u_gcd(a, b):
    a, b = dict(a), dict(b)
    while b:
        a, b = b, _u_divmod(a, b)[1]
    return _u_monic(a)


def _u_div_exact(a, g):
    q, r = _u_divmod(a, g)
    if r:
        raise ArithmeticError("inexact univariate division in gcd reduction")
    return q


def _t_from_bipoly(p):
    tower = {}
    for (i, j), c in p.terms.items():
        tower.setdefault(i, {})[j] = c
    return tower


def _t_to_bipoly(t):
    return BiPoly({(i, j): c for i, u in t.items() for j, c in u.items()})


def _t_content_pp(t):
    """Split off the gcd of the zbar-coefficient polynomials."""
    cont = {}
    for u in t.values():
        cont = _u_gcd(cont, u)
        if _u_deg(cont) == 0:
            break
    if _u_deg(cont) <= 0:
        return cont, t
    return cont, {i: _u_div_exact(u, cont) for i, u in t.items()}


def _t_prem(a, b):
    """Pseudo-remainder of a by b in the z variable."""
    db = max(b)
    lb = b[db]
    r = a
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        out = {}
        for i, u in r.items():
            out[i] = _u_mul(u, lb)
        for i, u in b.items():
            k = dr - db + i
            prod = _u_mul(u, lr)
            cur = out.get(k, {})
            merged = dict(cur)
            for j, c in prod.items():
                v = merged.get(j, GR_ZERO) - c
                if v.is_zero():
                    merged.pop(j, None)
                else:
                    merged[j] = v
            if merged:
                out[k] = merged
            else:
                out.pop(k, None)
        r = out
    return r


def _t_gcd(a, b):
    ca, pa = _t_content_pp(a)
    cb, pb = _t_content_pp(b)
    cont = _u_gcd(ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while True:
        if not pb:
            g = pa
            break
        if max(pb) == 0:
            g = {0: {0: GR_ONE}}
            break
        r = _t_prem(pa, pb)
        if r:
            r = _t_content_pp(r)[1]
        pa, pb = pb, r
    if _u_deg(cont) > 0:
        g = {i: _u_mul(u, cont) for i, u in g.items()}
    lead = g[max(g)]
    inv = GR_ONE / lead[_u_deg(lead)]
    if inv != GR_ONE:
        g = {i: {j: c * inv for j, c in u.items()} for i, u in g.items()}
    return g


def _bipoly_gcd(p: BiPoly, q: BiPoly) -> BiPoly:
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    return _t_to_bipoly(_t_gcd(_t_from_bipoly(p), _t_from_bipoly(q)))


def _bipoly_div_exact(p: BiPoly, g: BiPoly) -> BiPoly:
    """Quotient p / g, erroring out unless the division is exact."""
    t = _t_from_bipoly(p)
    d = _t_from_bipoly(g)
    dg = max(d)
    lg = d[dg]
    q = {}
    while t:
        dt = max(t)
        if dt < dg:
            raise ArithmeticError("inexact bivariate division in gcd reduction")
        qc = _u_div_exact(t[dt], lg)
        q[dt - dg] = qc
        for i, u in d.items():
            k = dt - dg + i
            prod = _u_mul(u, qc)
            cur = dict(t.get(k, {}))
            for j, c in prod.items():
                v = cur.get(j, GR_ZERO) - c
                if v.is_zero():
                    cur.pop(j, None)
                else:
                    cur[j] = v
            if cur:
                t[k] = cur
            else:
                t.pop(k, None)
    return _t_to_bipoly({i: u for i, u in q.items() if u})


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
        return RationalFn(
            _bipoly_div_exact(self.num, g), _bipoly_div_exact(self.den, g)
        )

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

    def evaluate(self, z: complex) -> complex:
        return self.evaluate_exact(GaussianRational.coerce(z)).to_complex()

    def __repr__(self):
        if self.den == BP_ONE:
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den)


RF_ZERO = RationalFn(BP_ZERO)
RF_ONE = RationalFn(BP_ONE)
RF_I = RationalFn(BiPoly.const(GR_I))


def rf_z() -> RationalFn:
    return RationalFn(BiPoly.var_z())


def rf_zbar() -> RationalFn:
    return RationalFn(BiPoly.var_zbar())
