"""Exact scalar arithmetic for the synthesis pipeline.

Three layers, all built on stdlib Fractions:

* GaussianRational: a + b*i with a, b rational.  Closed under + - * /.
* BiPoly: polynomial in two formally independent variables z, zbar with
  GaussianRational coefficients, stored as a dict mapping exponent pairs
  (i, j) to nonzero coefficients.  Conjugation swaps the variables and
  conjugates the coefficients; zbar only becomes conj(z) at evaluation time.
* RationalFn: quotient of two BiPoly, kept unreduced apart from cheap
  monomial and content strips.  Equality is decided by cross-multiplication,
  never by computing a gcd normal form; reduced() cancels the num/den gcd on
  demand for entries that feed long product chains.

Numeric evaluation computes exactly (the sample point is converted to exact
rationals) and rounds to complex once at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DenominatorVanishes

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _cmul(x, y):
    """CPython's complex product on (re, im) pairs of floats or float arrays."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _frac(x) -> Fraction:
    # Fraction(float) is exact (binary expansion), Fraction(str) parses "p/q".
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError("cannot coerce %r to Fraction" % (x,))


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on Q: gcd of numerators over lcm of denominators, always >= 0.
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator, b.numerator)
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_complex(cls, z: complex) -> "GaussianRational":
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0)
        if isinstance(x, complex):
            return cls.from_complex(x)
        if isinstance(x, float):
            return cls(Fraction(x), 0)
        raise TypeError("cannot coerce %r to GaussianRational" % (x,))

    @classmethod
    def _try(cls, x):
        try:
            return cls.coerce(x)
        except TypeError:
            return None

    def __add__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = GaussianRational._try(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __abs__(self) -> float:
        return math.sqrt(float(self.abs_squared()))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def content(self) -> Fraction:
        return _frac_gcd(self.re, self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        sign = "+" if self.im > 0 else "-"
        return "(%s%s%s*i)" % (self.re, sign, abs(self.im))


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

    def content(self) -> Fraction:
        c = _ZERO
        for coeff in self.terms.values():
            c = _frac_gcd(c, coeff.content())
            if c == 1:
                break
        return c

    def scale(self, f: Fraction) -> "BiPoly":
        if f == 1:
            return self
        g = GaussianRational(f)
        return BiPoly({k: c * g for k, c in self.terms.items()})

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
            terms = tuple((a, b, float(c.re), float(c.im))
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
            c = _frac_gcd(num.content(), den.content())
            if c != 1 and c != 0:
                inv = 1 / c
                num = num.scale(inv)
                den = den.scale(inv)
            lead = den.leading_coefficient()
            if lead.im == 0 and lead.re < 0:
                num = num * GaussianRational(-1)
                den = den * GaussianRational(-1)
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
        used once; call this at boundaries where an entry feeds many further
        products (stored frame columns, derivatives, pairings), where the
        degree drop pays for the gcd many times over.
        """
        if self.den == BP_ONE or self.num.is_zero():
            return self
        g = _bipoly_gcd(self.num, self.den)
        if g.degrees() == (0, 0):
            return self
        return RationalFn(
            _bipoly_div_exact(self.num, g), _bipoly_div_exact(self.den, g)
        )

    def evaluate_at(self, z, zbar, floor: float = 1e-12) -> GaussianRational:
        dv = self.den.evaluate_at(z, zbar)
        if dv.is_zero() or abs(dv) < floor:
            raise DenominatorVanishes(
                "denominator %.3e below floor %.1e" % (abs(dv), floor)
            )
        return self.num.evaluate_at(z, zbar) / dv

    def evaluate_exact(self, z, floor: float = 1e-12) -> GaussianRational:
        z = GaussianRational.coerce(z)
        return self.evaluate_at(z, z.conjugate(), floor)

    def evaluate(self, z: complex, floor: float = 1e-12) -> complex:
        return self.evaluate_exact(GaussianRational.coerce(z), floor).to_complex()

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
