"""Exact plain matrices, and Laurent-polynomial loops with matrix coefficients.

Every matrix is a numpy array.  An exact matrix (a potential, a frame
block, a witness block, a group constant, an exact loop coefficient) is a
read-only array of dtype=object whose entries are exact scalars:
GaussianRational, BiPoly or RationalFn.  numpy applies +, -, * and @ to
such entries one by one, and object @ sums each entry's products left to
right, so an exact product keeps the association written in the source.
A LoopMatrix product of exact coefficients gives the entries object @
gives, by a shorter route: it multiplies only the pairs of nonzero entries
(_object_product).  A chain of GaussianRational matrices or stacks
multiplies their integer numerators over a common denominator, as int64
where that cannot overflow, and normalizes each entry once, at the end,
which gives the same canonical values (_gr_matmul); the group constants'
conjugations and the isometry oracle use it.
The rings combine through Python's reflected operators: a GaussianRational
times a BiPoly is a BiPoly, a BiPoly times a RationalFn a RationalFn.  So a
constant or polynomial matrix stays in its own ring, and only a product
with a RationalFn operand builds RationalFn entries.

A LoopMatrix is a finite Laurent polynomial in the loop parameter, stored
power-major: {power: coefficient matrix}.  Every coefficient is a numpy
array of one of two kinds:

* exact: dtype=object, exact scalars (constants or functions of z, zbar);
* float: complex, the loop bound at each of N samples, of shape
  (N, rows, cols), or a constant of shape (rows, cols) that broadcasts
  against such a stack.

Both kinds share one implementation: numpy applies the same operators to
exact scalars entry by entry, and to complex arrays through BLAS, matrix by
matrix over a stack, so each sample of a stacked loop holds the values of
the loop bound at that sample alone.  Mixing the kinds in one operation
raises ValueError.  A zero coefficient is dropped, except a float stack over
zero samples, which keeps its (0, rows, cols) shape, so that every result
built from it is an empty stack too.  A loop binds its parameter only
numerically (evaluate); the exact frame is not a loop but its three middle
blocks, and surfaces.extract_pair binds an exact unit lambda on those.

The conjugation bar() implements the loop-group reality operator on
coefficients: conjugate each entry, negate each power.  At a physical sample
(zbar = conj z) this agrees with the functional conjugate, which is why a
float loop supports it entrywise.
"""

from __future__ import annotations

import functools
from itertools import repeat

import numpy as np

from .errors import LambdaZero
from .scalars import (BP_ZERO, GR_ZERO, RF_ONE, RF_ZERO, BiPoly, ExactPoint, GaussianRational,
                      RationalFn, _cleared, _gr)


def exact_matrix(rows) -> np.ndarray:
    """A read-only object array of exact scalars, from nested rows or an array."""
    arr = np.array(rows, dtype=object)
    arr.setflags(write=False)
    return arr


def exact_map(arr, fn) -> np.ndarray:
    """fn applied to every entry of an exact matrix, as a read-only array."""
    return exact_matrix([fn(x) for x in arr.flat]).reshape(arr.shape)


def exact_zeros(rows: int, cols: int, zero) -> np.ndarray:
    """A rows x cols object array filled with the ring's zero."""
    return np.full((rows, cols), zero, dtype=object)


def exact_identity(n: int, one, zero) -> np.ndarray:
    """The n x n identity over the ring of one and zero, read-only."""
    eye = exact_zeros(n, n, zero)
    np.fill_diagonal(eye, one)
    eye.setflags(write=False)
    return eye


def exact_equal(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether two exact matrices have one shape and equal entries."""
    return A.shape == B.shape and all(x.is_zero() for x in (A - B).flat)


def sharp(X: np.ndarray) -> np.ndarray:
    """Anti-transpose X#[i, j] = X[p-1-j, q-1-i] of a p x q matrix, or of each
    matrix in a stack (last two axes).

    Only defined with 2 rows or 2 columns (the off-diagonal blocks of the
    nilpotent frames); other shapes are a usage error.
    """
    p, q = X.shape[-2:]
    if p != 2 and q != 2:
        raise ValueError("sharp requires a 2-row or 2-column matrix, got %dx%d" % (p, q))
    return X[..., ::-1, ::-1].swapaxes(-1, -2)


def nilpotent_block(X, zero) -> np.ndarray:
    """[[0, X, 0], [0, 0, -X#], [0, 0, 0]], the rest filled with zero, for an
    m x 2 matrix X or for each matrix of a stack: the loop^-1 shape of the
    nilpotent potential (X = fcheck), of the frame H (X = f), of W (X = u)
    and of the connection's N (X = fcheck at the samples)."""
    m = X.shape[-2]
    mat = np.full(X.shape[:-2] + (2 * m + 2, 2 * m + 2), zero, dtype=X.dtype)
    mat[..., :m, m:m + 2] = X
    mat[..., m:m + 2, m + 2:] = -sharp(X)
    return mat


def _is_exact(x) -> bool:
    return isinstance(x, (GaussianRational, BiPoly, RationalFn))


def _same_kind(a, b, what):
    if a is not None and b is not None and a != b:
        raise ValueError("mixed exact and float %s" % what)


def _coefficient(mat) -> np.ndarray:
    """A read-only array: object if its entries are exact scalars, else complex.

    Read-only arrays of either dtype are immutable already and are shared,
    not copied.
    """
    if isinstance(mat, np.ndarray):
        if mat.dtype in (object, complex) and not mat.flags.writeable:
            return mat
        if mat.dtype != object:
            arr = mat.astype(complex)
            arr.setflags(write=False)
            return arr
    arr = np.array(mat, dtype=object)
    if arr.size and not _is_exact(arr.flat[0]):
        arr = arr.astype(complex)
    arr.setflags(write=False)
    return arr


def _kept(arr) -> bool:
    """Whether a coefficient is stored: it has a nonzero entry, or it is a
    float stack over zero samples, which keeps the stack's shape."""
    if arr.dtype == object:
        return not all(x.is_zero() for x in arr.flat)
    return not arr.size or bool(arr.any())


def _bind(arr, z) -> np.ndarray:
    """Exact entries evaluated at z, or at each z of a 1-D array (a stack):
    computed exactly, rounded once.

    The nonzero entries are found once.  Each sample is made an ExactPoint
    once, its power tables as long as the highest degree among them, and
    every nonzero entry's evaluate takes that point, so the tables serve all
    of them; zero entries stay 0j, which is what evaluating them returns.
    """
    if arr.dtype != object:
        return arr
    flat = arr.ravel()
    where = [k for k, x in enumerate(flat) if x]
    entries = flat[where].tolist()
    degree = max(map(_degree, entries), default=0)
    zs = np.ravel(z).tolist()
    out = np.zeros((len(zs), arr.size), dtype=complex)
    for row, zk in zip(out, zs):
        point = ExactPoint(zk, degree)
        row[where] = [x.evaluate(point) for x in entries]
    return out.reshape(np.shape(z) + arr.shape)


def _degree(x) -> int:
    """The highest power of z or zbar in an exact entry."""
    if isinstance(x, RationalFn):
        return max(*x.num.degrees(), *x.den.degrees())
    if isinstance(x, BiPoly):
        return max(x.degrees())
    return 0


# numpy's int64 arithmetic wraps past 2**63 - 1 without a warning.
_INT64_LIMIT = 1 << 63


def _gr_parts(M):
    """(d, re, im): a GaussianRational matrix, or stack of them, as integer
    arrays re + im*i over d, the lcm of its entries' denominators; None for
    any other coefficient.  The arrays are int64 when every numerator fits
    in it, else Python-int object arrays."""
    if M.dtype != object or not set(map(type, M.flat)) <= {GaussianRational}:
        return None
    d, xs, ys = _cleared(list(M.flat))
    fits = max(map(abs, xs + ys), default=0) < _INT64_LIMIT
    return d, *(np.array(v, dtype=np.int64 if fits else object).reshape(M.shape)
                for v in (xs, ys))


def _numerator_bound(*nums) -> int:
    """The largest magnitude among integer arrays."""
    return max(int(np.abs(x).max(initial=0)) for x in nums)


def _exact_ints(nums, reach):
    """The integer arrays nums as they are if all are int64 and reach, the
    largest magnitude a computation on them can take, is below 2**63; else
    as Python-int object arrays.  numpy's int64 wraps past 2**63 - 1 without
    a warning, so reach, taken from the arrays' own values, is what keeps an
    int64 computation exact."""
    if reach < _INT64_LIMIT and all(x.dtype == np.int64 for x in nums):
        return nums
    return [x.astype(object) for x in nums]


def _gr_array(re, im, d) -> np.ndarray:
    """The GaussianRationals (re + im*i)/d of two integer arrays, one _gr
    per entry, as a read-only object array of their shape."""
    out = np.array(list(map(_gr, re.ravel().tolist(), im.ravel().tolist(), repeat(d))),
                   dtype=object).reshape(re.shape)
    out.setflags(write=False)
    return out


def _gr_product(A, B):
    """The GaussianRational matrix product of two _gr_parts, matrices or
    stacks whose leading axes broadcast as they do under @, as _gr_parts
    too: (d_A d_B, Ar Br - Ai Bi, Ar Bi + Ai Br), not reduced.

    Each entry of Ar @ Br - Ai @ Bi or Ar @ Bi + Ai @ Br sums 2k products,
    k the inner dimension, none larger than max|A| max|B|, each max taken
    over an operand's real and imaginary numerators.  So when
    2 k max|A| max|B| < 2**63 the numerators multiply as int64; since
    numpy's int64 wraps silently on overflow, that bound, taken from the
    operands' own numerators on every call, is what keeps the fast path
    exact.  Past it they multiply as Python ints (_exact_ints)."""
    (dA, Ar, Ai), (dB, Br, Bi) = A, B
    reach = 2 * Ar.shape[-1] * _numerator_bound(Ar, Ai) * _numerator_bound(Br, Bi)
    Ar, Ai, Br, Bi = _exact_ints((Ar, Ai, Br, Bi), reach)
    return dA * dB, Ar @ Br - Ai @ Bi, Ar @ Bi + Ai @ Br


def _gr_matmul(*mats):
    """The product of GaussianRational matrices or stacks, left to right,
    as numpy's object @ gives it: their numerators multiply through
    _gr_product, and each entry is reduced once, at the end.  None if an
    operand has an entry of another ring."""
    parts = [_gr_parts(M) for M in mats]
    if not all(parts):
        return None
    d, re, im = functools.reduce(_gr_product, parts)
    return _gr_array(re, im, d)


# The rings of exact scalars in the order in which they absorb each other: a
# product or sum lies in the larger ring of its operands.
_RING = {GaussianRational: 0, BiPoly: 1, RationalFn: 2}
_RING_ZERO = (GR_ZERO, BP_ZERO, RF_ZERO)


def _object_product(A, B) -> np.ndarray:
    """A @ B for exact matrices, entry for entry what numpy's object @ gives,
    from the pairs of nonzero entries only.

    numpy's @ starts each entry at its first product and adds the others
    left to right.  A zero product in a ring no larger than the sum's
    changes nothing: it leaves a GaussianRational canonical, a BiPoly's
    terms in their order and a RationalFn as it is, and a nonzero product
    added to such a zero is that product.  So an entry whose nonzero
    products all lie in the largest ring among all its products is their
    sum in increasing inner index, or the zero of that ring if there are
    none.  An entry with a nonzero product in a smaller ring, which a zero
    product in the larger ring would promote, is summed over every inner
    index, as @ sums it.
    """
    rows, cols = A.tolist(), B.T.tolist()
    row_rings = [[_RING[type(x)] for x in row] for row in rows]
    col_rings = [[_RING[type(x)] for x in col] for col in cols]
    row_support = [[k for k, x in enumerate(row) if x] for row in rows]
    col_nonzero = [[bool(x) for x in col] for col in cols]
    out = np.empty((len(rows), len(cols)), dtype=object)
    for i, (row, ra, support) in enumerate(zip(rows, row_rings, row_support)):
        for j, (col, rb, nonzero) in enumerate(zip(cols, col_rings, col_nonzero)):
            ring = max(max(ra), max(rb))
            ks = [k for k in support if nonzero[k]]
            if any(ra[k] < ring and rb[k] < ring for k in ks):
                ks = range(len(row))
            if not ks:
                out[i, j] = _RING_ZERO[ring]
                continue
            total = row[ks[0]] * col[ks[0]]
            for k in ks[1:]:
                total = total + row[k] * col[k]
            out[i, j] = total
    return out


class LoopMatrix:
    """Matrix-valued finite Laurent polynomial, power-major storage."""

    __slots__ = ("rows", "cols", "coeffs", "exact")

    def __init__(self, rows, cols, coeffs):
        clean = {}
        exact = None
        for k, mat in coeffs.items():
            mat = _coefficient(mat)
            kind = mat.dtype == object
            if mat.shape[-2:] != (rows, cols) or mat.ndim > (2 if kind else 3):
                raise ValueError(
                    "coefficient at power %d has shape %s, expected %dx%d"
                    % (k, mat.shape, rows, cols)
                )
            _same_kind(exact, kind, "LoopMatrix coefficients")
            exact = kind
            if _kept(mat):
                clean[int(k)] = mat
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "coeffs", clean)
        # True (exact scalars), False (complex), or None for a loop built from
        # no coefficients at all, which combines with either kind.
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("LoopMatrix is immutable")

    @classmethod
    def from_constant(cls, mat):
        arr = _coefficient(mat)
        r, c = arr.shape[-2:]
        return cls(r, c, {0: arr})

    @classmethod
    def identity(cls, n):
        """The exact identity; a float one is from_constant(np.eye(n))."""
        return cls(n, n, {0: exact_identity(n, RF_ONE, RF_ZERO)})

    def _with(self, coeffs, rows=None, cols=None):
        return LoopMatrix(self.rows if rows is None else rows,
                          self.cols if cols is None else cols, coeffs)

    def __add__(self, other):
        _same_kind(self.exact, other.exact, "LoopMatrix operands")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("LoopMatrix shape mismatch in add")
        out = dict(self.coeffs)
        for k, mat in other.coeffs.items():
            out[k] = out[k] + mat if k in out else mat
        return self._with(out)

    def __neg__(self):
        return self._with({k: -m for k, m in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        """The loop product, coefficient by coefficient.  Exact coefficients
        give the entries numpy's object @ gives, through _object_product,
        which multiplies only pairs of nonzero entries."""
        _same_kind(self.exact, other.exact, "LoopMatrix operands")
        if self.cols != other.rows:
            raise ValueError(
                "LoopMatrix matmul mismatch: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        out = {}
        for k1, m1 in self.coeffs.items():
            for k2, m2 in other.coeffs.items():
                k = k1 + k2
                prod = _object_product(m1, m2) if m1.dtype == object else m1 @ m2
                out[k] = out[k] + prod if k in out else prod
        return self._with(out, cols=other.cols)

    def transpose(self):
        return self._with({k: m.swapaxes(-1, -2) for k, m in self.coeffs.items()},
                          rows=self.cols, cols=self.rows)

    def bar(self):
        """Loop reality operator: conjugate entries, negate powers."""
        return self._with({-k: np.conjugate(m) for k, m in self.coeffs.items()})

    def negate_lambda(self):
        """Substitute lambda -> -lambda: odd powers flip sign."""
        return self._with({k: -m if k % 2 else m for k, m in self.coeffs.items()})

    def window(self):
        if not self.coeffs:
            return (0, 0)
        return (min(self.coeffs), max(self.coeffs))

    def _exact_map(self, fn, what):
        if self.exact is False:
            raise ValueError("%s needs exact coefficients" % what)
        return self._with({k: exact_map(m, fn) for k, m in self.coeffs.items()})

    def d_dz(self):
        return self._exact_map(lambda x: x.d_dz(), "d_dz")

    def d_dzbar(self):
        return self._exact_map(lambda x: x.d_dzbar(), "d_dzbar")

    def is_zero(self) -> bool:
        return not any(m.size for m in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, LoopMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("LoopMatrix is unhashable")

    def evaluate(self, z, lam):
        """Numeric coefficient matrix at (z, lambda) as a numpy array.

        An exact loop is bound at z, a scalar or a 1-D array of samples; a
        stacked float loop (or an exact one bound at an array) gives one
        matrix per sample, shape (N, rows, cols).
        """
        lam = complex(lam)
        if lam == 0 and any(k < 0 for k in self.coeffs):
            raise LambdaZero("negative loop powers evaluated at lambda = 0")
        terms = [_bind(m, z) * lam**k for k, m in self.coeffs.items()]
        out = np.zeros(np.broadcast_shapes((self.rows, self.cols), *(t.shape for t in terms)),
                       dtype=complex)
        for t in terms:
            out += t
        return out

    def to_float(self, z):
        """Bind exact entries at a sample, or at each sample of a 1-D array of
        z (a stacked float loop); the loop parameter stays formal."""
        if self.exact is not True:
            return self
        return self._with({k: _bind(m, z) for k, m in self.coeffs.items()})

    def max_abs(self):
        """Largest entry magnitude across powers of a float loop, one value
        per sample of a stack."""
        if self.exact:
            raise ValueError("max_abs is a float-loop measure")
        worst = 0.0
        for m in self.coeffs.values():
            worst = np.maximum(worst, np.abs(m).max(axis=(-2, -1)))
        return worst

    def __repr__(self):
        return "LoopMatrix(%dx%d, powers=%s, %s)" % (
            self.rows, self.cols, sorted(self.coeffs),
            {True: "exact", False: "float", None: "zero"}[self.exact],
        )


def unipotent_inverse(U: LoopMatrix) -> LoopMatrix:
    """Inverse of a float loop I + N with N nilpotent: alternating Neumann
    series.  An exact U raises the mixed exact and float ValueError.

    Raises if the series does not terminate within the dimension bound,
    which means U was not unipotent.
    """
    if U.rows != U.cols:
        raise ValueError("unipotent_inverse needs a square loop matrix")
    ident = LoopMatrix.from_constant(np.eye(U.rows, dtype=complex))
    N = U - ident
    acc = ident
    term = ident
    for _ in range(U.rows + 1):
        term = term @ N
        if term.is_zero():
            return acc
        acc = acc - term if _ % 2 == 0 else acc + term
    raise ValueError("matrix is not unipotent; Neumann series did not terminate")
