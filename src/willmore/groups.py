"""Group constants, the block-structure isometry, and membership checks.

GroupContext(m) owns the constant matrices for ambient dimension 2m+2:
the Minkowski form, the antidiagonal bilinear form J, the change-of-basis
pair (M, P1) implementing the isometry onto the block-graded model, the
reality conjugation S0, and the grading involutions Jhat, D0.

The isometry is exact over Gaussian rationals: the two 1/sqrt(2) factors of
the orthonormal change of basis pair into a single 1/2, so

    iso_P(A)     = (1/2) P1^t Mbar^t A M P1
    iso_P_inv(B) = (1/2) M P1 B P1^t Mbar^t

are inverse to each other without ever leaving the rational field.
iso_P_indexwise re-derives the same map entry by entry from the closed-form
recombination of row/column pairs and serves as an independent oracle.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import matrices as mx
from .loops import LoopMatrix
from .scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    RF_I,
    RF_ONE,
    RF_ZERO,
    GaussianRational,
    RationalFn,
)

_HALF = GaussianRational(Fraction(1, 2))


def _gr_mat(rows):
    return mx.freeze(
        tuple(tuple(GaussianRational.coerce(x) for x in row) for row in rows)
    )


class GroupContext:
    """Constants and conjugations for one ambient dimension."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be a positive integer")
        self.m = m
        self.n = 2 * m - 2
        self.dim = 2 * m + 2
        d = self.dim

        self.minkowski = _gr_mat(
            [[(-1 if i == 0 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
        )
        self.I11 = _gr_mat([[-1, 0], [0, 1]])
        self.D = _gr_mat(
            [[(-1 if i < 2 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
        )
        self.J = _gr_mat(
            [[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)]
        )
        self.Jm = _gr_mat(
            [[1 if i + j == m - 1 else 0 for j in range(m)] for i in range(m)]
        )
        self.J2 = _gr_mat([[0, 1], [1, 0]])

        M = [[GR_ZERO] * d for _ in range(d)]
        M[0][0] = GR_ONE
        M[0][d - 1] = -GR_ONE
        M[1][0] = GR_ONE
        M[1][d - 1] = GR_ONE
        for j in range(1, m + 1):
            M[2 * j][j] = -GR_I
            M[2 * j][d - 1 - j] = GR_I
            M[2 * j + 1][j] = GR_ONE
            M[2 * j + 1][d - 1 - j] = GR_ONE
        self.M = mx.freeze(M)
        self.Mbar_t = mx.mat_transpose(mx.mat_conj(self.M))

        P1 = [[GR_ZERO] * d for _ in range(d)]
        P1[0][m] = GR_ONE
        for i in range(1, m + 1):
            P1[i][i - 1] = GR_ONE
        for i in range(1, m + 1):
            P1[m + i][m + 1 + i] = GR_ONE
        P1[d - 1][m + 1] = GR_ONE
        self.P1 = mx.freeze(P1)
        self.P1_t = mx.mat_transpose(self.P1)

        # M Mbar^t = 2I and P1 is a permutation; both are construction invariants.
        two_I = mx.mat_scale(mx.identity(d, GR_ONE, GR_ZERO), GaussianRational(2))
        if not mx.mat_eq(mx.mat_mul(self.M, self.Mbar_t), two_I):
            raise AssertionError("basis matrix fails M Mbar^t = 2I")
        if not mx.mat_eq(
            mx.mat_mul(self.P1_t, self.P1), mx.identity(d, GR_ONE, GR_ZERO)
        ):
            raise AssertionError("P1 is not orthogonal")

        # S0 = (1/2) P1^t Mbar^t Mbar P1, the reality conjugation; it must
        # come out as the block antidiagonal ((0,0,Jm),(0,I2,0),(Jm,0,0)).
        Mbar = mx.mat_conj(self.M)
        s0 = mx.mat_scale(
            mx.mat_mul(mx.mat_mul(self.P1_t, self.Mbar_t), mx.mat_mul(Mbar, self.P1)),
            _HALF,
        )
        self.S0 = s0
        zm = mx.zeros(m, m, GR_ZERO)
        zm2 = mx.zeros(m, 2, GR_ZERO)
        z2m = mx.zeros(2, m, GR_ZERO)
        expected = mx.block_matrix(
            [
                [zm, zm2, self.Jm],
                [z2m, mx.identity(2, GR_ONE, GR_ZERO), z2m],
                [self.Jm, zm2, zm],
            ]
        )
        if not mx.mat_eq(self.S0, expected):
            raise AssertionError("S0 does not match its block antidiagonal form")
        ident = mx.identity(d, GR_ONE, GR_ZERO)
        if not mx.mat_eq(mx.mat_mul(self.S0, self.S0), ident):
            raise AssertionError("S0 is not involutive")

        self.Jhat = mx.block_matrix(
            [
                [mx.identity(m, GR_ONE, GR_ZERO), zm2, zm],
                [z2m, self.J2, z2m],
                [zm, zm2, mx.identity(m, GR_ONE, GR_ZERO)],
            ]
        )
        self.D0 = mx.block_matrix(
            [
                [mx.identity(m, GR_ONE, GR_ZERO), zm2, zm],
                [z2m, mx.mat_neg(mx.identity(2, GR_ONE, GR_ZERO)), z2m],
                [zm, zm2, mx.identity(m, GR_ONE, GR_ZERO)],
            ]
        )

        # De-interleaving permutation diag(I2, Q2): Q2 maps paired columns
        # (b, ib) layout onto the stacked (b; bhat) layout.
        Q2 = [[GR_ZERO] * (2 * m) for _ in range(2 * m)]
        for j in range(m):
            Q2[j][2 * j] = GR_ONE
            Q2[m + j][2 * j + 1] = GR_ONE
        self.Q_perm = mx.block_matrix(
            [
                [mx.identity(2, GR_ONE, GR_ZERO), mx.zeros(2, 2 * m, GR_ZERO)],
                [mx.zeros(2 * m, 2, GR_ZERO), mx.freeze(Q2)],
            ]
        )

        self._arrays = {}

    # The two sides of the isometry: iso_P(A) = iso_left A iso_right.

    @functools.cached_property
    def iso_left(self):
        return mx.mat_scale(mx.mat_mul(self.P1_t, self.Mbar_t), _HALF)

    @functools.cached_property
    def iso_right(self):
        return mx.mat_mul(self.M, self.P1)

    # -- constant access ---------------------------------------------------

    def plain(self, name: str) -> np.ndarray:
        """A stored constant as an object array of RationalFn (cached)."""
        return self._array(name, True)

    def np(self, name: str) -> np.ndarray:
        """The constant as a complex numpy array (cached)."""
        return self._array(name, False)

    def _array(self, name, exact):
        cached = self._arrays.get((name, exact))
        if cached is None:
            convert = RationalFn.coerce if exact else GaussianRational.to_complex
            cached = np.array(
                [[convert(x) for x in row] for row in getattr(self, name)],
                dtype=object if exact else complex,
            )
            cached.setflags(write=False)
            self._arrays[(name, exact)] = cached
        return cached

    def loop(self, name: str, power: int = 0) -> LoopMatrix:
        """A stored constant as an exact loop at one power."""
        return LoopMatrix.from_constant(self.plain(name), power)

    def _like(self, name: str, F: LoopMatrix) -> LoopMatrix:
        """A stored constant as a power-0 loop of the same kind as F."""
        if F.exact is False:
            return LoopMatrix.from_constant(self.np(name))
        return self.loop(name)

    # -- the isometry -------------------------------------------------------

    def iso_P(self, A: LoopMatrix) -> LoopMatrix:
        """Push a matrix in the paired basis into the block-graded model."""
        if (A.rows, A.cols) != (self.dim, self.dim):
            raise ValueError("iso_P expects a %dx%d matrix" % (self.dim, self.dim))
        return self._like("iso_left", A) @ A @ self._like("iso_right", A)

    def iso_P_inv(self, B: LoopMatrix) -> LoopMatrix:
        if (B.rows, B.cols) != (self.dim, self.dim):
            raise ValueError("iso_P_inv expects a %dx%d matrix" % (self.dim, self.dim))
        # Inverse conjugation: swap the two sides.
        return self._like("iso_right", B) @ B @ self._like("iso_left", B)

    def iso_P_inv_np(self, B):
        """iso_P_inv on a plain numpy matrix (no loop powers)."""
        return self.np("iso_right") @ B @ self.np("iso_left")

    def iso_P_indexwise(self, A: LoopMatrix) -> LoopMatrix:
        """Entry-by-entry recombination oracle for iso_P."""
        if (A.rows, A.cols) != (self.dim, self.dim):
            raise ValueError("iso_P_indexwise expects %dx%d" % (self.dim, self.dim))
        m = self.m
        if A.exact is False:
            one, ii, half = 1 + 0j, 1j, 0.5 + 0j
        else:
            one, ii, half = RF_ONE, RF_I, RationalFn.const(_HALF)
        mone, nii = -one, -ii

        def a(j, k):
            # 1-indexed accessor into A.
            return A.entry(j - 1, k - 1)

        def lc(*pairs):
            # Linear combination sum(c * s) scaled by 1/2.
            acc = None
            for c, s in pairs:
                t = s.scale(c)
                acc = t if acc is None else acc + t
            return acc.scale(half)

        rows = []
        for j in range(1, m + 1):
            row = []
            for k in range(1, m + 1):
                row.append(
                    lc(
                        (one, a(2 * j + 1, 2 * k + 1)),
                        (nii, a(2 * j + 2, 2 * k + 1)),
                        (ii, a(2 * j + 1, 2 * k + 2)),
                        (one, a(2 * j + 2, 2 * k + 2)),
                    )
                )
            row.append(
                lc(
                    (ii, a(2 * j + 1, 1)),
                    (one, a(2 * j + 2, 1)),
                    (ii, a(2 * j + 1, 2)),
                    (one, a(2 * j + 2, 2)),
                )
            )
            row.append(
                lc(
                    (nii, a(2 * j + 1, 1)),
                    (mone, a(2 * j + 2, 1)),
                    (ii, a(2 * j + 1, 2)),
                    (one, a(2 * j + 2, 2)),
                )
            )
            for k in range(m + 3, 2 * m + 3):
                kh = 2 * m + 3 - k
                row.append(
                    lc(
                        (mone, a(2 * j + 1, 2 * kh + 1)),
                        (ii, a(2 * j + 2, 2 * kh + 1)),
                        (ii, a(2 * j + 1, 2 * kh + 2)),
                        (one, a(2 * j + 2, 2 * kh + 2)),
                    )
                )
            rows.append(row)

        row = []
        for k in range(1, m + 1):
            row.append(
                lc(
                    (nii, a(1, 2 * k + 1)),
                    (nii, a(2, 2 * k + 1)),
                    (one, a(1, 2 * k + 2)),
                    (one, a(2, 2 * k + 2)),
                )
            )
        row.append(lc((one, a(1, 1)), (one, a(2, 1)), (one, a(1, 2)), (one, a(2, 2))))
        row.append(lc((mone, a(1, 1)), (mone, a(2, 1)), (one, a(1, 2)), (one, a(2, 2))))
        for k in range(m + 3, 2 * m + 3):
            kh = 2 * m + 3 - k
            row.append(
                lc(
                    (ii, a(1, 2 * kh + 1)),
                    (ii, a(2, 2 * kh + 1)),
                    (one, a(1, 2 * kh + 2)),
                    (one, a(2, 2 * kh + 2)),
                )
            )
        rows.append(row)

        row = []
        for k in range(1, m + 1):
            row.append(
                lc(
                    (ii, a(1, 2 * k + 1)),
                    (nii, a(2, 2 * k + 1)),
                    (mone, a(1, 2 * k + 2)),
                    (one, a(2, 2 * k + 2)),
                )
            )
        row.append(lc((mone, a(1, 1)), (one, a(2, 1)), (mone, a(1, 2)), (one, a(2, 2))))
        row.append(lc((one, a(1, 1)), (mone, a(2, 1)), (mone, a(1, 2)), (one, a(2, 2))))
        for k in range(m + 3, 2 * m + 3):
            kh = 2 * m + 3 - k
            row.append(
                lc(
                    (nii, a(1, 2 * kh + 1)),
                    (ii, a(2, 2 * kh + 1)),
                    (mone, a(1, 2 * kh + 2)),
                    (one, a(2, 2 * kh + 2)),
                )
            )
        rows.append(row)

        for j in range(m + 3, 2 * m + 3):
            jh = 2 * m + 3 - j
            row = []
            for k in range(1, m + 1):
                row.append(
                    lc(
                        (mone, a(2 * jh + 1, 2 * k + 1)),
                        (nii, a(2 * jh + 2, 2 * k + 1)),
                        (nii, a(2 * jh + 1, 2 * k + 2)),
                        (one, a(2 * jh + 2, 2 * k + 2)),
                    )
                )
            row.append(
                lc(
                    (nii, a(2 * jh + 1, 1)),
                    (one, a(2 * jh + 2, 1)),
                    (nii, a(2 * jh + 1, 2)),
                    (one, a(2 * jh + 2, 2)),
                )
            )
            row.append(
                lc(
                    (ii, a(2 * jh + 1, 1)),
                    (mone, a(2 * jh + 2, 1)),
                    (nii, a(2 * jh + 1, 2)),
                    (one, a(2 * jh + 2, 2)),
                )
            )
            for k in range(m + 3, 2 * m + 3):
                kh = 2 * m + 3 - k
                row.append(
                    lc(
                        (one, a(2 * jh + 1, 2 * kh + 1)),
                        (ii, a(2 * jh + 2, 2 * kh + 1)),
                        (nii, a(2 * jh + 1, 2 * kh + 2)),
                        (one, a(2 * jh + 2, 2 * kh + 2)),
                    )
                )
            rows.append(row)

        return loop_from_entries(rows)

    # -- conjugations and membership -----------------------------------------

    def tau(self, F: LoopMatrix) -> LoopMatrix:
        """Reality involution: S0 bar(F) S0."""
        S0 = self._like("S0", F)
        return S0 @ F.bar() @ S0

    def tau_inv_of(self, F: LoopMatrix) -> LoopMatrix:
        """tau(F)^-1 computed without inverting: Jhat bar(F)^t Jhat."""
        Jh = self._like("Jhat", F)
        return Jh @ F.bar().transpose() @ Jh

    def check_membership(self, F: LoopMatrix, which: str, z=None,
                         lams=(1.0, 1j), tol: float = 1e-10) -> dict:
        """Report (never raise) how well F satisfies a membership relation."""
        if which == "SO(1,2m+1,C)":
            G = self._like("minkowski", F)
            residual = F.transpose() @ G @ F - G
        elif which == "G(2m+2,C)":
            J = self._like("J", F)
            residual = F.transpose() @ J @ F - J
        elif which == "real-form-via-tau":
            residual = self.tau(F) - F
        elif which == "K-fixed-via-D0":
            D0 = self._like("D0", F)
            residual = D0 @ F @ D0 - F
        elif which == "twisted-via-D0":
            D0 = self._like("D0", F)
            residual = F.negate_lambda() - D0 @ F @ D0
        else:
            raise ValueError("unknown membership relation %r" % which)

        exact = F.exact is not False
        report = {"which": which, "backend": "exact" if exact else "float"}
        if exact:
            ok = residual.is_zero()
            report["exact"] = True
            report["max_residual"] = 0.0 if ok else _probe_exact(residual, z)
            report["passed"] = ok or report["max_residual"] <= tol
        else:
            worst = 0.0
            for lam in lams:
                val = residual.evaluate(z, lam)
                worst = max(worst, float(abs(val).max()) if val.size else 0.0)
            report["exact"] = False
            report["max_residual"] = worst
            report["passed"] = worst <= tol
        return report


@functools.lru_cache(maxsize=None)
def get_context(m: int) -> GroupContext:
    """Shared context per dimension; construction re-runs its own checks."""
    return GroupContext(m)


def _probe_exact(residual: LoopMatrix, z) -> float:
    """Numeric size of a nonzero exact residual at a probe point."""
    probe = z if z is not None else complex(1, 1) / 3
    worst = 0.0
    for lam in (1.0, 1j):
        val = residual.evaluate(probe, lam)
        worst = max(worst, float(abs(val).max()) if val.size else 0.0)
    return worst


def loop_from_entries(entries) -> LoopMatrix:
    """Assemble a LoopMatrix from a 2D grid of LaurentScalar entries."""
    rows = len(entries)
    cols = len(entries[0])
    powers = set()
    exact = None
    for row in entries:
        for e in row:
            powers.update(e.coeffs)
            exact = e.exact if exact is None else exact
    zero = 0j if exact is False else RF_ZERO
    coeffs = {}
    for k in powers:
        coeffs[k] = [[entries[i][j].coeffs.get(k, zero) for j in range(cols)]
                     for i in range(rows)]
    return LoopMatrix(rows, cols, coeffs)
