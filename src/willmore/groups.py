"""Group constants, the block-structure isometry, and float membership checks.

GroupContext(m) owns the constant matrices for ambient dimension 2m+2:
the Minkowski form, the antidiagonal bilinear form J, the change-of-basis
pair (M, P1) implementing the isometry onto the block-graded model, the
reality conjugation S0, and the grading involution D0.

The isometry is exact over Gaussian rationals: the two 1/sqrt(2) factors of
the orthonormal change of basis pair into a single 1/2, so

    iso_P(A)     = (1/2) P1^t Mbar^t A M P1
    iso_P_inv(B) = (1/2) M P1 B P1^t Mbar^t

are inverse to each other without ever leaving the rational field.
iso_P_indexwise re-derives the same map entry by entry from the closed-form
recombination of row/column pairs and serves as an independent oracle.

Every constant is stored once, as a GaussianRational array.  An exact loop
is multiplied by that array itself, so its entries keep their ring: a
constant loop stays GaussianRational, a polynomial one BiPoly.  A float
loop uses the constant's complex copy from np().
"""

from __future__ import annotations

import functools

import numpy as np

from .loops import LoopMatrix, exact_equal, exact_identity, exact_matrix, exact_zeros
from .scalars import GR_HALF, GR_I, GR_ONE, GR_ZERO, GaussianRational

_MEMBERSHIP_TOL = 1e-10
# The spectral parameters every float membership and verify check runs at.
LAMBDAS = (1 + 0j, 1j)


def _gr_mat(rows):
    return exact_matrix([[GaussianRational.coerce(x) for x in row] for row in rows])


def _gr_identity(n):
    return exact_identity(n, GR_ONE, GR_ZERO)


class GroupContext:
    """Constants and conjugations for one ambient dimension.

    Every constant is a read-only object array of GaussianRational; np(name)
    is its complex copy for float loops.
    """

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m must be a positive integer")
        self.m = m
        self.dim = 2 * m + 2
        d = self.dim

        self.minkowski = _gr_mat(
            [[(-1 if i == 0 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
        )
        self.J = _gr_mat(
            [[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)]
        )
        self.Jm = _gr_mat(
            [[1 if i + j == m - 1 else 0 for j in range(m)] for i in range(m)]
        )
        self.J2 = _gr_mat([[0, 1], [1, 0]])

        M = exact_zeros(d, d, GR_ZERO)
        M[0, 0] = GR_ONE
        M[0, d - 1] = -GR_ONE
        M[1, 0] = GR_ONE
        M[1, d - 1] = GR_ONE
        for j in range(1, m + 1):
            M[2 * j, j] = -GR_I
            M[2 * j, d - 1 - j] = GR_I
            M[2 * j + 1, j] = GR_ONE
            M[2 * j + 1, d - 1 - j] = GR_ONE
        self.M = exact_matrix(M)
        Mbar = np.conjugate(self.M)
        self.Mbar_t = Mbar.T

        P1 = exact_zeros(d, d, GR_ZERO)
        P1[0, m] = GR_ONE
        for i in range(1, m + 1):
            P1[i, i - 1] = GR_ONE
        for i in range(1, m + 1):
            P1[m + i, m + 1 + i] = GR_ONE
        P1[d - 1, m + 1] = GR_ONE
        self.P1 = exact_matrix(P1)
        self.P1_t = self.P1.T

        # M Mbar^t = 2I and P1 is a permutation; both are construction invariants.
        ident = _gr_identity(d)
        if not exact_equal(self.M @ self.Mbar_t, ident * GaussianRational(2)):
            raise AssertionError("basis matrix fails M Mbar^t = 2I")
        if not exact_equal(self.P1_t @ self.P1, ident):
            raise AssertionError("P1 is not orthogonal")

        # S0 = (1/2) P1^t Mbar^t Mbar P1, the reality conjugation; it must
        # come out as the block antidiagonal ((0,0,Jm),(0,I2,0),(Jm,0,0)).
        self.S0 = exact_matrix((self.P1_t @ self.Mbar_t) @ (Mbar @ self.P1) * GR_HALF)
        zm = exact_zeros(m, m, GR_ZERO)
        zm2 = exact_zeros(m, 2, GR_ZERO)
        z2m = exact_zeros(2, m, GR_ZERO)
        I2 = _gr_identity(2)
        Im = _gr_identity(m)
        expected = np.block([[zm, zm2, self.Jm], [z2m, I2, z2m], [self.Jm, zm2, zm]])
        if not exact_equal(self.S0, expected):
            raise AssertionError("S0 does not match its block antidiagonal form")
        if not exact_equal(self.S0 @ self.S0, ident):
            raise AssertionError("S0 is not involutive")

        self.D0 = exact_matrix(np.block([[Im, zm2, zm], [z2m, -I2, z2m], [zm, zm2, Im]]))

        self._arrays = {}

    # The two sides of the isometry: iso_P(A) = iso_left A iso_right.

    @functools.cached_property
    def iso_left(self):
        return exact_matrix(self.P1_t @ self.Mbar_t * GR_HALF)

    @functools.cached_property
    def iso_right(self):
        return exact_matrix(self.M @ self.P1)

    # -- constant access ---------------------------------------------------

    def np(self, name: str) -> np.ndarray:
        """The constant as a read-only complex numpy array (cached)."""
        cached = self._arrays.get(name)
        if cached is None:
            const = getattr(self, name)
            cached = np.array([x.to_complex() for x in const.flat],
                              dtype=complex).reshape(const.shape)
            cached.setflags(write=False)
            self._arrays[name] = cached
        return cached

    def _like(self, name: str, F: LoopMatrix) -> LoopMatrix:
        """A stored constant as a power-0 loop of F's kind: for an exact F the
        GaussianRational array itself, so products keep the ring of F's
        entries."""
        return LoopMatrix.from_constant(self.np(name) if F.exact is False
                                        else getattr(self, name))

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
        """Entry-by-entry recombination oracle for iso_P, on an exact loop.

        Each entry of the result is a closed-form combination of four
        entries of A with the GaussianRational weights 1, i and 1/2, so the
        result stays in the ring of A's entries.  It acts on all loop powers
        at once and never mixes them, so they can be a batch axis of
        constant matrices.  It shares no code with iso_left/iso_right.
        """
        if (A.rows, A.cols) != (self.dim, self.dim) or A.exact is False:
            raise ValueError("iso_P_indexwise expects an exact %dx%d loop"
                             % (self.dim, self.dim))
        m = self.m
        one, ii, half = GR_ONE, GR_I, GR_HALF
        mone, nii = -one, -ii
        powers = list(A.coeffs)
        stack = np.array([A.coeffs[k] for k in powers], dtype=object).reshape(
            len(powers), self.dim, self.dim)

        def a(j, k):
            # 1-indexed accessor into A: the entry at every power.
            return stack[:, j - 1, k - 1]

        def lc(*pairs):
            # Linear combination sum(s * c) scaled by 1/2.
            acc = None
            for c, s in pairs:
                t = s * c
                acc = t if acc is None else acc + t
            return acc * half

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

        entries = np.moveaxis(np.array(rows, dtype=object), -1, 0)
        return LoopMatrix(self.dim, self.dim, dict(zip(powers, entries)))

    # -- conjugations and membership -----------------------------------------

    def tau(self, F: LoopMatrix) -> LoopMatrix:
        """Reality involution: S0 bar(F) S0."""
        S0 = self._like("S0", F)
        return S0 @ F.bar() @ S0

    def check_membership(self, F: LoopMatrix, which: str) -> dict:
        """Report how well a float F, a constant or a stack over samples,
        satisfies a membership relation: max_residual is the largest over
        the samples and LAMBDAS, and a failed relation is reported, not
        raised.  An exact F raises ValueError: an exact frame holds only its
        middle columns, never a full F."""
        if F.exact is not False:
            raise ValueError("check_membership needs a float loop")
        if which == "G(2m+2,C)":
            J = self._like("J", F)
            residual = F.transpose() @ J @ F - J
        elif which == "real-form-via-tau":
            residual = self.tau(F) - F
        elif which == "twisted-via-D0":
            D0 = self._like("D0", F)
            residual = F.negate_lambda() - D0 @ F @ D0
        else:
            raise ValueError("unknown membership relation %r" % which)
        worst = 0.0
        for lam in LAMBDAS:
            val = residual.evaluate(None, lam)
            worst = max(worst, float(abs(val).max()) if val.size else 0.0)
        return {"which": which, "max_residual": worst, "passed": worst <= _MEMBERSHIP_TOL}


@functools.lru_cache(maxsize=None)
def get_context(m: int) -> GroupContext:
    """Shared context per dimension; construction re-runs its own checks."""
    return GroupContext(m)
