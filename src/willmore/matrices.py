"""Dense matrix helpers over exact duck-typed scalars.

Matrices here are plain tuples of tuples over the exact rings:
GaussianRational (constants) and BiPoly/RationalFn (functions of z, zbar).
They build the group constants, the frame data and the exact Iwasawa
witness; float work uses numpy arrays, stacked over samples, instead.  A scalar must
support + - *, .conjugate(), and either .is_zero() or == 0.
"""

from __future__ import annotations


def sc_is_zero(x) -> bool:
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def freeze(rows):
    return tuple(tuple(r) for r in rows)


def shape(A):
    return len(A), len(A[0]) if A else 0


def zeros(r, c, zero):
    return tuple(tuple(zero for _ in range(c)) for _ in range(r))


def identity(n, one, zero):
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_add(A, B):
    return tuple(
        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_sub(A, B):
    return tuple(
        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )


def mat_neg(A):
    return tuple(tuple(-a for a in row) for row in A)


def mat_scale(A, s):
    return tuple(tuple(a * s for a in row) for row in A)


def mat_mul(A, B):
    rA, cA = shape(A)
    rB, cB = shape(B)
    if cA != rB:
        raise ValueError("matmul shape mismatch: %dx%d @ %dx%d" % (rA, cA, rB, cB))
    Bcols = tuple(zip(*B))
    out = []
    for row in A:
        orow = []
        for col in Bcols:
            it = iter(zip(row, col))
            a, b = next(it)
            acc = a * b
            for a, b in it:
                acc = acc + a * b
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_transpose(A):
    return tuple(zip(*A))


def mat_conj(A):
    return tuple(tuple(a.conjugate() for a in row) for row in A)


def mat_eq(A, B) -> bool:
    rA, cA = shape(A)
    rB, cB = shape(B)
    if (rA, cA) != (rB, cB):
        return False
    return all(
        sc_is_zero(a - b) for ra, rb in zip(A, B) for a, b in zip(ra, rb)
    )


def mat_is_zero(A) -> bool:
    return all(sc_is_zero(a) for row in A for a in row)


def sharp(X):
    """Anti-transpose: sharp(X)[i][j] = X[p-1-j][q-1-i] for p x q input.

    Only defined for matrices with 2 rows or 2 columns (the off-diagonal
    blocks of the nilpotent frames); other shapes are a usage error.
    """
    p, q = shape(X)
    if p != 2 and q != 2:
        raise ValueError("sharp requires a 2-row or 2-column matrix, got %dx%d" % (p, q))
    return tuple(
        tuple(X[p - 1 - j][q - 1 - i] for j in range(p)) for i in range(q)
    )


def block_matrix(blocks):
    """Assemble from a 2D grid of matrices with compatible shapes."""
    out = []
    for brow in blocks:
        height = len(brow[0])
        for r in range(height):
            row = []
            for blk in brow:
                row.extend(blk[r])
            out.append(tuple(row))
    return tuple(out)


def det_small(A):
    """Determinant by cofactor expansion, intended for n <= 4 ring scalars."""
    n, c = shape(A)
    if n != c:
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return A[0][0]
    if n == 2:
        return A[0][0] * A[1][1] - A[0][1] * A[1][0]
    acc = None
    for j in range(n):
        if sc_is_zero(A[0][j]):
            continue
        minor = tuple(
            tuple(A[i][k] for k in range(n) if k != j) for i in range(1, n)
        )
        term = A[0][j] * det_small(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return A[0][0] * 0  # a zero of the right scalar type
    return acc


def adjugate_small(A):
    """Adjugate via cofactors: A @ adj(A) = det(A) * I.  Ring scalars, n <= 4."""
    n, c = shape(A)
    if n != c:
        raise ValueError("adjugate of a non-square matrix")
    if n == 1:
        raise ValueError("adjugate_small needs n >= 2; invert 1x1 directly")
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(
                tuple(A[r][k] for k in range(n) if k != i)
                for r in range(n)
                if r != j
            )
            cof = det_small(minor)
            if (i + j) % 2:
                cof = -cof
            out[i][j] = cof
    return freeze(out)


def mat_map(A, fn):
    return tuple(tuple(fn(a) for a in row) for row in A)
