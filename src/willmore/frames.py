"""Holomorphic frame integration for nilpotent potentials.

Because the potential image is strictly upper triangular with two grading
steps, the frame ODE dH = H (loop^-1 P(eta)) dz closes after two quadratures:

    H = I + loop^-1 [[0, f, 0], [0, 0, -f#], [0, 0, 0]]
          + loop^-2 [[0, 0, g], [0, 0, 0], [0, 0, 0]]

with f = int_0^z fcheck dz and g = -int_0^z f fcheck# dz.  Both integrals are
term-wise exact on polynomial potentials, H(0) = I, and (H - I)^3 = 0.
"""

from __future__ import annotations

from functools import cached_property

from . import matrices as mx
from .loops import LoopMatrix
from .potentials import NilpotentPotential
from .scalars import BP_ZERO, GR_I, RationalFn


class HolomorphicFrame:
    """Exact frame data (f, g) for one nilpotent potential."""

    def __init__(self, m: int, fcheck, f, g):
        self.m = m
        self.fcheck = mx.freeze(fcheck)
        self.f = mx.freeze(f)
        self.g = mx.freeze(g)
        if mx.shape(self.f) != (m, 2):
            raise ValueError("f must be m x 2")
        if mx.shape(self.g) != (m, m):
            raise ValueError("g must be m x m")

    def fsharp(self):
        return mx.sharp(self.f)

    @cached_property
    def axis_derivatives(self):
        """((f_x, g_x), (f_y, g_y)): exact derivatives along Re z and Im z.

        Built once per frame from d/dz and d/dzbar.  Real directions commute
        with complex conjugation, which d/dz does not.
        """
        def d_x(p):
            return p.d_dz() + p.d_dzbar()

        def d_y(p):
            return (p.d_dz() - p.d_dzbar()) * GR_I

        return tuple((mx.mat_map(self.f, d), mx.mat_map(self.g, d)) for d in (d_x, d_y))

    def H_loop(self) -> LoopMatrix:
        """The integrated frame as an exact loop with powers {0, -1, -2}.

        Bind it at a sample with .to_float(z).
        """
        m = self.m
        d = 2 * m + 2
        zmm = mx.zeros(m, m, BP_ZERO)
        zm2 = mx.zeros(m, 2, BP_ZERO)
        z2m = mx.zeros(2, m, BP_ZERO)
        p1 = mx.block_matrix([
            [zmm, self.f, zmm],
            [z2m, mx.zeros(2, 2, BP_ZERO), mx.mat_neg(self.fsharp())],
            [zmm, zm2, zmm],
        ])
        p2 = mx.block_matrix([
            [zmm, zm2, self.g],
            [z2m, mx.zeros(2, 2, BP_ZERO), z2m],
            [zmm, zm2, zmm],
        ])
        coeffs = {
            -1: mx.mat_map(p1, RationalFn.coerce),
            -2: mx.mat_map(p2, RationalFn.coerce),
        }
        return LoopMatrix(d, d, coeffs) + LoopMatrix.identity(d)


def integrate_frame(nil: NilpotentPotential) -> HolomorphicFrame:
    """Both quadratures, term-wise exact."""
    f = mx.mat_map(nil.fcheck, lambda p: p.integrate_z())
    prod = mx.mat_mul(f, mx.sharp(nil.fcheck))
    g = mx.mat_map(prod, lambda p: -p.integrate_z())
    return HolomorphicFrame(nil.m, nil.fcheck, f, g)
