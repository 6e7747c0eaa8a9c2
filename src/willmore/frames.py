"""Holomorphic frame integration for nilpotent potentials.

Because the potential image is strictly upper triangular with two grading
steps, the frame ODE dH = H (loop^-1 P(eta)) dz closes after two quadratures:

    H = I + loop^-1 [[0, f, 0], [0, 0, -f#], [0, 0, 0]]
          + loop^-2 [[0, 0, g], [0, 0, 0], [0, 0, 0]]

with f = int_0^z fcheck dz and g = -int_0^z f fcheck# dz.  Both integrals are
term-wise exact on polynomial potentials, H(0) = I, and (H - I)^3 = 0.
fcheck, f and g are read-only object arrays of BiPoly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .loops import LoopMatrix, exact_map, exact_matrix, exact_zeros, sharp
from .potentials import NilpotentPotential
from .scalars import BP_ZERO, GR_I, RationalFn


class HolomorphicFrame:
    """Exact frame data (f, g) for one nilpotent potential."""

    def __init__(self, m: int, fcheck, f, g):
        self.m = m
        self.fcheck = exact_matrix(fcheck)
        self.f = exact_matrix(f)
        self.g = exact_matrix(g)
        if self.f.shape != (m, 2):
            raise ValueError("f must be m x 2")
        if self.g.shape != (m, m):
            raise ValueError("g must be m x m")

    def fsharp(self):
        return sharp(self.f)

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

        return tuple((exact_map(self.f, d), exact_map(self.g, d)) for d in (d_x, d_y))

    def H_loop(self) -> LoopMatrix:
        """The integrated frame as an exact loop with powers {0, -1, -2},
        built once per frame.  Bind it at a sample with .to_float(z).

        Its entries are polynomials but stay RationalFn: check_refactor binds
        H exactly at every sample, and that binding is the verify path's one
        use of RationalFn.evaluate, which the benchmark's tracer
        (perfbench/tracer.py) times as a span of its own.
        """
        return self._H

    @cached_property
    def _H(self) -> LoopMatrix:
        m = self.m
        d = 2 * m + 2
        zmm = exact_zeros(m, m, BP_ZERO)
        zm2 = exact_zeros(m, 2, BP_ZERO)
        z2m = exact_zeros(2, m, BP_ZERO)
        z22 = exact_zeros(2, 2, BP_ZERO)
        p1 = np.block([[zmm, self.f, zmm], [z2m, z22, -self.fsharp()], [zmm, zm2, zmm]])
        p2 = np.block([[zmm, zm2, self.g], [z2m, z22, z2m], [zmm, zm2, zmm]])
        coeffs = {
            -1: exact_map(p1, RationalFn.coerce),
            -2: exact_map(p2, RationalFn.coerce),
        }
        return LoopMatrix(d, d, coeffs) + LoopMatrix.identity(d)


def integrate_frame(nil: NilpotentPotential) -> HolomorphicFrame:
    """Both quadratures, term-wise exact."""
    f = exact_map(nil.fcheck, lambda p: p.integrate_z())
    g = exact_map(f @ sharp(nil.fcheck), lambda p: -p.integrate_z())
    return HolomorphicFrame(nil.m, nil.fcheck, f, g)
