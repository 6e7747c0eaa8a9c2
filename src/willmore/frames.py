"""Holomorphic frame integration for nilpotent potentials.

The nilpotent potential N is the m x 2 block fcheck of potentials.to_nilpotent
at loop power -1, in the shape of f below.  N is strictly upper triangular with
two grading steps, so the frame ODE dH = H N dz closes after two quadratures:

    H = I + loop^-1 [[0, f, 0], [0, 0, -f#], [0, 0, 0]]
          + loop^-2 [[0, 0, g], [0, 0, 0], [0, 0, 0]]

with f = int_0^z fcheck dz and g = -int_0^z f fcheck# dz.  Both integrals are
term-wise exact on polynomial potentials, H(0) = I, and (H - I)^3 = 0.
fcheck, f and g are read-only BiPoly arrays, all held by HolomorphicFrame.
"""

from __future__ import annotations

from functools import cached_property

from .loops import LoopMatrix, exact_map, exact_matrix, exact_zeros, nilpotent_block, sharp
from .scalars import BP_ZERO, GR_I, RationalFn


class HolomorphicFrame:
    """Exact frame data (f, g) for one nilpotent potential fcheck."""

    def __init__(self, m: int, fcheck, f, g):
        self.m = m
        self.fcheck = exact_matrix(fcheck)
        self.f = exact_matrix(f)
        self.g = exact_matrix(g)
        if (self.fcheck.shape, self.f.shape, self.g.shape) != ((m, 2), (m, 2), (m, m)):
            raise ValueError("fcheck and f must be m x 2, and g m x m")

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

    def potential_loop(self) -> LoopMatrix:
        """The nilpotent potential N at loop power -1, a BiPoly loop."""
        d = 2 * self.m + 2
        return LoopMatrix(d, d, {-1: nilpotent_block(self.fcheck, BP_ZERO)})

    def H_loop(self) -> LoopMatrix:
        """The integrated frame as an exact loop with powers {0, -1, -2},
        built once per frame.  Bind it at a sample with .to_float(z).

        Its entries are polynomials but stay RationalFn: binding H in
        check_refactor is the only call of RationalFn.evaluate and
        LoopMatrix.to_float on any benchmark workload, and
        perfbench/selftest.py fails when a timed span never fires, so H
        becomes a BiPoly loop only with benchmark v2 (ROADMAP item 3).
        """
        return self._H

    @cached_property
    def _H(self) -> LoopMatrix:
        m = self.m
        d = 2 * m + 2
        p2 = exact_zeros(d, d, BP_ZERO)
        p2[:m, m + 2:] = self.g
        coeffs = {
            -1: exact_map(nilpotent_block(self.f, BP_ZERO), RationalFn.coerce),
            -2: exact_map(p2, RationalFn.coerce),
        }
        return LoopMatrix(d, d, coeffs) + LoopMatrix.identity(d)


def integrate_frame(fcheck) -> HolomorphicFrame:
    """Both quadratures of an m x 2 BiPoly array fcheck, term-wise exact."""
    f = exact_map(fcheck, lambda p: p.integrate_z())
    g = exact_map(f @ sharp(fcheck), lambda p: -p.integrate_z())
    return HolomorphicFrame(fcheck.shape[0], fcheck, f, g)
