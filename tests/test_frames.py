"""Holomorphic frame integration: the two quadratures and their closure."""

import random
from fractions import Fraction

import numpy as np
import pytest

from willmore.frames import integrate_frame
from willmore.loops import LoopMatrix, sharp
from willmore.potentials import NormalizedPotential, builtin_potential, to_nilpotent
from willmore.scalars import BiPoly, GaussianRational


def _random_potential(rng, m, max_deg=3):
    coeff_pool = [
        GaussianRational(1), GaussianRational(-1),
        GaussianRational(0, 1), GaussianRational(0, -1),
        GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-1, 2)),
    ]

    def poly():
        terms = {}
        for k in range(rng.randint(0, max_deg) + 1):
            if rng.random() < 0.6:
                terms[(k, 0)] = rng.choice(coeff_pool)
        return BiPoly(terms)

    return NormalizedPotential(m, [poly() for _ in range(m)],
                               [poly() for _ in range(m)])


def _frame_cases():
    rng = random.Random(2024)
    cases = [builtin_potential(1), builtin_potential(2)]
    cases += [_random_potential(rng, m) for m in (1, 2, 3) for _ in range(2)]
    return cases


@pytest.mark.parametrize("pot", _frame_cases())
def test_frame_satisfies_its_defining_equation(pot):
    # dH/dz must equal H times the potential loop, exactly
    hf = integrate_frame(to_nilpotent(pot))
    H = hf.H_loop()
    rhs = H @ hf.potential_loop()
    assert (H.d_dz() - rhs).is_zero()


@pytest.mark.parametrize("pot", _frame_cases())
def test_frame_is_unipotent_and_based(pot):
    H = integrate_frame(to_nilpotent(pot)).H_loop()
    d = 2 * pot.m + 2
    N = H - LoopMatrix.identity(d)
    assert (N @ N @ N).is_zero()
    # H(0) = I: every nonconstant coefficient entry vanishes at the origin
    zero = GaussianRational(0)
    for k, mat in N.coeffs.items():
        for row in mat:
            for e in row:
                assert e.evaluate_exact(zero).is_zero()


def test_frame_is_z_holomorphic():
    hf = integrate_frame(to_nilpotent(builtin_potential(1)))
    H = hf.H_loop()
    assert H.d_dzbar().is_zero()


def test_quadratures_recover_known_example():
    # constant fcheck integrates to z * fcheck and the second quadrature
    # picks up the -z^2/2 contraction
    pot = builtin_potential(2)
    fcheck = to_nilpotent(pot)
    hf = integrate_frame(fcheck)
    z = BiPoly.var_z()
    for i in range(hf.m):
        for j in range(2):
            assert (hf.f[i][j] - z * fcheck[i][j]).is_zero()
    prod = fcheck @ sharp(fcheck)
    for i in range(hf.m):
        for j in range(hf.m):
            want = (z * z * prod[i][j]).scale(Fraction(-1, 2))
            assert (hf.g[i][j] - want).is_zero()


def test_frame_shapes_validated():
    from willmore.frames import HolomorphicFrame

    hf = integrate_frame(to_nilpotent(builtin_potential(2)))
    with pytest.raises(ValueError):
        HolomorphicFrame(3, hf.fcheck, hf.f, hf.g)
    # an m x 3 fcheck, with f and g of the right shapes
    wide = np.concatenate([hf.fcheck, hf.fcheck[:, :1]], axis=1)
    with pytest.raises(ValueError):
        HolomorphicFrame(hf.m, wide, hf.f, hf.g)
    with pytest.raises(ValueError):
        integrate_frame(wide)
