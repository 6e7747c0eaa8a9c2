"""Acceptance gate: one test per shipped acceptance criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible with -s or
in captured output) and enforces the stated tolerances and runtime budgets.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

import willmore.matrices as mx
from willmore.frames import integrate_frame
from willmore.groups import get_context
from willmore.iwasawa import assemble_frame, solve_iwasawa_exact, solve_iwasawa_float
from willmore.loops import LoopMatrix
from willmore.potentials import (
    NormalizedPotential,
    builtin_potential,
    to_nilpotent,
    wu_normalized_potential,
)
from willmore.scalars import BiPoly, GaussianRational, RationalFn
from willmore.surfaces import (
    branch_analysis,
    degeneracy_scan,
    extract_pair,
    induced_metric,
    isotropy_check,
    lift_columns_float,
    reference_lift_eval,
    reference_metric,
)
from willmore.verify import run_suite


@contextmanager
def criterion(n, label):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL (%s)" % (n, label))
        raise
    print("criterion %d: PASS (%s, %.1fs)" % (n, label, time.monotonic() - t0))


def _poly(terms):
    """BiPoly from {(z_deg, zbar_deg): rational coefficient}."""
    return BiPoly({k: GaussianRational(Fraction(v)) for k, v in terms.items()})


def _sample_points(count, radius, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            pts.append(z)
    return pts


def _projective_distance(u, v):
    a = np.asarray(u) / np.linalg.norm(u)
    b = np.asarray(v) / np.linalg.norm(v)
    return float(min(np.abs(a - b).max(), np.abs(a + b).max()))


def _float_sweep(example_id, hf):
    lambdas = (1.0, 1j, complex(math.cos(math.pi / 4), math.sin(math.pi / 4)))
    pts = _sample_points(25, 0.9, seed=17 + example_id)
    worst = 0.0
    for lam in lambdas:
        ref = reference_lift_eval(example_id, lam)
        for z in pts:
            Y, Yhat = lift_columns_float(solve_iwasawa_float(hf, z), lam)
            Yr, Yhr = ref(z)
            worst = max(worst, _projective_distance(Y, Yr))
            worst = max(worst, _projective_distance(Yhat, Yhr))
    return worst


def _check_exact_intermediates(example_id, hf, expected):
    w = solve_iwasawa_exact(hf)
    for name in ("f", "g"):
        got = getattr(hf, name)
        want = expected[name]
        for i, row in enumerate(want):
            for j, p in enumerate(row):
                assert (got[i][j] - p).is_zero(), (example_id, name, i, j)
    for i, row in enumerate(expected["rho"]):
        for j, p in enumerate(row):
            assert w.rho[i][j] == RationalFn(p), (example_id, "rho", i, j)
    sigma = expected["sigma"]
    for i, row in enumerate(expected["usharp_num"]):
        for j, p in enumerate(row):
            assert w.usharp[i][j] == RationalFn(p, sigma), (
                example_id, "usharp", i, j)
    assert w.q_is_identity
    ident = mx.identity(2, RationalFn(BiPoly.const(1)), RationalFn(BiPoly.zero()))
    assert mx.mat_eq(w.q, ident)
    assert w.det_rho == RationalFn(sigma * sigma)


def _example_1_expected():
    f = [
        [_poly({(1, 0): 1}), BiPoly.zero()],
        [BiPoly.zero(), _poly({(1, 0): 1})],
        [_poly({(2, 0): 1}), BiPoly.zero()],
    ]
    g = [
        [BiPoly.zero(), _poly({(2, 0): Fraction(-1, 2)}), BiPoly.zero()],
        [_poly({(3, 0): Fraction(-2, 3)}), BiPoly.zero(),
         _poly({(2, 0): Fraction(-1, 2)})],
        [BiPoly.zero(), _poly({(3, 0): Fraction(-1, 3)}), BiPoly.zero()],
    ]
    rho = [
        [_poly({(0, 0): 1, (3, 3): Fraction(4, 9)}), _poly({(1, 2): 1}),
         _poly({(2, 3): Fraction(1, 3)})],
        [_poly({(2, 1): 1}),
         _poly({(0, 0): 1, (2, 2): Fraction(1, 4), (3, 3): Fraction(1, 9)}),
         _poly({(1, 1): 1})],
        [_poly({(3, 2): Fraction(1, 3)}), _poly({(1, 1): 1}),
         _poly({(0, 0): 1, (2, 2): Fraction(1, 4)})],
    ]
    usharp_num = [
        [_poly({(3, 1): Fraction(-1, 3)}), _poly({(1, 0): 1}),
         _poly({(2, 1): Fraction(-1, 2)})],
        [_poly({(2, 0): 1, (4, 2): Fraction(-1, 12)}),
         _poly({(2, 1): Fraction(-1, 2), (3, 2): Fraction(-2, 3)}),
         _poly({(1, 0): 1, (4, 3): Fraction(1, 9)})],
    ]
    sigma = _poly({(0, 0): 1, (2, 2): Fraction(-1, 4), (3, 3): Fraction(-2, 9)})
    return {"f": f, "g": g, "rho": rho, "usharp_num": usharp_num, "sigma": sigma}


def _example_2_expected():
    f = [
        [BiPoly.zero(), _poly({(1, 0): 1})],
        [_poly({(1, 0): 1}), BiPoly.zero()],
    ]
    g = [
        [_poly({(2, 0): Fraction(-1, 2)}), BiPoly.zero()],
        [BiPoly.zero(), _poly({(2, 0): Fraction(-1, 2)})],
    ]
    rho = [
        [_poly({(0, 0): 1, (2, 2): Fraction(1, 4)}), _poly({(1, 1): 1})],
        [_poly({(1, 1): 1}), _poly({(0, 0): 1, (2, 2): Fraction(1, 4)})],
    ]
    usharp_num = [
        [_poly({(2, 1): Fraction(-1, 2)}), _poly({(1, 0): 1})],
        [_poly({(1, 0): 1}), _poly({(2, 1): Fraction(-1, 2)})],
    ]
    sigma = _poly({(0, 0): 1, (2, 2): Fraction(-1, 4)})
    return {"f": f, "g": g, "rho": rho, "usharp_num": usharp_num, "sigma": sigma}


def test_criterion_1_example_1_reproduction():
    with criterion(1, "example 1 reproduction under 30 s"):
        t0 = time.monotonic()
        hf = integrate_frame(to_nilpotent(builtin_potential(1)))
        worst = _float_sweep(1, hf)
        assert worst < 1e-9, worst
        _check_exact_intermediates(1, hf, _example_1_expected())
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, "criterion 1 exceeded its budget: %.1fs" % elapsed


def test_criterion_2_example_2_reproduction():
    with criterion(2, "example 2 reproduction"):
        hf = integrate_frame(to_nilpotent(builtin_potential(2)))
        worst = _float_sweep(2, hf)
        assert worst < 1e-9, worst
        _check_exact_intermediates(2, hf, _example_2_expected())


def test_criterion_3_metric_identities(pair1, pair2):
    with criterion(3, "conformal factor identities"):
        assert induced_metric(pair1, "Y") == reference_metric(1, "Y")
        assert induced_metric(pair1, "Yhat") == reference_metric(1, "Yhat")
        assert induced_metric(pair2, "Y") == reference_metric(2, "Y")
        # spot values at the origin are exactly 2 on the float evaluation path
        for example_id, which in ((1, "Y"), (1, "Yhat"), (2, "Y")):
            val = reference_metric(example_id, which).evaluate(0.0)
            assert val == 2.0 + 0.0j, (example_id, which, val)
        for pair in (pair1, pair2):
            val = induced_metric(pair, "Y").evaluate(0.0)
            assert val == 2.0 + 0.0j


def test_criterion_4_branch_behavior_at_infinity(pair1):
    with criterion(4, "branch limits at the far point"):
        rep = branch_analysis(pair1)
        assert rep["y_limit"] == Fraction(0)
        assert rep["yhat_limit"] == Fraction(32)


def test_criterion_5_singular_loci():
    with criterion(5, "degenerate radii against an independent root-finder"):
        hf1 = integrate_frame(to_nilpotent(builtin_potential(1)))
        hf2 = integrate_frame(to_nilpotent(builtin_potential(2)))
        radii2 = degeneracy_scan(hf2, r_range=(0.5, 2.0))
        assert len(radii2) == 1
        assert abs(radii2[0] - math.sqrt(2)) < 1e-10, radii2

        radii1 = degeneracy_scan(hf1, r_range=(0.5, 2.0))
        assert len(radii1) == 1
        oracle = brentq(lambda r: 1 - r ** 4 / 4 - 2 * r ** 6 / 9,
                        0.5, 2.0, xtol=1e-14)
        assert abs(radii1[0] - oracle) < 1e-10, (radii1, oracle)


def _random_potentials(count=20):
    rng = random.Random(61)
    pool = [
        GaussianRational(1), GaussianRational(-1),
        GaussianRational(0, 1), GaussianRational(0, -1),
        GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-1, 2)),
    ]

    def poly():
        terms = {}
        for k in range(4):
            if rng.random() < 0.5:
                terms[(k, 0)] = rng.choice(pool)
        return BiPoly(terms)

    out = []
    while len(out) < count:
        m = rng.choice((2, 3))
        pot = NormalizedPotential(m, [poly() for _ in range(m)],
                                  [poly() for _ in range(m)])
        out.append(pot)
    return out


def test_criterion_6_invariant_suite():
    with criterion(6, "invariant suite on examples and 20 random potentials"):
        t0 = time.monotonic()
        required = (
            "lift-isotropic", "lift-pairing", "conformality", "isotropy-order-m",
            "lambda-reality", "membership-G-form", "membership-real-form",
            "iwasawa-1B", "iwasawa-q-offdiag", "iwasawa-q-unit",
            "iwasawa-q-conj-pair", "iwasawa-a-factor", "iwasawa-rho-factor",
            "mc-flatness",
        )
        cases = [builtin_potential(1), builtin_potential(2)]
        cases += _random_potentials(20)
        for k, pot in enumerate(cases):
            rep = run_suite(pot)
            names = {c["name"]: c for c in rep.checks}
            for name in required:
                assert names[name]["passed"], (k, name, names[name])
            assert rep.passed, (k, [c for c in rep.checks if not c["passed"]])
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, "criterion 6 exceeded its budget: %.1fs" % elapsed


def test_criterion_7_isometry_oracle():
    with criterion(7, "basis isometry against the indexwise oracle"):
        rng = random.Random(29)

        def rand_entry():
            return RationalFn(BiPoly.const(GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )))

        def rand_loop(d):
            coeffs = {}
            for power in (-1, 0, 1):
                if rng.random() < 0.75:
                    coeffs[power] = [[rand_entry() for _ in range(d)]
                                     for _ in range(d)]
            if not coeffs:
                coeffs[0] = [[rand_entry() for _ in range(d)] for _ in range(d)]
            return LoopMatrix(d, d, coeffs)

        total = 0
        for m in (2, 3, 4):
            ctx = get_context(m)
            mats = [rand_loop(ctx.dim) for _ in range(34)]
            for A in mats:
                assert (ctx.iso_P(A) - ctx.iso_P_indexwise(A)).is_zero()
            total += len(mats)
            A, B = mats[0], mats[1]
            assert (ctx.iso_P(A @ B) - ctx.iso_P(A) @ ctx.iso_P(B)).is_zero()
        assert total >= 100


def test_criterion_8_uniton_window():
    with criterion(8, "assembled frames stay in loop powers [-2, 2]"):
        cases = [builtin_potential(1), builtin_potential(2)]
        cases += _random_potentials(6)
        for pot in cases:
            hf = integrate_frame(to_nilpotent(pot))
            for z in (0.31 + 0.12j, -0.44 + 0.27j, 0.18 - 0.52j):
                frame = assemble_frame(hf, solve_iwasawa_float(hf, z))
                lo, hi = frame.F.window()
                assert -2 <= lo <= hi <= 2, (lo, hi)


def test_criterion_9_framed_potential_constructor():
    with criterion(9, "framing rules of the potential constructor"):
        rng = np.random.default_rng(83)
        d1 = np.zeros((6, 6), dtype=complex)
        d1[0, 3] = 1.0 - 0.5j
        d1[1, 4] = 0.75j
        d1[2, 5] = -0.25
        samples = [0.37 + 0.21j, -0.6 + 0.45j, 1.2 - 0.8j]

        # a vanishing framing reproduces the payload exactly
        for out in (wu_normalized_potential(None, d1, samples),
                    wu_normalized_potential(np.zeros((6, 6)), d1, samples)):
            for got in out:
                assert np.array_equal(got, d1)

        # a constant framing matches the matrix-exponential closed form
        d0 = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) * 0.25
        got = wu_normalized_potential(d0, d1, samples)
        for z, g in zip(samples, got):
            F0 = expm(z * d0)
            want = F0 @ d1 @ np.linalg.inv(F0)
            assert np.abs(g - want).max() < 1e-10
