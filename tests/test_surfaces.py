"""Surface extraction: light-cone pairings, metrics, isotropy, branch
behavior, and the degeneracy loci."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from willmore.errors import (
    ExactPathRequired,
    FirstCoordinateVanishes,
    ResidualTooLarge,
    SingularLocus,
)
from willmore.frames import integrate_frame
from willmore.iwasawa import solve_iwasawa_exact, solve_iwasawa_float
from willmore.potentials import builtin_potential, to_nilpotent
from willmore.scalars import GR_I, BiPoly, GaussianRational, RationalFn
from willmore.surfaces import (
    SurfacePair,
    _gram_det_float,
    branch_analysis,
    degeneracy_scan,
    extract_pair,
    induced_metric,
    isotropy_check,
    lift_columns_float,
    mink_pair_np,
    mink_pair_rf,
    project_to_sphere,
    reference_lift_exact,
    reference_lift_eval,
    reference_metric,
    reference_singular_radius,
)
from willmore.verify import _fd_offsets, _fd_z_derivative, _isotropy_fd

from conftest import float_metric, float_values, isotropy_lifts, quotient_rule_metric

RF_ZERO = RationalFn(BiPoly.zero())


# -- exact light-cone relations -----------------------------------------------


def test_reduced_lifts_keep_their_representation(frame1, frame2):
    # the num/den terms of every reduced Y and Yhat component of both
    # examples at lambda = 1 and i, in dict order, which RationalFn's content
    # strip folds in
    def terms(p):
        return "+".join("%d,%d:%s,%s" % (a, b, c.re, c.im) for (a, b), c in p.terms.items())

    digest = hashlib.sha256()
    for frame in (frame1, frame2):
        for lam in (1, GR_I):
            pair = extract_pair(frame, lam)
            for c in pair.Y + pair.Yhat:
                digest.update(("(%s)/(%s)" % (terms(c.num), terms(c.den))).encode())
    assert digest.hexdigest() == (
        "e09671a52f0449197bf160cb8893527ba31fcc7ce3a74a62403e7f908b862224")


@pytest.mark.parametrize("which_pair", ["pair1", "pair2"])
def test_exact_lifts_are_null_and_dual(which_pair, request):
    pair = request.getfixturevalue(which_pair)
    assert mink_pair_rf(pair.Y, pair.Y).is_zero()
    assert mink_pair_rf(pair.Yhat, pair.Yhat).is_zero()
    # stored components carry twice the honest normalization <Y, Yhat> = -1
    cross = mink_pair_rf(pair.Y, pair.Yhat)
    assert cross == RationalFn(BiPoly.const(-2))


@pytest.mark.parametrize("which_pair", ["pair1", "pair2"])
@pytest.mark.parametrize("which", ["Y", "Yhat"])
def test_exact_projection_lands_on_the_sphere(which_pair, which, request):
    pair = request.getfixturevalue(which_pair)
    y = project_to_sphere(pair, which)
    acc = RF_ZERO
    for c in y:
        acc = acc + c * c
    assert acc == RationalFn(BiPoly.const(1))


@pytest.mark.parametrize("which_pair", ["pair1", "pair2"])
def test_exact_total_isotropy(which_pair, request):
    pair = request.getfixturevalue(which_pair)
    for which in ("Y", "Yhat"):
        rep = isotropy_check(pair, which)
        assert rep["max_residual"] == 0.0, rep
        assert rep["max_order"] == pair.m


def test_exact_isotropy_reports_a_nonzero_pairing(pair1):
    # z added to one component breaks <Y_z, Y_z> = 0, and a pairing that is
    # not the zero polynomial reads inf
    Y = list(pair1.Y)
    Y[2] = Y[2] + RationalFn(BiPoly.var_z())
    bent = SurfacePair(pair1.m, pair1.lam, pair1.hf, Y=tuple(Y), Yhat=pair1.Yhat)
    dY = [c.d_dz() for c in Y]
    assert not mink_pair_rf(dY, dY).is_zero()
    got = isotropy_check(bent, "Y", max_order=1)
    assert got["pairs"] == {"(1,1)": float("inf")}
    assert got["max_residual"] == float("inf")


def _per_sample_isotropy_pairs(pair, which, samples, step):
    """The float isotropy pairings at step, one sample at a time: the loop
    the float isotropy check ran before its arithmetic was stacked."""
    idx = ("Y", "Yhat").index(which)
    max_order = pair.m
    offsets = _fd_offsets(max_order)
    lifts = isotropy_lifts(pair, samples)(step)
    assert lifts[2] == [None] * len(samples) * len(offsets)
    grid = lifts[idx].reshape(len(samples), len(offsets), -1)
    out = {}
    for vals in grid:
        values = dict(zip(offsets, vals))
        derivs = [_fd_z_derivative(values, j, step) for j in range(max_order + 1)]
        norms = [max(1.0, float(np.linalg.norm(v))) for v in derivs]
        for j in range(1, max_order + 1):
            for l in range(j, max_order + 1):
                val = abs(mink_pair_np(derivs[j], derivs[l])) / (norms[j] * norms[l])
                key = "(%d,%d)" % (j, l)
                out[key] = max(out.get(key, 0.0), float(val))
    return out


def _verify_fd_samples(hf):
    """The fd samples of run_suite's default plan."""
    from willmore.verify import _draw_samples, _normalize_plan

    cfg = _normalize_plan(None)
    radii = degeneracy_scan(hf, r_range=(1e-3, max(2.5, 1.5 * cfg["radius"])))
    return _draw_samples(cfg, radii, hf)[0][:cfg["fd_samples"]]


@pytest.mark.parametrize("example", [1, 2])
def test_stacked_isotropy_check_is_bitwise_the_per_sample_loop(example, request):
    # On the verify fd samples, and, on example 1, on single samples 0.02 and
    # 0.005 inside the degeneracy circle, where the check refines its step to
    # 1e-3 and 5e-4: every pairing at the step the check settles on has the
    # bits of the per-sample loop, for both lifts and both lam.
    from willmore.groups import LAMBDAS

    hf = request.getfixturevalue("hf%d" % example)
    cases = [(_verify_fd_samples(hf), 2e-3)]
    if example == 1:
        r0 = reference_singular_radius(1)
        cases += [([complex(r0 - 0.02)], 1e-3), ([complex(r0 - 0.005)], 5e-4)]
    for samples, step in cases:
        for lam in LAMBDAS:
            pair = SurfacePair(hf.m, lam, hf)
            for which in ("Y", "Yhat"):
                rep = _isotropy_fd(pair, which, samples, isotropy_lifts(pair, samples))
                assert rep["step"] == step, (samples, lam, which)
                want = _per_sample_isotropy_pairs(pair, which, samples, step)
                assert list(rep["pairs"]) == list(want)
                assert [v.hex() for v in rep["pairs"].values()] == [
                    v.hex() for v in want.values()], (samples, lam, which)
                assert rep["max_residual"] == max(want.values())


def test_projective_match_with_closed_form_exact(pair1, pair2):
    # cross-minors Y_i R_j - Y_j R_i all vanish identically, which is
    # projective equality as rational functions
    for pair, example_id in ((pair1, 1), (pair2, 2)):
        ref = reference_lift_exact(example_id, 1)
        for got, want in ((pair.Y, ref["Y"]), (pair.Yhat, ref["Yhat"])):
            n = len(got)
            for i in range(n):
                for j in range(i + 1, n):
                    minor = got[i] * want[j] - got[j] * want[i]
                    assert minor.is_zero(), (example_id, i, j)


# -- metrics -------------------------------------------------------------------


def test_metric_identities_exact(pair1, pair2):
    assert induced_metric(pair1, "Y") == reference_metric(1, "Y")
    assert induced_metric(pair1, "Yhat") == reference_metric(1, "Yhat")
    assert induced_metric(pair2, "Y") == reference_metric(2, "Y")


def test_exact_metric_is_computed_once_per_pair_and_lift(pair1, monkeypatch):
    # the pair keeps each conformal factor, so branch_analysis reuses the
    # metrics computed before it instead of reading the lifts' numerators
    # again
    import willmore.surfaces as surfaces

    metric_y = induced_metric(pair1, "Y")
    assert induced_metric(pair1, "Y") is metric_y
    assert induced_metric(pair1, "y") is metric_y
    induced_metric(pair1, "Yhat")
    calls = []
    common_numerators = surfaces._common_numerators

    def counted(comps):
        calls.append(len(comps))
        return common_numerators(comps)

    monkeypatch.setattr(surfaces, "_common_numerators", counted)
    rep = branch_analysis(pair1)
    assert calls == []
    assert rep["y_limit"] == 0 and rep["yhat_limit"] == 32


@pytest.mark.parametrize("example_id,lam", [(1, 1), (1, -1), (1, GR_I), (2, 1)],
                         ids=["ex1-1", "ex1-minus1", "ex1-i", "ex2-1"])
def test_exact_metric_from_numerators_equals_the_quotient_rule(example_id, lam, request):
    # <P_z, P_zbar> / P[0]^2 equals the sum of c_z c_zbar over the projected
    # components, and the printed factor where there is one, in far fewer
    # terms; the branch limits read off it stay 0/32 and 8/8
    pair = extract_pair(request.getfixturevalue("frame%d" % example_id), lam)
    degrees = {(1, "Y"): ((3, 3), (6, 6))}
    for which in ("Y", "Yhat"):
        metric = induced_metric(pair, which)
        assert metric == quotient_rule_metric(pair, which), which
        if (example_id, which) != (2, "Yhat"):
            assert metric == reference_metric(example_id, which), which
        want = degrees.get((example_id, which), ((6, 6), (8, 8)))
        assert (metric.num.degrees(), metric.den.degrees()) == want, which
    rep = branch_analysis(pair)
    assert (rep["y_limit"], rep["yhat_limit"]) == {1: (0, 32), 2: (8, 8)}[example_id]


def _with_lift(pair, which, comps):
    """A copy of an exact pair with one lift replaced."""
    Y, Yhat = (comps, pair.Yhat) if which == "Y" else (pair.Y, comps)
    return SurfacePair(pair.m, pair.lam, pair.hf, Y=tuple(Y), Yhat=tuple(Yhat))


@pytest.mark.parametrize("which", ["Y", "Yhat"])
def test_exact_metric_refuses_a_lift_that_is_not_null(pair1, which):
    # z added to one component, as in the isotropy test above, breaks
    # <P, P> = 0, without which <P_z, P_zbar> / P[0]^2 is not |y_z|^2
    comps = list((pair1.Y, pair1.Yhat)[("Y", "Yhat").index(which)])
    comps[2] = comps[2] + RationalFn(BiPoly.var_z())
    bent = _with_lift(pair1, which, comps)
    with pytest.raises(ResidualTooLarge, match="not null"):
        induced_metric(bent, which)
    assert bent.metrics == {}


@pytest.mark.parametrize("which", ["Y", "Yhat"])
def test_exact_metric_refuses_a_zero_first_coordinate(pair1, which):
    comps = (pair1.Y, pair1.Yhat)[("Y", "Yhat").index(which)]
    zeroed = _with_lift(pair1, which, (RF_ZERO,) + comps[1:])
    with pytest.raises(FirstCoordinateVanishes):
        induced_metric(zeroed, which)
    assert zeroed.metrics == {}


def test_metric_float_value_at_origin(hf1, hf2):
    # both conformal factors evaluate to exactly 2 at z = 0
    for hf in (hf1, hf2):
        pair = SurfacePair(hf.m, 1.0, hf)
        got = float_metric(pair, "Y", np.array([0.0]))[0][0]
        assert got == pytest.approx(2.0, abs=1e-8)
    for example_id in (1, 2):
        exact_value = reference_metric(example_id, "Y").evaluate(0.0)
        assert exact_value.real == 2.0 and exact_value.imag == 0.0


def test_float_metric_matches_exact_metric(pair2, hf2):
    fpair = SurfacePair(hf2.m, 1.0, hf2)
    emetric = induced_metric(pair2, "Y")
    for z in (0.3 + 0.2j, -0.5 + 0.1j):
        got = float_metric(fpair, "Y", np.array([z]))[0][0]
        assert abs(got - emetric.evaluate(z).real) < 1e-6


@pytest.mark.parametrize("example_id", [1, 2])
def test_stacked_metric_is_bitwise_the_one_point_code(example_id):
    # each sample's factor has the bits of a stack of one
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    pair = SurfacePair(hf.m, np.exp(0.9j), hf)
    zs = np.array([0j, 0.31 + 0.17j, -0.6 + 0.2j, -0.25 - 0.7j, 0.9 + 0.05j])
    for which in ("Y", "Yhat"):
        got, errors = float_metric(pair, which, zs)
        assert errors == [None] * len(zs)
        want = np.array([float_metric(pair, which, zs[k:k + 1])[0][0] for k in range(len(zs))])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), which


# -- behavior at infinity ------------------------------------------------------


def test_branch_limits_at_the_far_point(pair1):
    rep = branch_analysis(pair1)
    assert rep["y_limit"] == Fraction(0)
    assert rep["y_is_branch_point"]
    assert rep["yhat_limit"] == Fraction(32)
    assert not rep["yhat_is_branch_point"]


def test_branch_limits_of_example_2(frame2):
    # both factors tend to 8 at infinity: g(1/w) falls off like |w|^4, so a
    # chart factor |dz/dw|^2 taken as 1/|w|^2 would give 0 instead
    for lam in (1, 1j):
        rep = branch_analysis(extract_pair(frame2, lam))
        assert rep["y_limit"] == rep["yhat_limit"] == Fraction(8), lam
        assert not rep["y_is_branch_point"] and not rep["yhat_is_branch_point"]


def test_branch_analysis_requires_exact_backend(hf2):
    # so do project_to_sphere and isotropy_check: a float pair is projected
    # by _project and checked for isotropy by verify._isotropy_fd
    pair = SurfacePair(hf2.m, 1.0, hf2)
    for call in (branch_analysis, project_to_sphere, isotropy_check):
        with pytest.raises(ExactPathRequired):
            call(pair)


# -- degeneracy loci -----------------------------------------------------------


def test_singular_radius_example_2(hf2):
    radii = degeneracy_scan(hf2, r_range=(0.5, 2.0))
    assert len(radii) == 1
    assert abs(radii[0] - 2 ** 0.5) < 1e-10


def test_singular_radius_example_1_vs_independent_rootfinder(hf1):
    radii = degeneracy_scan(hf1, r_range=(0.5, 2.0))
    assert len(radii) == 1
    oracle = brentq(
        lambda r: 1 - r ** 4 / 4 - 2 * r ** 6 / 9, 0.5, 2.0, xtol=1e-14
    )
    assert abs(radii[0] - oracle) < 1e-10
    assert abs(reference_singular_radius(1) - oracle) < 1e-10


def test_stacked_gram_determinant_is_bitwise_the_scalar_one(hf1):
    # degeneracy_scan takes the radial derivative on its grid from one stack
    # of determinants and bisects on stacks of its brackets, so a sample must
    # round alike in any stack
    direction = complex(np.exp(0.9j))
    rs = np.linspace(1e-3, 2.5, 200)
    for r in (rs + 1e-6, np.maximum(rs - 1e-6, 0.0)):
        stacked = _gram_det_float(hf1, r * direction)
        scalar = np.array([_gram_det_float(hf1, np.array([float(x) * direction]))[0]
                           for x in r])
        assert np.array_equal(stacked.view(np.uint64), scalar.view(np.uint64))


@pytest.mark.parametrize("call", [
    project_to_sphere,
    induced_metric,
    isotropy_check,
], ids=["project_to_sphere", "induced_metric", "isotropy_check"])
def test_float_pair_rejects_an_unknown_lift_name(hf2, call):
    # an exact pair raises in the same words
    with pytest.raises(ValueError, match="which must be 'Y' or 'Yhat'"):
        call(SurfacePair(hf2.m, 1.0, hf2), "bogus")


def test_degeneracy_scan_is_rotation_invariant(hf2):
    for theta in (0.0, 0.9, 2.2):
        radii = degeneracy_scan(hf2, theta=theta, r_range=(1.0, 2.0))
        assert len(radii) == 1
        assert abs(radii[0] - 2 ** 0.5) < 1e-9


# -- float lifts ---------------------------------------------------------------


def test_float_lift_matches_reference_eval(hf1):
    ref = reference_lift_eval(1, 1.0)
    for z in (0.2 + 0.3j, -0.4 + 0.5j):
        Y, Yhat = (c[0] for c in lift_columns_float(solve_iwasawa_float(hf1, np.array([z])), 1.0))
        Yr, Yhr = ref(z)
        for got, want in ((Y, Yr), (Yhat, Yhr)):
            a = np.asarray(got) / np.linalg.norm(got)
            b = np.asarray(want) / np.linalg.norm(want)
            d = min(np.abs(a - b).max(), np.abs(a + b).max())
            assert d < 1e-9, (z, d)


def test_lambda_reality_of_unit_circle_members(hf2):
    # at any |lambda| = 1 the lift is projectively real: the complex column
    # and its conjugate span the same line
    lam = np.exp(0.37j)
    for z in (0.25 + 0.15j, -0.3 - 0.45j):
        Y, Yhat = (c[0] for c in lift_columns_float(solve_iwasawa_float(hf2, np.array([z])), lam))
        for col in (Y, Yhat):
            c = np.conj(col)
            minors = np.abs(np.outer(c, col) - np.outer(col, c)).max()
            assert minors < 1e-9 * max(1.0, np.abs(col).max()) ** 2


def test_reference_eval_raises_on_the_degenerate_circle():
    ref = reference_lift_eval(2, 1.0)
    with pytest.raises(SingularLocus):
        ref(complex(2 ** 0.5, 0.0))


def _reference_lift_in_python(example_id, lam, z):
    """The closed forms of reference_lift_eval at one z in Python's complex
    arithmetic, as the one-point evaluator computed them before it took
    stacks: (Y, Yhat), or None where |sigma| < 1e-12."""
    lam = complex(lam)
    li = 1.0 / lam
    z = complex(z)
    zb = z.conjugate()
    r2 = (z * zb).real

    def d(p):
        return li * z**p - lam * zb**p

    def s(p):
        return li * z**p + lam * zb**p

    if example_id == 1:
        sigma = 1 - r2**2 / 4 - 2 * r2**3 / 9
        Y = np.array([
            -1 - r2 - r2**2 / 4 - r2**3 / 9,
            1 - r2 + r2**2 / 4 + r2**3 / 9,
            1j * (r2 / 2) * d(1),
            -(r2 / 2) * s(1),
            -1j * d(1),
            s(1),
            1j * (r2 / 3) * d(2),
            -(r2 / 3) * s(2),
        ])
        Yhat = np.array([
            1 + r2 + 5 * r2**2 / 4 + 4 * r2**3 / 9 + r2**4 / 36,
            1 - r2 - 3 * r2**2 / 4 + 4 * r2**3 / 9 - r2**4 / 36,
            -1j * d(1) * (1 + r2**3 / 9),
            s(1) * (1 + r2**3 / 9),
            1j * (r2 / 2) * d(1) * (1 + 4 * r2 / 3),
            -(r2 / 2) * s(1) * (1 + 4 * r2 / 3),
            -1j * d(2) * (1 - r2**2 / 12),
            s(2) * (1 - r2**2 / 12),
        ])
        sy, sh = -1.0, 1.0
    else:
        sigma = 1 - r2**2 / 4
        Y = np.array([
            (1 + r2 / 2) ** 2,
            -((1 - r2 / 2) ** 2),
            1j * d(1),
            -s(1),
            -1j * (r2 / 2) * d(1),
            (r2 / 2) * s(1),
        ])
        Yhat = np.array([
            (1 + r2 / 2) ** 2,
            (1 - r2 / 2) ** 2,
            1j * (r2 / 2) * d(1),
            -(r2 / 2) * s(1),
            -1j * d(1),
            s(1),
        ])
        sy, sh = 1.0, 1.0
    if abs(sigma) < 1e-12:
        return None
    scale = (2.0 ** 0.5 / 2.0) / sigma
    return (sy * scale * Y).real, (sh * scale * Yhat).real


@pytest.mark.parametrize("example,signs", [(1, (-1.0, 1.0)), (2, (1.0, 1.0))])
def test_float_reference_is_the_scaled_exact_one(example, signs):
    # Each row of the float closed form is its sign times (sqrt(2)/2)/sigma(z)
    # times the exact components at z, inside and outside the degeneracy
    # circle, with lam exact on the exact side and rounded on the float one.
    r0 = reference_singular_radius(example)
    zs = [0.3 + 0.2j] + [r * np.exp(1j * t) for r in (0.6 * r0, 1.5 * r0)
                         for t in (0.0, 1.1, 2.5, 4.0)]
    for lam in (GaussianRational(1), GaussianRational(-1), GR_I,
                GaussianRational(Fraction(3, 5), Fraction(4, 5))):
        exact = reference_lift_exact(example, lam)
        Y, Yhat, singular = reference_lift_eval(example, lam.to_complex())(np.array(zs))
        assert not singular.any()
        for k, z in enumerate(zs):
            zq = GaussianRational.from_complex(complex(z))
            sigma = exact["sigma"].evaluate_exact(zq).to_complex()
            assert abs(sigma) >= 0.1, (example, z)
            for row, comps, sign in ((Y[k], exact["Y"], signs[0]),
                                     (Yhat[k], exact["Yhat"], signs[1])):
                want = np.array([sign * (2 ** 0.5 / 2) / sigma
                                 * c.evaluate_exact(zq).to_complex() for c in comps])
                size = np.abs(row).max()
                assert np.abs(want.imag).max() <= 1e-13 * size, (example, lam, z)
                assert np.abs(row - want.real).max() <= 1e-13 * size, (example, lam, z)


@pytest.mark.parametrize("example", [1, 2])
def test_stacked_reference_lift_is_bitwise_the_per_vertex_one(example):
    # z = 0, a ring on the degeneracy circle (|sigma| < 1e-12 there), rings
    # inside and outside it, and scattered points; signed zeros compared too
    r0 = reference_singular_radius(example)
    rng = np.random.default_rng(example)
    zs = np.concatenate([
        [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 0.5, -0.5j],
        [r * np.exp(2j * np.pi * k / 16) for r in (r0, 0.5 * r0, 1.5 * r0) for k in range(16)],
        rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-2.0, 2.0, 40),
    ])
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    for lam in (1.0, 1j, -1.0, np.exp(0.8j * np.pi), np.exp(3j * np.pi / 7), np.exp(-0.3j)):
        ref = reference_lift_eval(example, lam)
        Y, Yhat, singular = ref(zs)
        assert Y.shape == Yhat.shape == (len(zs), 2 * (4 - example) + 2)
        assert singular.dtype == bool and 0 < singular.sum() < len(zs)
        assert np.isnan(Y[singular]).all() and np.isnan(Yhat[singular]).all()
        for k, z in enumerate(zs.tolist()):
            want = _reference_lift_in_python(example, lam, z)
            if want is None:
                assert singular[k], (lam, z)
                with pytest.raises(SingularLocus):
                    ref(z)
                continue
            assert not singular[k], (lam, z)
            for got in ((Y[k], Yhat[k]), ref(z)):
                assert np.array_equal(bits(got[0]), bits(want[0])), (lam, z)
                assert np.array_equal(bits(got[1]), bits(want[1])), (lam, z)
    with pytest.raises(ValueError):
        reference_lift_eval(example, 1.0)(zs.reshape(2, -1))


def test_associated_family_members_stay_null(hf2):
    for lam in (1.0, 1j, np.exp(0.25j * np.pi)):
        pair = SurfacePair(hf2.m, lam, hf2)
        Y, Yhat = (c[0] for c in float_values(pair, np.array([0.2 + 0.1j]))[:2])
        mink = lambda a, b: -a[0] * b[0] + float(np.dot(a[1:], b[1:]))
        scale = max(1.0, np.abs(Y).max(), np.abs(Yhat).max()) ** 2
        assert abs(mink(Y, Y)) < 1e-10 * scale
        assert abs(mink(Yhat, Yhat)) < 1e-10 * scale
        assert abs(mink(Y, Yhat) + 1.0) < 1e-9 * scale
