"""Surface extraction: light-cone pairings, metrics, isotropy, branch
behavior, and the degeneracy loci."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from willmore.errors import ExactPathRequired, SingularLocus
from willmore.frames import integrate_frame
from willmore.iwasawa import solve_iwasawa_exact, solve_iwasawa_float
from willmore.potentials import builtin_potential, to_nilpotent
from willmore.scalars import BiPoly, RationalFn
from willmore.surfaces import (
    SurfacePair,
    _gram_det_float,
    _rf_float,
    branch_analysis,
    degeneracy_scan,
    extract_pair,
    induced_metric,
    isotropy_check,
    lift_columns_float,
    mink_pair_rf,
    project_to_sphere,
    reference_lift_exact,
    reference_lift_eval,
    reference_metric,
    reference_singular_radius,
)

RF_ZERO = RationalFn(BiPoly.zero())


# -- exact light-cone relations -----------------------------------------------


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
    # z added to one component breaks <Y_z, Y_z> = 0; the residual is the
    # pairing's value at the samples, as d_dz on the unreduced components
    # gives it
    Y = list(pair1.Y)
    Y[2] = Y[2] + RationalFn(BiPoly.var_z())
    bent = SurfacePair(pair1.m, pair1.lam, pair1.hf, Y=tuple(Y), Yhat=pair1.Yhat)
    samples = (0.3 + 0.2j, -0.5 + 0.4j, 0.7j)
    dY = [c.d_dz() for c in Y]
    want = max(abs(_rf_float(mink_pair_rf(dY, dY), np.array([z]))[0]) for z in samples)
    got = isotropy_check(bent, "Y", max_order=1, samples=samples)
    assert got["max_residual"] > 0
    assert abs(got["pairs"]["(1,1)"] - want) <= 1e-9 * want
    assert got["max_residual"] == got["pairs"]["(1,1)"]
    assert isotropy_check(bent, "Y", max_order=1)["max_residual"] == float("inf")


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
    # metrics computed before it instead of projecting the lifts again
    import willmore.surfaces as surfaces

    metric_y = induced_metric(pair1, "Y")
    assert induced_metric(pair1, "Y") is metric_y
    assert induced_metric(pair1, "y") is metric_y
    induced_metric(pair1, "Yhat")
    calls = []

    def counted(pair, which="Y"):
        calls.append(which)
        return project_to_sphere(pair, which)

    monkeypatch.setattr(surfaces, "project_to_sphere", counted)
    rep = branch_analysis(pair1)
    assert calls == []
    assert rep["y_limit"] == 0 and rep["yhat_limit"] == 32


def test_metric_float_value_at_origin(hf1, hf2):
    # both conformal factors evaluate to exactly 2 at z = 0
    for hf in (hf1, hf2):
        pair = SurfacePair(hf.m, 1.0, hf)
        got = induced_metric(pair, "Y")(np.array([0.0]))[0][0]
        assert got == pytest.approx(2.0, abs=1e-8)
    for example_id in (1, 2):
        exact_value = reference_metric(example_id, "Y").evaluate(0.0)
        assert exact_value.real == 2.0 and exact_value.imag == 0.0


def test_float_metric_matches_exact_metric(pair2, hf2):
    fpair = SurfacePair(hf2.m, 1.0, hf2)
    fmetric = induced_metric(fpair, "Y")
    emetric = induced_metric(pair2, "Y")
    for z in (0.3 + 0.2j, -0.5 + 0.1j):
        assert abs(fmetric(np.array([z]))[0][0] - emetric.evaluate(z).real) < 1e-6


def _one_point_metric(pair, which, z, h=1e-4):
    """The float conformal factor as computed one point at a time before
    stacking: four one-sample lifts per central difference, one np.sum."""
    idx = 0 if which == "Y" else 1

    def at(zz):
        vals = pair.values(np.array([zz]))[idx][0]
        return vals[1:] / vals[0]

    def dz(s):
        yx = (at(z + s) - at(z - s)) / (2 * s)
        yy = (at(z + 1j * s) - at(z - 1j * s)) / (2 * s)
        return (yx - 1j * yy) / 2

    d = (4.0 * dz(h / 2) - dz(h)) / 3.0
    return float(np.sum(d * d.conj()).real)


@pytest.mark.parametrize("example_id", [1, 2])
def test_stacked_metric_is_bitwise_the_one_point_code(example_id):
    hf = integrate_frame(to_nilpotent(builtin_potential(example_id)))
    pair = SurfacePair(hf.m, np.exp(0.9j), hf)
    zs = [0j, 0.31 + 0.17j, -0.6 + 0.2j, -0.25 - 0.7j, 0.9 + 0.05j]
    for which in ("Y", "Yhat"):
        got, errors = induced_metric(pair, which)(np.array(zs))
        assert errors == [None] * len(zs)
        want = np.array([_one_point_metric(pair, which, z) for z in zs])
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
    pair = SurfacePair(hf2.m, 1.0, hf2)
    with pytest.raises(ExactPathRequired):
        branch_analysis(pair)


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
    lambda pair, which: isotropy_check(pair, which, samples=(0.3 + 0.2j,)),
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


def test_associated_family_members_stay_null(hf2):
    for lam in (1.0, 1j, np.exp(0.25j * np.pi)):
        pair = SurfacePair(hf2.m, lam, hf2)
        Y, Yhat = (c[0] for c in pair.values(np.array([0.2 + 0.1j]))[:2])
        mink = lambda a, b: -a[0] * b[0] + float(np.dot(a[1:], b[1:]))
        scale = max(1.0, np.abs(Y).max(), np.abs(Yhat).max()) ** 2
        assert abs(mink(Y, Y)) < 1e-10 * scale
        assert abs(mink(Yhat, Yhat)) < 1e-10 * scale
        assert abs(mink(Y, Yhat) + 1.0) < 1e-9 * scale
