"""Invariant suite: catalog coverage, determinism, and failure isolation."""

import cmath
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest

import willmore.iwasawa
import willmore.loops
import willmore.surfaces
import willmore.verify
from test_acceptance import _random_potentials
from willmore.cli import main
from willmore.frames import HolomorphicFrame, integrate_frame
from willmore.groups import GroupContext, get_context
from willmore.iwasawa import solve_iwasawa_exact
from willmore.loops import LoopMatrix, exact_zeros
from willmore.potentials import NormalizedPotential, builtin_potential, to_nilpotent
from willmore.scalars import GR_ZERO, RF_ONE, BiPoly, GaussianRational, RationalFn, _gr
from willmore.surfaces import degeneracy_scan, mink_pair_np
from willmore.verify import (
    CHECK_NAMES,
    DEFAULT_PLAN,
    _draw_samples,
    _exact_size,
    _iso_oracle,
    _normalize_plan,
    _proj_minor,
    run_suite,
)

SMALL_PLAN = {"samples": 6, "fd_samples": 2, "seed": 3, "oracle_matrices": 4}


@pytest.fixture(scope="module")
def report2():
    return run_suite(builtin_potential(2), SMALL_PLAN)


def test_catalog_is_complete(report2):
    assert [c["name"] for c in report2.checks] == list(CHECK_NAMES)
    assert report2.passed
    for c in report2.checks:
        assert c["passed"], c
        assert c["max_residual"] <= c["tolerance"], c


def test_report_serialization_schema(report2):
    data = report2.to_dict()
    assert data["schema"] == "verification-report/1"
    assert data["m"] == 2
    assert data["potential_digest"] == builtin_potential(2).digest()
    assert isinstance(data["singular_radii"], list)
    assert data["passed"] is True
    assert "timing_ms" in data
    assert "timing_ms" not in report2.to_dict(include_timing=False)
    # keys are emitted in a fixed order
    assert list(data)[:2] == ["schema", "potential_digest"]


def test_report_bytes_are_deterministic():
    a = run_suite(builtin_potential(2), SMALL_PLAN)
    b = run_suite(builtin_potential(2), SMALL_PLAN)
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)


def test_plan_rejects_unknown_keys():
    for plan in ({"sample": 3}, {"samples": -3}, {"fd_samples": -1}, {"oracle_matrices": -1},
                 {"radius": 0}, {"radius": float("nan")}, {"radius": float("inf")},
                 {"radius": -0.9}, {"lambdas": ((1.0, 0.0),)},
                 {"tol_algebraic": float("nan")}, {"tol_fd": float("inf")},
                 {"tol_fd": -1e-6}, {"tol_algebraic": -0.5}):
        with pytest.raises(ValueError):
            run_suite(builtin_potential(2), plan)
    # a value of the wrong type is refused by its key, before it is used
    for key, plan in (("samples", {"samples": 2.5}),
                      ("samples", {"samples": True, "fd_samples": 1}),
                      ("samples", {"samples": np.int64(3)}),
                      ("fd_samples", {"fd_samples": 1.5}),
                      ("oracle_matrices", {"oracle_matrices": 2.5}),
                      ("radius", {"radius": "0.9"}), ("radius", {"radius": True}),
                      ("tol_fd", {"tol_fd": None}), ("tol_algebraic", {"tol_algebraic": 1j}),
                      # reals past the float range
                      ("tol_fd", {"tol_fd": Fraction(10**400)}), ("radius", {"radius": 10**400}),
                      ("tol_algebraic", {"tol_algebraic": 10**400})):
        with pytest.raises(ValueError, match="plan %s must be" % key):
            run_suite(builtin_potential(2), plan)
    # a seed is refused before the sample draw would take it
    for seed in (-3, 1.0, True, None, np.int64(3)):
        with pytest.raises(ValueError, match="plan seed must be a non-negative int"):
            run_suite(builtin_potential(2), {"seed": seed})
    # so is a potential in any form but NormalizedPotential
    with pytest.raises(TypeError):
        run_suite(builtin_potential(2).to_dict(), SMALL_PLAN)


def test_plan_reals_are_reported_as_the_floats_they_equal(report2):
    # a Fraction or numpy tolerance runs and serializes as its float
    want = report2.to_json(include_timing=False)
    for tols in ({"tol_fd": Fraction(1, 10**6)}, {"tol_algebraic": np.float64(1e-10)}):
        got = run_suite(builtin_potential(2), dict(SMALL_PLAN, **tols))
        assert got.to_json(include_timing=False) == want


def test_default_plan_documented_keys():
    assert set(SMALL_PLAN) <= set(DEFAULT_PLAN)
    assert DEFAULT_PLAN["tol_fd"] == 1e-6
    assert DEFAULT_PLAN["tol_algebraic"] == 1e-10


def test_corrupted_pairing_fails_only_the_isotropy_check():
    pot = builtin_potential(2)
    rows = [list(r) for r in pot.b1hat()]
    rows[0][0] = rows[0][0] + BiPoly.var_z()
    doc = NormalizedPotential(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
    rep = run_suite(doc, SMALL_PLAN)
    assert not rep.passed
    failed = [c["name"] for c in rep.checks if not c["passed"]]
    assert failed == ["potential-isotropy"]


def test_b1hat_isotropy_is_not_passed_by_a_zero_at_the_probe():
    # B1hat B1hat^t is not identically zero, so the check must fail, with its
    # size at the probe as the residual.  It vanishes at the probe of a plan
    # with no samples, (1 + i)/3, when the offset is that float's Gaussian
    # rational, and is tiny but not zero there with the exact (1 + i)/3; a
    # tolerance above its size at sample 0 passes no exact identity either.
    pot = builtin_potential(2)
    third = GaussianRational(Fraction(1, 3), Fraction(1, 3))
    no_samples = {"samples": 0, "fd_samples": 0}
    for offset, plan, residual in (
        (GaussianRational.from_complex(complex(1, 1) / 3), no_samples, float("inf")),
        (third, no_samples, 2.6168207644729584e-17),
        (third, {"samples": 5, "tol_algebraic": 1}, 0.5497534414410142),
    ):
        rows = [list(r) for r in pot.b1hat()]
        rows[0][0] = rows[0][0] + (BiPoly.var_z() - offset)
        doc = NormalizedPotential(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
        rep = run_suite(doc, plan)
        entry = {c["name"]: c for c in rep.checks}["potential-isotropy"]
        assert not entry["passed"] and entry["max_residual"] == residual, entry
        assert "error" not in entry, entry
        assert not rep.passed


def test_singular_radii_are_reported_and_avoided():
    rep = run_suite(builtin_potential(2), dict(SMALL_PLAN, radius=2.0))
    assert any(abs(r - 2 ** 0.5) < 1e-8 for r in rep.singular_radii)
    assert rep.passed


def test_fd_and_algebraic_tolerances_are_tagged(report2):
    kinds = {c["name"]: c["kind"] for c in report2.checks}
    assert kinds["mc-flatness"] == "finite-difference"
    assert kinds["iwasawa-1B"] == "algebraic"
    for c in report2.checks:
        want = 1e-6 if c["kind"] == "finite-difference" else 1e-10
        assert c["tolerance"] == want, c["name"]


def test_exact_checks_measure_a_broken_identity(monkeypatch):
    # A third added to one entry of the index oracle, and a constant loop
    # added to the nilpotent potential, must each be measured: the residual
    # is the Gaussian-rational entry's value, not an error.
    third = GaussianRational(Fraction(1, 3))

    def constant_loop(d):
        mat = exact_zeros(d, d, GR_ZERO)
        mat[0, 1] = third
        return LoopMatrix(d, d, {0: mat})

    indexwise = GroupContext.iso_P_indexwise
    potential_loop = HolomorphicFrame.potential_loop
    monkeypatch.setattr(GroupContext, "iso_P_indexwise",
                        lambda self, A: indexwise(self, A) + constant_loop(A.rows))
    monkeypatch.setattr(HolomorphicFrame, "potential_loop",
                        lambda self: potential_loop(self) + constant_loop(2 * self.m + 2))
    rep = run_suite(builtin_potential(2), SMALL_PLAN)
    checks = {c["name"]: c for c in rep.checks}
    for name in ("iso-oracle", "nilpotent-embed"):
        c = checks[name]
        assert not c["passed"], c
        assert "error" not in c, c
        assert c["max_residual"] == pytest.approx(1 / 3, rel=1e-15), c


def test_a_check_that_raises_is_reported(monkeypatch):
    # A check that raises after the conformality check has run is reported
    # with its error, not raised out of run_suite.
    def broken(self, A):
        raise ValueError("oracle unavailable")

    monkeypatch.setattr(GroupContext, "iso_P_indexwise", broken)
    rep = run_suite(builtin_potential(2), SMALL_PLAN)
    failed = {c["name"]: c for c in rep.checks if not c["passed"]}
    assert list(failed) == ["iso-oracle"]
    assert failed["iso-oracle"]["error"] == "ValueError: oracle unavailable"
    assert failed["iso-oracle"]["max_residual"] == float("inf")


def test_a_check_that_raised_never_passes(monkeypatch):
    # Plans refuse an infinite tolerance; under one all the same, a check
    # that raised (residual inf) fails.
    normalize = willmore.verify._normalize_plan
    monkeypatch.setattr(willmore.verify, "_normalize_plan",
                        lambda plan: dict(normalize(plan), tol_fd=float("inf")))
    rep = run_suite(builtin_potential(1), {"samples": 0, "fd_samples": 0})
    entry = {c["name"]: c for c in rep.checks}["isotropy-order-m"]
    assert entry["error"] == "ValueError: float isotropy check needs sample points"
    assert entry["tolerance"] == float("inf") and not entry["passed"] and not rep.passed


def test_run_suite_factorizes_in_few_stacked_calls(monkeypatch):
    # One solve per stack, not one per sample: example 1's default plan has
    # 40 samples and 6 fd samples, each with a 9-point flatness stencil.
    calls = {"solve": 0, "maurer_cartan": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    solve = counted(willmore.iwasawa.solve_iwasawa_float, "solve")
    for module in (willmore.iwasawa, willmore.verify):
        monkeypatch.setattr(module, "solve_iwasawa_float", solve)
    monkeypatch.setattr(willmore.verify, "maurer_cartan",
                        counted(willmore.iwasawa.maurer_cartan, "maurer_cartan"))
    assert run_suite(builtin_potential(1)).passed
    assert calls["solve"] <= 16 and calls["maurer_cartan"] <= 3, calls


@pytest.mark.parametrize("example,count", [(1, 442), (2, 298)])
def test_run_suite_factorizes_each_point_once(example, count, monkeypatch):
    # Each distinct point is factorized once: the samples, the flatness and
    # affinity stencils, the 4 conformality points per fd sample for both
    # pairs, and the isotropy stencil (49 or 25 points per fd sample) for
    # both lifts and both lam.  Solving the isotropy stencil per check and
    # conformality per pair passed 1,348 and 772 points.
    samples = []
    solve = willmore.iwasawa.solve_iwasawa_float

    def counted(hf, z):
        samples.append(len(z))
        return solve(hf, z)

    for module in (willmore.iwasawa, willmore.verify):
        monkeypatch.setattr(module, "solve_iwasawa_float", counted)
    assert run_suite(builtin_potential(example)).passed
    assert sum(samples) == count, samples


def test_run_suite_binds_exact_loops_numerically(monkeypatch):
    # The benchmark times LoopMatrix.to_float and RationalFn.evaluate, and
    # only run_suite calls them (binding H in check_refactor), so its
    # self-test fails if run_suite stops calling either.
    calls = {"to_float": 0, "evaluate": 0}

    def counted(cls, name, key):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(LoopMatrix, "to_float", "to_float")
    counted(RationalFn, "evaluate", "evaluate")
    run_suite(builtin_potential(1), SMALL_PLAN)
    assert calls["to_float"] >= 1 and calls["evaluate"] >= 1, calls


@pytest.mark.parametrize("example", [1, 2])
def test_shared_isotropy_stencil_reads_what_each_check_reads_alone(example):
    # _isotropy_order_m shares one factorization per step between all four
    # checks and one evaluation of the lifts per lam; each check must read
    # what it reads alone, also where the step refines (example 1's circle).
    from conftest import isotropy_lifts
    from willmore.groups import LAMBDAS
    from willmore.surfaces import SurfacePair, reference_singular_radius
    from willmore.verify import _isotropy_fd

    hf = integrate_frame(to_nilpotent(builtin_potential(example)))
    pairs = [SurfacePair(hf.m, lam, hf) for lam in LAMBDAS]
    r0 = reference_singular_radius(example)
    for samples in ([0.3 + 0.2j, -0.1 + 0.5j], [complex(r0 - 0.005), 0.2j]):
        alone = max(_isotropy_fd(pair, which, samples, isotropy_lifts(pair, samples))
                    ["max_residual"] for pair in pairs for which in ("Y", "Yhat"))
        shared = willmore.verify._isotropy_order_m(pairs, samples)
        assert shared.hex() == alone.hex(), samples


# sha256 of the reports, without timing, by example and by the index of the
# sample moved onto the circle: at index 3 as the one-sample-per-call loop of
# run_suite wrote them, at index 0 as run_suite wrote them while it still read
# the lifts of its surface checks off a separate frame solved at sample 0.
SINGULAR_SAMPLE_REPORTS = {
    (1, 3): "c8e6c8265d594dbfc420f8f4b118824b9185be39a56e866cb0725d2ffd40a019",
    (2, 3): "b27ff79965d5ea0e7b110fdc482a68dd3749ab3df2b6dd2db1f901699ad1409d",
    (1, 0): "4bd84ad1bc31281ddd4a128da54ee727e279dfd174ae2a7ced7bf52c4c0cf050",
    (2, 0): "bc3046386beeea734d60719a39fc9d67748c666200416b2cff69630d18b1b258",
}


@pytest.mark.parametrize("example,index", [
    pytest.param(example, index, id=str(example) if index == 3 else "%d-sample0" % example)
    for example, index in SINGULAR_SAMPLE_REPORTS])
def test_a_sample_on_the_degeneracy_circle_stops_the_checks_at_its_index(
        example, index, monkeypatch):
    # The sample at index, also an fd sample, fails to factorize: the checks
    # that need the frame fail with its error after index samples, the
    # factorization residuals keep the samples before it (and fail if there
    # are none), and the Maurer-Cartan checks fail too.  Sample 0's error also
    # fails conformality and isotropy-order-m.
    draw = willmore.verify._draw_samples

    def with_locus_sample(cfg, radii, hf):
        pts, rejected = draw(cfg, radii, hf)
        pts[index] = radii[0] * cmath.exp(0.7j)
        return pts, rejected

    monkeypatch.setattr(willmore.verify, "_draw_samples", with_locus_sample)
    rep = run_suite(builtin_potential(example))
    checks = {c["name"]: c for c in rep.checks}
    assert checks["frame-refactor"]["samples"] == index
    assert "lost positivity" in checks["frame-refactor"]["error"]
    assert checks["iwasawa-1B"]["samples"] == index
    assert ("error" in checks["iwasawa-1B"]) == (index == 0)
    assert "error" in checks["halfisotropy-pullback"]
    if index == 0:
        for name in ("conformality", "isotropy-order-m"):
            assert checks[name]["error"] == checks["frame-refactor"]["error"], name
    text = rep.to_json(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == SINGULAR_SAMPLE_REPORTS[example, index]


def test_frames_are_assembled_only_for_the_verify_stacks(monkeypatch, tmp_path):
    # run_suite assembles one frame stack for all samples and one for
    # mc-lambda-affinity; a float surface pair reads its lifts off the
    # factorization itself, so the mesh assembles none.
    calls = []
    assemble = willmore.iwasawa.assemble_frame

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("willmore") and hasattr(module, "assemble_frame"):
            monkeypatch.setattr(module, "assemble_frame", counted)
    run_suite(builtin_potential(1))
    assert len(calls) == 2
    calls.clear()
    assert main(["example", "--id", "1", "--grid-n", "2", "--out", str(tmp_path)]) == 0
    assert calls == []


def test_a_sample_failing_only_its_refactor_check_counts_in_the_factorization_residuals(
        monkeypatch):
    # Sample k passes its solve, so its 1B residual enters iwasawa-1B, and
    # then fails its refactor check, which stops the frame checks at k.  k is
    # the first sample whose 1B residual is a new maximum, so leaving it out
    # would change the reported value.
    drawn = []
    draw = willmore.verify._draw_samples

    def recording(cfg, radii, hf):
        pts, rejected = draw(cfg, radii, hf)
        drawn.extend(pts)
        return pts, rejected

    hf = willmore.verify.integrate_frame(
        willmore.verify.to_nilpotent(builtin_potential(1)))
    monkeypatch.setattr(willmore.verify, "_draw_samples", recording)
    run_suite(builtin_potential(1), {"samples": 12, "fd_samples": 1, "oracle_matrices": 2})
    res = willmore.iwasawa.solve_iwasawa_float(hf, np.array(drawn)).residuals["1B"]
    k = next(j for j in range(1, len(res)) if res[j] > res[:j].max())

    check = willmore.iwasawa.check_refactor

    def failing_at_k(hf, w, F):
        residual = check(hf, w, F)
        if np.ndim(residual) == 1 and len(w.errors) == len(drawn):
            residual = np.where(w.index == k, 1.0, residual)
        return residual

    monkeypatch.setattr(willmore.iwasawa, "check_refactor", failing_at_k)
    drawn.clear()
    rep = run_suite(builtin_potential(1), {"samples": 12, "fd_samples": 1, "oracle_matrices": 2})
    checks = {c["name"]: c for c in rep.checks}
    assert checks["frame-refactor"]["samples"] == k
    assert checks["frame-refactor"]["error"] == (
        "ResidualTooLarge: frame does not refactor the holomorphic side: 1.000e+00")
    assert checks["iwasawa-1B"]["samples"] == k and "error" not in checks["iwasawa-1B"]
    assert checks["iwasawa-1B"]["max_residual"] == float(res[:k + 1].max())


def test_stacked_lift_pairings_round_as_the_one_row_loop():
    # The lift checks take entry products and moduli of complex scalars row
    # by row; the stacked forms must give each row those bits.
    rng = np.random.default_rng(5)
    v = rng.normal(size=(50, 8)) + 1j * rng.normal(size=(50, 8))
    w = rng.normal(size=(50, 8)) + 1j * rng.normal(size=(50, 8))
    minors = _proj_minor(v, w)
    pairs = mink_pair_np(v, w)
    for k in range(len(v)):
        a, b = v[k].tolist(), w[k].tolist()
        s = max(float(np.abs(v[k]).max()), float(np.abs(w[k]).max()), 1.0)
        want = max(abs(a[i] * b[j] - a[j] * b[i])
                   for i in range(8) for j in range(i + 1, 8)) / (s * s)
        assert minors[k] == want, k
        pair = -v[k][0] * w[k][0] + np.dot(v[k][1:], w[k][1:])
        assert pairs[k] == pair and np.signbit(pairs[k].imag) == np.signbit(pair.imag), k


def test_scan_draw_and_witness_pins_with_two_brackets_and_rejected_samples():
    # Pinned bisection and draw values: two scans with two brackets each, a
    # draw that rejects two samples; and an m = 1 exact witness, whose rho is
    # inverted by the 1 x 1 adjugate.
    pots = _random_potentials(20)

    def hf(pot):
        return integrate_frame(to_nilpotent(pot))

    def radii(*args, **kwargs):
        return [x.hex() for x in degeneracy_scan(*args, **kwargs)]

    assert radii(hf(pots[6])) == ["0x1.17beaaac12592p-2", "0x1.49a112714342ep+0"]
    assert radii(hf(pots[2]), theta=1.7, r_range=(1e-3, 4.0)) == [
        "0x1.7d736be686fe8p-1", "0x1.9776fa00efcccp+0"]
    hf7 = hf(pots[7])
    pts, rejected = _draw_samples(_normalize_plan(None), degeneracy_scan(hf7), hf7)
    assert len(pts) == 40 and rejected == 2
    assert hashlib.sha256("\n".join(repr(z) for z in pts).encode()).hexdigest() == (
        "ffe3d31848e03ab118bbeb7cee7dfb9bf6365b4b6df4a91657024cf918550e8a")
    one = NormalizedPotential(1, [BiPoly.var_z()], [BiPoly.const(GaussianRational(0, 1))])
    w = solve_iwasawa_exact(hf(one))
    assert (w.rho @ w.rho_inv)[0, 0] == 1


def _scan_one_level(hf, theta):
    """degeneracy_scan as it bisected before it looked ahead: one stacked
    derivative per halving of the moving brackets."""
    import math

    from willmore.surfaces import SCAN_GRID_N, _gram_det_float

    direction = complex(math.cos(theta), math.sin(theta))

    def sigma(r):
        return _gram_det_float(hf, r * direction)

    fd = 1e-6

    def dsigma(r):
        s = sigma(np.concatenate([r + fd, np.maximum(r - fd, 0.0)]))
        return (s[:len(r)] - s[len(r):]) / (2 * fd)

    rs = np.linspace(1e-3, 2.5, SCAN_GRID_N)
    sig = sigma(rs)
    dsig = dsigma(rs)
    scale = max(1.0, float(sig.max()))
    low = np.where(sig[1:] < sig[:-1], sig[1:], sig[:-1])
    i = np.flatnonzero(~(low > 1e-2 * scale) & (dsig[:-1] < 0.0) & (dsig[1:] >= 0.0))
    a, b = rs[i], rs[i + 1]
    while (moving := b - a > 1e-11).any():
        mdl = 0.5 * (a[moving] + b[moving])
        below = dsigma(mdl) < 0.0
        a[moving] = np.where(below, mdl, a[moving])
        b[moving] = np.where(below, b[moving], mdl)
    root = 0.5 * (a + b)
    return root[sigma(root) <= 1e-8 * scale].tolist() if len(root) else []


def test_look_ahead_scan_finds_the_radii_of_one_level_bisection(monkeypatch):
    # Several halvings per stacked derivative, every radius bit for bit.
    pots = [builtin_potential(1), builtin_potential(2)] + _random_potentials(20)
    for k, pot in enumerate(pots):
        hf = integrate_frame(to_nilpotent(pot))
        for theta in (0.0, 0.2732, 1.2876, 1.7):
            assert degeneracy_scan(hf, theta) == _scan_one_level(hf, theta), (k, theta)
    calls = []
    gram_det = willmore.surfaces._gram_det_float
    monkeypatch.setattr(willmore.surfaces, "_gram_det_float",
                        lambda hf, z: calls.append(len(z)) or gram_det(hf, z))
    assert len(degeneracy_scan(integrate_frame(to_nilpotent(pots[0])))) == 1
    # the grid, its derivative, six stacks of five halvings and the check
    # of the root, against 32 calls at one halving per stack
    assert len(calls) <= 10, calls


def test_oracle_draws_its_matrices_as_per_entry_scalar_draws(monkeypatch):
    # The oracle's matrices, the loop powers of the one loop it hands to
    # iso_P_indexwise, are the matrices of four scalar draws per entry.
    seen = []
    indexwise = GroupContext.iso_P_indexwise

    def recorded(self, A):
        seen.append(A)
        return indexwise(self, A)

    monkeypatch.setattr(GroupContext, "iso_P_indexwise", recorded)
    ctx = GroupContext(3)
    n, d = 3, ctx.dim
    assert _iso_oracle(ctx, {"seed": 8, "oracle_matrices": n}, 0.5) == 0.0
    rng = np.random.default_rng(9)
    for k in range(n):
        want = []
        for _ in range(d * d):
            a, p = int(rng.integers(-3, 4)), int(rng.integers(1, 4))
            b, q = int(rng.integers(-3, 4)), int(rng.integers(1, 4))
            want.append(_gr(a * q, b * p, p * q))
        assert list(seen[0].coeffs[k].flat) == want, k
    assert sorted(seen[0].coeffs) == list(range(n))


def test_oracle_measures_one_broken_matrix(monkeypatch):
    # A third added to matrix 3 of the stacked oracle (its loop power 3)
    # fails iso-oracle alone, with that third as its residual.
    indexwise = GroupContext.iso_P_indexwise

    def broken(self, A):
        mat = exact_zeros(A.rows, A.cols, GR_ZERO)
        mat[1, 2] = GaussianRational(Fraction(1, 3))
        return indexwise(self, A) + LoopMatrix(A.rows, A.cols, {3: mat})

    monkeypatch.setattr(GroupContext, "iso_P_indexwise", broken)
    rep = run_suite(builtin_potential(2), SMALL_PLAN)
    failed = {c["name"]: c for c in rep.checks if not c["passed"]}
    assert list(failed) == ["iso-oracle"]
    assert "error" not in failed["iso-oracle"]
    assert failed["iso-oracle"]["max_residual"] == 1 / 3


def test_oracle_checks_the_homomorphism_of_the_last_pair(monkeypatch):
    # Both forms of the isometry gain a third at loop power 2 (matrix 2), so
    # they agree, but P(A2 A3) no longer equals P(A2) P(A3).
    third = exact_zeros(8, 8, GR_ZERO)
    third[1, 2] = GaussianRational(Fraction(1, 3))

    def shifted(iso):
        def wrapper(self, A):
            return iso(self, A) + LoopMatrix(A.rows, A.cols, {2: third} if 2 in A.coeffs else {})
        return wrapper

    for name in ("iso_P", "iso_P_indexwise"):
        monkeypatch.setattr(GroupContext, name, shifted(getattr(GroupContext, name)))
    ctx = GroupContext(3)
    assert _iso_oracle(ctx, {"seed": 8, "oracle_matrices": 3}, 0.5) == 0.0
    assert _iso_oracle(ctx, {"seed": 8, "oracle_matrices": 4}, 0.5) > 0.0


def test_oracle_makes_as_many_kernel_calls_for_any_matrix_count(monkeypatch):
    # Every product of the oracle is stacked over its matrices: iso_P's two
    # sides on A and on the pair products, B A, and P(B) P(A).
    calls = []
    product = willmore.loops._gr_product
    monkeypatch.setattr(willmore.loops, "_gr_product",
                        lambda A, B: calls.append(1) or product(A, B))
    counts = {}
    for n in (5, 25):
        calls.clear()
        assert _iso_oracle(get_context(3), {"seed": 7, "oracle_matrices": n}, 0.5) == 0.0
        counts[n] = len(calls)
    assert counts[5] == counts[25] <= 6, counts


@pytest.mark.parametrize("count", [0, 1, 5])
def test_oracle_passes_on_any_matrix_count(count):
    # An odd count leaves the last matrix without a partner.
    rep = run_suite(builtin_potential(2), dict(SMALL_PLAN, oracle_matrices=count))
    entry = {c["name"]: c for c in rep.checks}["iso-oracle"]
    assert entry["passed"] and entry["max_residual"] == 0.0
    assert entry["samples"] == count


def test_exact_size_does_not_cancel_across_loop_powers(monkeypatch):
    # (lambda - 1)(lambda - i) = i - (1 + i) lambda + lambda^2 vanishes at
    # both LAMBDAS, yet is not zero: each power is sized on its own.  A
    # nonzero loop that vanishes at the probe reads inf.
    i = RationalFn.const(GaussianRational(0, 1))
    cancel = LoopMatrix(1, 1, {0: [[i]], 1: [[-(RF_ONE + i)]], 2: [[RF_ONE]]})
    assert _exact_size(cancel, 0.25j) == abs(1 + 1j)
    z_half = RationalFn(BiPoly.var_z() - GaussianRational(Fraction(1, 2)))
    assert _exact_size(LoopMatrix(1, 1, {1: [[z_half]]}), 0.5) == float("inf")

    potential_loop = HolomorphicFrame.potential_loop

    def with_cancelling_residual(self):
        d = 2 * self.m + 2
        mats = {}
        for k, c in cancel.coeffs.items():
            mats[k] = np.full((d, d), RationalFn.const(0), dtype=object)
            mats[k][0, 1] = c[0, 0]
        return potential_loop(self) + LoopMatrix(d, d, mats)

    monkeypatch.setattr(HolomorphicFrame, "potential_loop", with_cancelling_residual)
    rep = run_suite(builtin_potential(2), SMALL_PLAN)
    entry = {c["name"]: c for c in rep.checks}["nilpotent-embed"]
    assert not entry["passed"] and entry["max_residual"] == abs(1 + 1j), entry
