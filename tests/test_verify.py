"""Invariant suite: catalog coverage, determinism, and failure isolation."""

import json
from fractions import Fraction

import pytest

from willmore.groups import GroupContext
from willmore.loops import LoopMatrix, exact_zeros
from willmore.potentials import (
    NilpotentPotential,
    PotentialDocument,
    builtin_potential,
    document_for,
)
from willmore.scalars import GR_ZERO, BiPoly, GaussianRational
from willmore.verify import CHECK_NAMES, DEFAULT_PLAN, run_suite

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
    assert data["potential_digest"] == document_for(builtin_potential(2)).digest()
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
    with pytest.raises(ValueError):
        run_suite(builtin_potential(2), {"sample": 3})


def test_default_plan_documented_keys():
    assert set(SMALL_PLAN) <= set(DEFAULT_PLAN)
    assert DEFAULT_PLAN["tol_fd"] == 1e-6
    assert DEFAULT_PLAN["tol_algebraic"] == 1e-10


def test_corrupted_pairing_fails_only_the_isotropy_check():
    pot = builtin_potential(2)
    rows = [list(r) for r in pot.b1hat()]
    rows[0][0] = rows[0][0] + BiPoly.var_z()
    doc = PotentialDocument(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
    rep = run_suite(doc, SMALL_PLAN)
    assert not rep.passed
    failed = [c["name"] for c in rep.checks if not c["passed"]]
    assert failed == ["potential-isotropy"]


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
    full_loop = NilpotentPotential.full_loop
    monkeypatch.setattr(GroupContext, "iso_P_indexwise",
                        lambda self, A: indexwise(self, A) + constant_loop(A.rows))
    monkeypatch.setattr(NilpotentPotential, "full_loop",
                        lambda self: full_loop(self) + constant_loop(2 * self.m + 2))
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
