"""Potential documents: parsing, serialization, classification, and the
framed-potential constructor."""

import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from willmore.errors import PotentialFormatError
from willmore.frames import integrate_frame
from willmore.potentials import (
    NormalizedPotential,
    builtin_potential,
    load_potential,
    parse_potential,
    rank_and_classify,
    save_potential,
    to_nilpotent,
    wu_normalized_potential,
)
from willmore.scalars import BiPoly, GaussianRational


def test_round_trip_through_disk(tmp_path):
    doc = builtin_potential(1)
    path = tmp_path / "pot.json"
    save_potential(doc, path)
    back = load_potential(path)
    assert back.m == doc.m
    assert back.digest() == doc.digest()
    assert all((a - b).is_zero() for a, b in zip(back.h, doc.h))
    assert all((a - b).is_zero() for a, b in zip(back.hhat, doc.hhat))


def test_digest_is_content_addressed(tmp_path):
    doc = builtin_potential(2)
    other = builtin_potential(1)
    assert doc.digest() != other.digest()
    # serialization formatting does not enter the digest
    path = tmp_path / "pot.json"
    save_potential(doc, path)
    data = json.loads(path.read_text())
    reordered = json.loads(json.dumps(data, sort_keys=False))
    assert parse_potential(reordered).digest() == doc.digest()


def test_parse_rejects_malformed_documents():
    with pytest.raises(PotentialFormatError):
        parse_potential([])
    with pytest.raises(PotentialFormatError):
        parse_potential({"m": 2, "h": [[["1", "0"]]], "hhat": [[["0", "0"]]] * 2})
    with pytest.raises(PotentialFormatError):
        parse_potential({"m": 0, "h": [], "hhat": []})
    with pytest.raises(PotentialFormatError):
        parse_potential(
            {"m": 1, "h": [[["1", "0", "0"]]], "hhat": [[["0", "0"]]]}
        )
    with pytest.raises(PotentialFormatError):
        parse_potential({"m": 1, "h": [[["x", "0"]]], "hhat": [[["0", "0"]]]})
    one = [[["1", "0"]]]
    row = [[["1", "0"]], [["0", "1"]]]
    for bad in (
        {"m": 1, "h": [[[True, "0"]]], "hhat": one},
        {"m": 1, "h": [[[None, "0"]]], "hhat": one},
        {"m": 1, "h": ["1"], "hhat": one},
        {"h": one, "hhat": one},
        {"m": 1, "h": one},
        {"m": True, "h": one, "hhat": one},
        {"m": 1, "h": one, "hhat": one, "b1hat": [row]},
        {"m": 1, "h": one, "hhat": one, "b1hat": [row, row, row]},
        {"m": 1, "h": one, "hhat": one, "b1hat": [row, row[:1]]},
    ):
        with pytest.raises(PotentialFormatError):
            parse_potential(bad)
    # an int and a finite float coefficient parse exactly
    pot = parse_potential({"m": 1, "h": [[[3, 0.5]]], "hhat": one})
    assert pot.h[0].terms[(0, 0)] == GaussianRational(3, Fraction(1, 2))


def test_a_long_decimal_exponent_is_a_format_error(tmp_path):
    # Fraction would build 10**|exponent| first: seconds at seven digits,
    # hours at nine; up to six digits (leading zeros aside) pass this guard
    import time

    one = [[["1", "0"]]]
    started = time.perf_counter()
    for text in ("1e999999999", "-2.5E-10000000", "1e+1_000_000"):
        with pytest.raises(PotentialFormatError, match="exponent"):
            parse_potential({"m": 1, "h": [[[text, "0"]]], "hhat": one})
    assert time.perf_counter() - started < 1.0
    for text in ("1e0000000003", "-25e-1_0", "0e99999"):
        pot = parse_potential({"m": 1, "h": [[["0", text]]], "hhat": one})
        assert pot.to_dict()["h"] == [[["0", str(Fraction(text))]]], text
    # but 10**99999 has more digits than Python writes back as decimal text
    with pytest.raises(PotentialFormatError, match="cannot be written back"):
        parse_potential({"m": 1, "h": [[["0", "1e99999"]]], "hhat": one})


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 1,\n  "h": [,]\n}\n')
    with pytest.raises(PotentialFormatError) as err:
        load_potential(path)
    assert "line 2" in str(err.value)
    assert err.value.line == 2
    assert err.value.column is not None


def test_b1hat_override_consistency_gate():
    pot = builtin_potential(2)
    good = NormalizedPotential(pot.m, pot.h, pot.hhat, pot.b1hat())
    assert good.pairing_consistent()
    assert good.normalized().m == 2

    rows = [list(r) for r in pot.b1hat()]
    rows[0][0] = rows[0][0] + BiPoly.var_z()
    bad = NormalizedPotential(pot.m, pot.h, pot.hhat, tuple(tuple(r) for r in rows))
    assert not bad.pairing_consistent()
    with pytest.raises(PotentialFormatError):
        bad.normalized()


def test_override_survives_serialization(tmp_path):
    pot = builtin_potential(2)
    doc = NormalizedPotential(pot.m, pot.h, pot.hhat, pot.b1hat())
    path = tmp_path / "with_override.json"
    save_potential(doc, path)
    back = load_potential(path)
    assert back.b1hat_override is not None
    assert back.pairing_consistent()


def test_rank_and_classify_tags():
    one = BiPoly.const(1)
    zero = BiPoly.zero()
    z = BiPoly.var_z()

    assert rank_and_classify(NormalizedPotential(1, [one], [zero])) == (
        1, "hyperbolic-minimal")
    assert rank_and_classify(NormalizedPotential(1, [zero], [one])) == (
        1, "spherical-minimal")
    assert rank_and_classify(NormalizedPotential(1, [one], [one])) == (
        1, "euclidean-minimal")
    assert rank_and_classify(NormalizedPotential(2, [one, zero], [one, zero])) == (
        1, "euclidean-minimal")
    # proportional but unequal rows: a dual pair, still rank 1
    assert rank_and_classify(NormalizedPotential(1, [one + one], [one])) == (
        1, "dual-pair")
    # independent rows give full rank
    assert rank_and_classify(NormalizedPotential(2, [one, z], [z, one]))[0] == 2
    assert rank_and_classify(NormalizedPotential(2, [zero, zero], [zero, zero])) == (
        0, "euclidean-minimal")


def test_shipped_examples_classification():
    assert rank_and_classify(builtin_potential(1))[0] == 2
    assert rank_and_classify(builtin_potential(2))[0] == 2
    with pytest.raises(ValueError):
        builtin_potential(3)


def test_nilpotent_embedding_is_cube_zero():
    # the graded coefficient is strictly block-upper-triangular with two
    # off-diagonal blocks, so its cube vanishes identically
    for example_id in (1, 2):
        eta = integrate_frame(to_nilpotent(builtin_potential(example_id))).potential_loop()
        assert not (eta @ eta).is_zero()
        assert (eta @ eta @ eta).is_zero()


def test_pairing_isotropy_of_b1hat():
    # the defining constraint of a normalized potential: the 2 x 2m
    # coefficient satisfies b1 b1^t = 0 exactly
    for example_id in (1, 2):
        pot = builtin_potential(example_id)
        b1 = pot.b1hat()
        prod = b1 @ b1.T
        assert all(e.is_zero() for row in prod for e in row)


# -- framed potentials -------------------------------------------------------


def _nilpotent_sample(n=4, seed=0):
    rng = np.random.default_rng(seed)
    d1 = np.zeros((n, n), dtype=complex)
    d1[0, 2] = 1.0 + 0.5j
    d1[1, 3] = -0.25j
    return d1


def test_wu_zero_framing_reproduces_the_potential():
    d1 = _nilpotent_sample()
    samples = [0j, 0.5 + 0.25j, -1.0 + 0.75j]
    for out in (
        wu_normalized_potential(None, d1, samples),
        wu_normalized_potential(np.zeros((4, 4)), d1, samples),
    ):
        assert len(out) == len(samples)
        for got in out:
            assert np.array_equal(got, d1)


def test_wu_constant_framing_matches_matrix_exponential():
    d1 = _nilpotent_sample()
    rng = np.random.default_rng(5)
    d0 = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 0.3
    samples = [0.4 + 0.1j, -0.3 + 0.8j, 1.1 - 0.2j]
    got = wu_normalized_potential(d0, d1, samples)
    for z, g in zip(samples, got):
        F0 = expm(z * d0)
        want = F0 @ d1 @ np.linalg.inv(F0)
        assert np.abs(g - want).max() < 1e-10


def test_wu_callable_framing_agrees_with_constant_closed_form():
    # a constant and the callable returning it take the same RK4 loop, so
    # they agree bit for bit; step doubling lands on the exponential
    d1 = _nilpotent_sample()
    rng = np.random.default_rng(11)
    d0 = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) * 0.2
    samples = [0.6 - 0.3j, -0.9j, 0j]
    got = wu_normalized_potential(lambda z: d0, d1, samples)
    for z, g, c in zip(samples, got, wu_normalized_potential(d0, d1, samples)):
        assert np.array_equal(g, c)
        F0 = expm(z * d0)
        want = F0 @ d1 @ np.linalg.inv(F0)
        assert np.abs(g - want).max() < 1e-9


def test_wu_step_doubling_guard_fires(monkeypatch):
    import willmore.potentials
    from willmore.errors import StepSizeTooCoarse

    # a cap of 128 steps allows one comparison, 64 against 128 steps
    monkeypatch.setattr(willmore.potentials, "_FRAMING_MAX_STEPS", 128)
    d1 = _nilpotent_sample()
    wild = lambda z: np.diag([20.0 * np.sin(47 * z.real)] * 4).astype(complex)
    with pytest.raises(StepSizeTooCoarse, match="within 128 steps"):
        wu_normalized_potential(wild, d1, [2.0 + 0j])
