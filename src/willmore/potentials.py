"""Normalized potentials, their nilpotent image, and potential files.

A normalized potential is determined by two length-m lists of polynomials in
z (no zbar): h and hhat.  They interleave into the 2 x 2m block

    B1hat = [[h_1, i h_1, ..., h_m, i h_m],
             [hhat_1, i hhat_1, ..., hhat_m, i hhat_m]]

whose rows are isotropic by construction (each pair contributes
h^2 + (i h)^2 = 0), and the potential matrix is the pairing

    eta_-1 = [[0, B1hat], [-B1hat^t I11, 0]]

carried at loop power -1.  Pushing through the block-graded isometry gives
the strictly upper-triangular form with the m x 2 block fcheck,
fcheck[j] = (i (h_j - hhat_j), -i (h_j + hhat_j)).  to_nilpotent returns that
block as a read-only BiPoly array; frames.integrate_frame integrates it, and
the frame's potential_loop() carries it at loop power -1.

Potential files are JSON: {"m": int, "h": [[..], ..], "hhat": [[..], ..]}
where each polynomial is a list of [re, im] coefficient pairs by ascending
z power and re/im are exact rational strings "p/q" (plain numbers are also
accepted).  An optional "b1hat" key overrides the interleaved assembly with
an explicit 2 x 2m polynomial matrix; it exists so that a corrupted pairing
is expressible and the isotropy check has something real to catch.

NormalizedPotential is both the potential and its file form, override
included; the shipped examples are their files data/example<id>.json, which
builtin_potential reads.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np

from .errors import PotentialFormatError, StepSizeTooCoarse
from .loops import LoopMatrix, exact_equal, exact_matrix, exact_zeros
from .scalars import BP_ZERO, BiPoly, GR_I, GaussianRational


def _require_z_only(p: BiPoly, what: str):
    for (_, b) in p.terms:
        if b:
            raise ValueError("%s must be a polynomial in z only" % what)


class NormalizedPotential:
    """The (h, hhat) data of a normalized potential in dimension 2m+2.

    b1hat_override, when given, is an explicit 2 x 2m block that b1hat()
    returns in place of the interleaved one; eta_loop and to_nilpotent read
    only h and hhat.
    """

    def __init__(self, m: int, h, hhat, b1hat_override=None):
        if len(h) != m or len(hhat) != m:
            raise ValueError("expected %d polynomials in each of h, hhat" % m)
        self.m = m
        self.h = tuple(p if isinstance(p, BiPoly) else BiPoly.const(p) for p in h)
        self.hhat = tuple(p if isinstance(p, BiPoly) else BiPoly.const(p) for p in hhat)
        for j, p in enumerate(self.h):
            _require_z_only(p, "h[%d]" % j)
        for j, p in enumerate(self.hhat):
            _require_z_only(p, "hhat[%d]" % j)
        self.b1hat_override = (None if b1hat_override is None
                               else exact_matrix(b1hat_override))

    def _interleaved(self):
        row1, row2 = [], []
        for hj, hhj in zip(self.h, self.hhat):
            row1.extend([hj, hj * GR_I])
            row2.extend([hhj, hhj * GR_I])
        return exact_matrix([row1, row2])

    def b1hat(self):
        """The 2 x 2m block as a read-only BiPoly array: the override if
        there is one, else the interleaved block."""
        if self.b1hat_override is not None:
            return self.b1hat_override
        return self._interleaved()

    def pairing_consistent(self) -> bool:
        if self.b1hat_override is None:
            return True
        return exact_equal(self.b1hat_override, self._interleaved())

    def normalized(self) -> NormalizedPotential:
        if not self.pairing_consistent():
            raise PotentialFormatError(
                "b1hat override breaks the h/hhat pairing; refusing to synthesize"
            )
        return self

    def to_dict(self) -> dict:
        out = {
            "m": self.m,
            "h": [_poly_to_pairs(p) for p in self.h],
            "hhat": [_poly_to_pairs(p) for p in self.hhat],
        }
        if self.b1hat_override is not None:
            out["b1hat"] = [
                [_poly_to_pairs(p) for p in row] for row in self.b1hat_override
            ]
        return out

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def eta_loop(self) -> LoopMatrix:
        """The potential matrix at loop power -1, a BiPoly loop."""
        m = self.m
        d = 2 * m + 2
        B = self._interleaved()
        I11 = exact_matrix([[GaussianRational(-1), GaussianRational(0)],
                            [GaussianRational(0), GaussianRational(1)]])
        mat = np.block([
            [exact_zeros(2, 2, BP_ZERO), B],
            [-(B.T @ I11), exact_zeros(2 * m, 2 * m, BP_ZERO)],
        ])
        return LoopMatrix(d, d, {-1: mat})


def to_nilpotent(pot: NormalizedPotential) -> np.ndarray:
    """Closed-form image of the potential under the block-graded isometry:
    the m x 2 block fcheck, a read-only BiPoly array (integrate_frame takes it)."""
    return exact_matrix([((hj - hhj) * GR_I, (hj + hhj) * (-GR_I))
                         for hj, hhj in zip(pot.h, pot.hhat)])


def rank_and_classify(pot: NormalizedPotential):
    """Exact rank of B1hat plus the literal shape tag.

    Shapes are detected literally (not up to conjugation): equal rows, a
    vanishing first row, or a vanishing second row; otherwise rank 1 maps to
    the dual-pair tag and full rank to generic.
    """
    h, hh = pot.h, pot.hhat
    all_zero = all(p.is_zero() for p in h) and all(p.is_zero() for p in hh)
    if all_zero:
        rank = 0
    else:
        # Rank of the 2 x 2m B1hat equals the rank of the 2 x m matrix (h; hhat):
        # the paired columns (c, ic) are scalar multiples.  Use exact minors.
        rank = 1
        for j in range(pot.m):
            for k in range(pot.m):
                minor = h[j] * hh[k] - h[k] * hh[j]
                if not minor.is_zero():
                    rank = 2
                    break
            if rank == 2:
                break
    rows_equal = all((a - b).is_zero() for a, b in zip(h, hh))
    row1_zero = all(p.is_zero() for p in h)
    row2_zero = all(p.is_zero() for p in hh)
    if rows_equal:
        tag = "euclidean-minimal"
    elif row1_zero:
        tag = "spherical-minimal"
    elif row2_zero:
        tag = "hyperbolic-minimal"
    elif rank <= 1:
        tag = "dual-pair"
    else:
        tag = "generic"
    return rank, tag


# -- Wu-style potential from a harmonic-map framing ---------------------------


def wu_normalized_potential(delta0, delta1, z_samples, steps=None,
                            tol: float = 1e-12):
    """eta(z) = F0(z) delta1 F0(z)^-1 with F0' = F0 delta0, F0(0) = I.

    delta0 may be None/zero (then eta == delta1 everywhere), a constant
    matrix (closed form via the matrix exponential), or a callable z -> matrix
    integrated by RK4 along the segment [0, z] with step doubling.  Returns
    the loop-power -1 coefficient of eta at each sample as numpy arrays.
    """
    d1 = np.asarray(delta1, dtype=complex)
    n = d1.shape[0]
    if delta0 is None:
        return [d1.copy() for _ in z_samples]
    if not callable(delta0):
        d0 = np.asarray(delta0, dtype=complex)
        if not d0.any():
            return [d1.copy() for _ in z_samples]
        from scipy.linalg import expm

        out = []
        for z in z_samples:
            F0 = expm(z * d0)
            out.append(F0 @ d1 @ np.linalg.inv(F0))
        return out

    def integrate(z, nsteps):
        F = np.eye(n, dtype=complex)
        hstep = z / nsteps
        t = 0j
        for _ in range(nsteps):
            k1 = F @ delta0(t)
            k2 = (F + 0.5 * hstep * k1) @ delta0(t + 0.5 * hstep)
            k3 = (F + 0.5 * hstep * k2) @ delta0(t + 0.5 * hstep)
            k4 = (F + hstep * k3) @ delta0(t + hstep)
            F = F + (hstep / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += hstep
        return F

    out = []
    for z in z_samples:
        if z == 0:
            out.append(d1.copy())
            continue
        if steps is not None:
            coarse = integrate(z, steps)
            fine = integrate(z, 2 * steps)
            scale = max(1.0, float(abs(fine).max()))
            if float(abs(fine - coarse).max()) > tol * scale:
                raise StepSizeTooCoarse(
                    "step doubling disagrees at z=%r with %d steps" % (z, steps)
                )
            F0 = fine
        else:
            nsteps = 64
            F0 = None
            coarse = integrate(z, nsteps)
            while nsteps <= 1 << 14:
                fine = integrate(z, 2 * nsteps)
                scale = max(1.0, float(abs(fine).max()))
                if float(abs(fine - coarse).max()) <= tol * scale:
                    F0 = fine
                    break
                coarse = fine
                nsteps *= 2
            if F0 is None:
                raise StepSizeTooCoarse(
                    "no convergence at z=%r within %d steps" % (z, nsteps)
                )
        out.append(F0 @ d1 @ np.linalg.inv(F0))
    return out


# -- potential files ----------------------------------------------------------


def _coeff_to_pair(c: GaussianRational):
    return [str(c.re), str(c.im)]


def _poly_to_pairs(p: BiPoly):
    _require_z_only(p, "potential entry")
    deg = max((a for (a, _) in p.terms), default=0)
    out = []
    for k in range(deg + 1):
        c = p.terms.get((k, 0), None)
        out.append(_coeff_to_pair(c) if c is not None else ["0", "0"])
    return out

def _parse_rational(x, where: str) -> Fraction:
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise PotentialFormatError("bad rational %r in %s: %s" % (x, where, e))
    if isinstance(x, bool):
        raise PotentialFormatError("boolean is not a number in %s" % where)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise PotentialFormatError("non-finite number %r in %s" % (x, where))
        return Fraction(x)
    raise PotentialFormatError("expected rational string or number in %s" % where)


def _parse_poly(entry, where: str) -> BiPoly:
    if not isinstance(entry, list):
        raise PotentialFormatError("%s must be a list of [re, im] pairs" % where)
    terms = {}
    for k, pair in enumerate(entry):
        if not isinstance(pair, list) or len(pair) != 2:
            raise PotentialFormatError(
                "%s coefficient %d must be a [re, im] pair" % (where, k)
            )
        re = _parse_rational(pair[0], "%s[%d].re" % (where, k))
        im = _parse_rational(pair[1], "%s[%d].im" % (where, k))
        c = GaussianRational(re, im)
        if not c.is_zero():
            terms[(k, 0)] = c
    return BiPoly(terms)


def parse_potential(data) -> NormalizedPotential:
    if not isinstance(data, dict):
        raise PotentialFormatError("potential document must be a JSON object")
    try:
        m = data["m"]
    except KeyError:
        raise PotentialFormatError("missing key 'm'")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise PotentialFormatError("'m' must be a positive integer")
    for key in ("h", "hhat"):
        if key not in data:
            raise PotentialFormatError("missing key %r" % key)
        if not isinstance(data[key], list) or len(data[key]) != m:
            raise PotentialFormatError("%r must list %d polynomials" % (key, m))
    h = [_parse_poly(e, "h[%d]" % j) for j, e in enumerate(data["h"])]
    hhat = [_parse_poly(e, "hhat[%d]" % j) for j, e in enumerate(data["hhat"])]
    override = None
    if "b1hat" in data:
        rows = data["b1hat"]
        if not isinstance(rows, list) or len(rows) != 2:
            raise PotentialFormatError("'b1hat' must have exactly 2 rows")
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2 * m:
                raise PotentialFormatError(
                    "'b1hat' row %d must list %d polynomials" % (i, 2 * m)
                )
            parsed.append([_parse_poly(e, "b1hat[%d][%d]" % (i, j))
                           for j, e in enumerate(row)])
        override = parsed
    return NormalizedPotential(m, h, hhat, override)


def load_potential(path) -> NormalizedPotential:
    with open(path, "r") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PotentialFormatError(e.msg, line=e.lineno, column=e.colno)
    return parse_potential(data)


def save_potential(doc: NormalizedPotential, path):
    with open(path, "w") as fh:
        json.dump(doc.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def builtin_potential(example_id: int) -> NormalizedPotential:
    """Shipped example 1 or 2, read from its file data/example<id>.json."""
    if example_id not in (1, 2):
        raise ValueError("example_id must be 1 or 2")
    src = resources.files("willmore").joinpath("data/example%d.json" % example_id)
    with resources.as_file(src) as path:
        return load_potential(path)
