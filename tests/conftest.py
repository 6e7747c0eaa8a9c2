"""Shared fixtures: the two shipped pipelines, built once per session.

The exact backend is the expensive one (seconds per example), so every test
that needs an exact frame or surface pair pulls it from here.  The helpers
below evaluate a float pair at z as the program's callers do: they solve
the float witness at z and hand it to the pair's evaluators.
"""

import numpy as np
import pytest

from willmore.frames import integrate_frame
from willmore.iwasawa import assemble_frame, solve_iwasawa_exact, solve_iwasawa_float
from willmore.potentials import builtin_potential, to_nilpotent
from willmore.surfaces import extract_pair, induced_metric, metric_columns
from willmore.verify import _fd_offsets


def float_values(pair, z):
    """pair.values at a 1-D array of z: (Y, Yhat, errors)."""
    return pair.values(solve_iwasawa_float(pair.hf, z))


def float_metric(pair, which, z):
    """The float conformal factor of one lift at a 1-D array of z:
    (factors, errors)."""
    w = solve_iwasawa_float(pair.hf, z)
    return induced_metric(pair, which)(z, w, pair.values(w), metric_columns(pair, w))


def isotropy_lifts(pair, samples):
    """The lifts input of verify._isotropy_fd, each step's stencil around
    the samples factorized on its own."""
    offsets = _fd_offsets(pair.m)
    return lambda step: float_values(pair, np.array(
        [z + (a + 1j * b) * step for z in samples for a, b in offsets]))


@pytest.fixture(scope="session")
def hf1():
    return integrate_frame(to_nilpotent(builtin_potential(1)))


@pytest.fixture(scope="session")
def hf2():
    return integrate_frame(to_nilpotent(builtin_potential(2)))


@pytest.fixture(scope="session")
def frame1(hf1):
    return assemble_frame(hf1, solve_iwasawa_exact(hf1))


@pytest.fixture(scope="session")
def frame2(hf2):
    return assemble_frame(hf2, solve_iwasawa_exact(hf2))


@pytest.fixture(scope="session")
def pair1(frame1):
    return extract_pair(frame1, 1)


@pytest.fixture(scope="session")
def pair2(frame2):
    return extract_pair(frame2, 1)
