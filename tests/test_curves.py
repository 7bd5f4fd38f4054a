# tests/test_curves.py

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmx.curves import CUSPIDAL, ELLIPTIC, NODAL, ZERO_TOL, classify, discriminant

from oracles import eisenstein


def test_classify_examples():
    assert classify(0, 0) == CUSPIDAL
    assert classify(4, 0) == ELLIPTIC       # Delta = 64
    assert classify(3, 1) == NODAL          # Delta = 27 - 27 = 0
    assert discriminant(4, 0) == 64


def test_classify_zero_tolerance():
    assert classify(1e-13, 1e-13) == CUSPIDAL
    # g2 is above the tolerance, so not cuspidal; Delta = 8e-36 is below it
    assert classify(2 * ZERO_TOL, 0) == NODAL


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(min_magnitude=0.01, max_magnitude=1.5,
                          allow_nan=False, allow_infinity=False))
def test_nodal_locus(t):
    # points on the discriminant: g2 = 3 t^2, g3 = t^3 gives Delta = 0; the
    # magnitude is kept small enough that float rounding stays below the
    # absolute zero tolerance
    assert classify(3 * t**2, t**3) == NODAL


def test_eisenstein_square_lattice_g3_vanishes():
    # multiplication by i preserves the square lattice and flips the
    # weight-6 sum, so g3(i) = 0
    g2, g3 = eisenstein(1j, cutoff=200)
    assert abs(g3) < 1e-8
    assert abs(g2) > 1.0


def test_eisenstein_lattice_invariance():
    # same lattice, different basis: the square truncation windows differ,
    # so agreement is limited by the O(cutoff^-2) tails
    tau = 0.2 + 1.3j
    g2a, g3a = eisenstein(tau, cutoff=400)
    g2b, g3b = eisenstein(tau + 1, cutoff=400)
    assert abs(g2a - g2b) < 1e-5 * abs(g2a)
    assert abs(g3a - g3b) < 1e-5 * max(1.0, abs(g3a))


def test_eisenstein_discriminant_nonzero_at_i():
    g2, g3 = eisenstein(1j, cutoff=200)
    assert abs(discriminant(g2, g3)) > 1e-3


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j, -0.4 + 0.95j, 0.5 + 2.0j])
def test_classify_of_eisenstein_is_elliptic(tau):
    g2, g3 = eisenstein(tau, cutoff=200)
    assert classify(g2, g3) == ELLIPTIC


def test_eisenstein_convergence():
    # the direct square-window sum converges at second order in the cutoff:
    # doubling the window shrinks the change by ~4; at 200 vs 400 the
    # relative difference is ~2e-6 for Im tau >= 0.8
    for tau in (1j, 0.3 + 0.8j):
        a2 = eisenstein(tau, cutoff=200)[0]
        b2 = eisenstein(tau, cutoff=400)[0]
        c2 = eisenstein(tau, cutoff=800)[0]
        assert abs(a2 - b2) < 1e-5 * abs(b2)
        ratio = abs(a2 - b2) / abs(b2 - c2)
        assert 3.0 < ratio < 5.0


def test_eisenstein_input_validation():
    with pytest.raises(ValueError):
        eisenstein(1.0 - 1j)
    with pytest.raises(ValueError):
        eisenstein(1j, cutoff=0)
