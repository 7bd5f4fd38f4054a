# src/rmx/curves.py

"""Weierstrass cubic curve data: discriminant classification of
zy^2 = 4x^3 - g2 x z^2 - g3 z^3."""

from __future__ import annotations

ELLIPTIC = "elliptic"
NODAL = "nodal"
CUSPIDAL = "cuspidal"

# absolute tolerance of classify's zero tests: raw floating (g2, g3) never
# hit zero exactly
ZERO_TOL = 1e-12


def discriminant(g2: complex, g3: complex) -> complex:
    return g2**3 - 27 * g3**2


def classify(g2: complex, g3: complex) -> str:
    """Curve type from (g2, g3): elliptic if Delta != 0, nodal if Delta = 0
    but (g2, g3) != (0, 0), cuspidal if both vanish (to ZERO_TOL)."""
    g2, g3 = complex(g2), complex(g3)
    if abs(g2) <= ZERO_TOL and abs(g3) <= ZERO_TOL:
        return CUSPIDAL
    if abs(discriminant(g2, g3)) <= ZERO_TOL:
        return NODAL
    return ELLIPTIC
