# src/rmx/curves.py

"""Weierstrass cubic curve data: discriminant classification of
zy^2 = 4x^3 - g2 x z^2 - g3 z^3 and the Eisenstein map tau -> (g2, g3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

ELLIPTIC = "elliptic"
NODAL = "nodal"
CUSPIDAL = "cuspidal"


def discriminant(g2: complex, g3: complex) -> complex:
    return g2**3 - 27 * g3**2


def classify(g2: complex, g3: complex, zero_tol: float = 1e-12) -> str:
    """Curve type from (g2, g3): elliptic if Delta != 0, nodal if Delta = 0
    but (g2, g3) != (0, 0), cuspidal if both vanish.

    zero_tol is the absolute tolerance of the zero tests (raw floating
    (g2, g3) never hit zero exactly).
    """
    g2, g3 = complex(g2), complex(g3)
    if abs(g2) <= zero_tol and abs(g3) <= zero_tol:
        return CUSPIDAL
    if abs(discriminant(g2, g3)) <= zero_tol:
        return NODAL
    return ELLIPTIC


@dataclass(frozen=True)
class CurveSpec:
    """Either a normalized type tag (with tau for the elliptic case) or raw
    Weierstrass coefficients."""

    kind: str
    tau: Optional[complex] = None
    g2: Optional[complex] = None
    g3: Optional[complex] = None

    def __post_init__(self):
        if self.kind not in (ELLIPTIC, NODAL, CUSPIDAL):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind == ELLIPTIC and self.tau is not None:
            if complex(self.tau).imag <= 0:
                raise ValueError("elliptic tau must satisfy Im(tau) > 0")

    @classmethod
    def from_g2g3(cls, g2: complex, g3: complex) -> "CurveSpec":
        return cls(classify(g2, g3), g2=complex(g2), g3=complex(g3))

    @classmethod
    def elliptic(cls, tau: complex) -> "CurveSpec":
        return cls(ELLIPTIC, tau=complex(tau))

    @classmethod
    def nodal(cls) -> "CurveSpec":
        return cls(NODAL)

    @classmethod
    def cuspidal(cls) -> "CurveSpec":
        return cls(CUSPIDAL)


@dataclass(frozen=True)
class ModuliCoord:
    """Moduli / Jacobian coordinate: elliptic x in C (mod lattice), nodal
    lambda in C^*, cuspidal lambda in C."""

    kind: str
    value: complex

    def __post_init__(self):
        if self.kind not in (ELLIPTIC, NODAL, CUSPIDAL):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind == NODAL and self.value == 0:
            raise ValueError("nodal moduli coordinate must be nonzero")


def eisenstein(tau: complex, cutoff: int = 200) -> tuple:
    """(g2, g3) of the lattice Z + Z tau by direct Eisenstein summation:
    g2 = 60 sum' w^-4, g3 = 140 sum' w^-6 over w = m' + m'' tau with
    |m'|, |m''| <= cutoff, (0,0) excluded."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    m = np.arange(-cutoff, cutoff + 1)
    mp, mpp = np.meshgrid(m, m, indexing="ij")
    w = mp + mpp * tau
    w = w[(mp != 0) | (mpp != 0)]
    # sum smallest terms first (largest |w| first)
    w = w[np.argsort(-np.abs(w))]
    return 60.0 * complex(np.sum(w**-4)), 140.0 * complex(np.sum(w**-6))
