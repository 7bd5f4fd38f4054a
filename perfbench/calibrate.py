"""Reference kernel that gauges how fast the CPU runs at the moment.

On a shared host the same code runs slower while other tenants load the
machine (lower clock, shared caches and cores), and CPU time does not leave
that out.  The benchmark therefore runs this fixed kernel between ops and
scales each op's CPU time by how much slower than KERNEL_REF_S the kernel
ran around it.  The kernel does the kinds of work rmx does, with the
benchmark's own code: a complex theta-like series in Python, small numpy
products, a Kronecker-layout einsum and a small SVD.  It never calls rmx,
so a change to rmx cannot change it.
"""

from __future__ import annotations

import cmath
import statistics
import time

import numpy as np

# CPU seconds of one kernel() on the reference machine (2-vCPU AMD EPYC
# VM, Python 3 with numpy on one OpenBLAS thread, idle host).  Times scaled
# by the kernel read as seconds on that machine.
KERNEL_REF_S = 0.0048
# Samples on each side of an op that set its scale (their median).
WINDOW = 3

_A = (np.arange(36, dtype=complex).reshape(6, 6) + 0.5j) / 36
_T = ((np.arange(4 ** 6).reshape((4,) * 6) % 7 - 3) + 1j) / 8


def _series(z: complex, tau: complex, terms: int) -> complex:
    q = cmath.exp(1j * cmath.pi * tau)
    s = 0j
    for k in range(-terms, terms + 1):
        s += q ** (k * k) * cmath.exp(2j * cmath.pi * k * z)
    return s


def kernel() -> float:
    """CPU seconds of one pass of the reference work."""
    t0 = time.thread_time()
    acc = 0j
    for i in range(150):
        acc += _series(0.1 + 0.004 * i, 1.1j, 12)
    m = _A
    for _ in range(100):
        m = np.kron(m[:2, :2], m[:3, :3]) @ _A
        m = m / np.abs(m).max() + 0.5j
    c = np.einsum("iajbkc,adbecf->idjekf", _T, _T)
    c = np.einsum("iajbkc,adbecf->idjekf", c / np.abs(c).max(), _T)
    s = np.linalg.svd(_A @ _A.T + np.eye(6))[1]
    if not (np.isfinite(acc) and np.isfinite(c).all() and np.isfinite(s).all()):
        raise ArithmeticError("reference kernel overflowed")
    return time.thread_time() - t0


def scales(samples: list) -> np.ndarray:
    """Slow-down of the CPU over each gap between kernel samples: the median
    of the WINDOW samples on either side of the gap over KERNEL_REF_S."""
    return np.array([statistics.median(samples[max(0, j + 1 - WINDOW):j + 1 + WINDOW])
                     for j in range(len(samples) - 1)]) / KERNEL_REF_S
