"""The shared machine's current speed, measured with a fixed kernel.

Other tenants slow this machine's cores by up to half for minutes at a time,
and every op of a run slows with them. Each worker process therefore times a
fixed kernel, which is not part of the program under test, before its first
op and after every op. The time metrics of a run are its wall seconds
rescaled to the speed at which the kernel takes REFERENCE_S:

    seconds * REFERENCE_S / (median kernel seconds of the run)

A change to the program moves these figures as it moves wall time; a change
of the machine's speed from one run to the next moves the kernel too and
cancels out. The median over the whole run keeps the kernel's own
sample-to-sample noise out of the figures.
"""

from __future__ import annotations

import functools
import time

# Kernel seconds at the speed the time metrics are reported for: about the
# kernel's time on a 2-core x86_64 machine (Python 3.11, scipy 1.17) while
# other tenants were quiet. Under their load it took up to 0.23 s.
REFERENCE_S = 0.15

_GRID = 60               # sparse LU of the 5-point Laplacian on a 60x60 grid
_FACTORIZATIONS = 12
_LOOP = 600_000          # interpreter-bound loop, like the program's per-facet calls


@functools.lru_cache(maxsize=1)
def _matrix():
    import numpy as np
    import scipy.sparse as sp

    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
    eye = sp.identity(_GRID)
    return (sp.kron(eye, line) + sp.kron(line, eye)).tocsc(), np.ones(_GRID * _GRID)


def calibrate() -> float:
    """Wall seconds of one run of the fixed kernel."""
    from scipy.sparse.linalg import splu

    matrix, rhs = _matrix()
    t0 = time.perf_counter()
    for _ in range(_FACTORIZATIONS):
        splu(matrix).solve(rhs)
    total = 0
    for i in range(_LOOP):
        total += i % 7
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
