"""Two-basis phase readout for Fourier factor qubits.

A factor qubit (|0> + e^{2 pi i theta}|1>)/sqrt(2) with theta = x/2^j is
measured against one of two rotated bases, yielding an outcome l in {0,1,2,3}
that names the closest of the four reference phases l/4.  Outcomes 0/2 come
from one basis, 1/3 from the other, and with k samples per position the
per-position mode is wrong with probability below 4*e^{-k/8}.  A prefix
product over four 0/1 transfer matrices converts the winning outcomes back
into the bits of x.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reconstruct_batch",
    "failure_bound",
]

# Outcome l's transfer matrix: A_0 = [[1,0],[0,1]], A_1 = [[1,1],[0,0]],
# A_2 = [[0,1],[1,0]], A_3 = [[0,0],[1,1]]; saturated to 0/1, A_l A_s = A_{_PRODUCT_TABLE[l, s]}.
_PRODUCT_TABLE = np.array([[0, 1, 2, 3], [1, 1, 1, 1], [2, 3, 0, 1], [3, 3, 3, 3]], dtype=np.int64)
# bit read off a prefix product: entry (row 2, column 1) in 1-based terms
_STATE_BIT = np.array([0, 0, 1, 1], dtype=np.uint64)


def basis_probs(theta) -> np.ndarray:
    """cos^2(pi*(theta - l/4)) for l = 0..3, vectorized over a phase array.

    Last axis indexes the outcome; whatever the phase, the likeliest outcome
    has probability at least 1/2 + sqrt(2)/4.
    """
    t = np.asarray(theta, dtype=float)[..., None] - np.arange(4) / 4.0
    return np.cos(np.pi * t) ** 2


def reconstruct_batch(ls: np.ndarray) -> np.ndarray:
    """Recover x from each row l_1..l_n (l_1 first) of an (m, n <= 64) outcome array, as uint64.

    Bit j of a row's result is entry [2,1] (1-based) of A_{l_j} ... A_{l_1}.
    If some l_j is more than 1/8 of a turn from x/2^j the output is
    unspecified but still a valid n-bit value.
    """
    ls = np.asarray(ls, dtype=np.int64)
    if ls.ndim != 2:
        raise ValueError("expected a 2-d outcome array")
    if ls.shape[1] > 64:
        raise ValueError(f"at most 64 positions fit a uint64, got {ls.shape[1]}")
    if ls.size and (ls.min() < 0 or ls.max() > 3):
        raise ValueError("outcomes must be in 0..3")
    state = np.zeros(ls.shape[0], dtype=np.int64)
    x = np.zeros(ls.shape[0], dtype=np.uint64)
    for j in range(ls.shape[1]):
        state = _PRODUCT_TABLE[ls[:, j], state]
        x |= _STATE_BIT[state] << np.uint64(j)
    return x


def failure_bound(n: int, k: int) -> float:
    """Union bound on the probability that any position's mode is wrong."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"sample count must be >= 0, got {k}")
    return min(1.0, 4.0 * n * math.exp(-k / 8.0))
