"""Two-basis phase readout for Fourier factor qubits.

A factor qubit (|0> + e^{2 pi i theta}|1>)/sqrt(2) with theta = x/2^j is
measured against one of two rotated bases, yielding an outcome l in {0,1,2,3}
that names the closest of the four reference phases l/4.  Outcomes 0/2 come
from one basis, 1/3 from the other, and with k samples per position the
per-position mode is wrong with probability below 4*e^{-k/8}; the decoded
x is wrong with probability ``erase_failure``.  A prefix product over four
0/1 transfer matrices converts the winning outcomes back into the bits of x.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "reconstruct_batch",
    "erase_failure",
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


def erase_failure(n: int, k: int, x: int) -> float:
    """Exact probability that the per-position modes of k/2 readouts per basis decode to x-hat != x.

    Position j's mode is the argmax, ties to the smallest outcome, of (c0, c1,
    k/2 - c0, k/2 - c1) with c0 ~ Bin(k/2, p_0), c1 ~ Bin(k/2, p_1) at phase
    x/2^j, taken in log space (cos^2 never reaches 0 in floating point).  A walk
    over the four prefix-product states adds up the mass each position sends
    to a wrong bit, so tiny failures keep their precision.  O(n k^2).
    """
    if n < 1 or k < 2 or k % 2 or not 0 <= x < (1 << n):
        raise ValueError(f"need n >= 1, even k >= 2 and an input x in 0..2^n - 1, got {n}, {k}, {x}")
    half = k // 2
    c = np.arange(half + 1)
    modes = np.argmax(np.broadcast_arrays(c[:, None], c, half - c[:, None], half - c), axis=0)
    log_p = np.log(basis_probs([(x % (1 << j)) / (1 << j) for j in range(1, n + 1)]))[..., None]
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(half + 1)])
    pmf = np.exp(log_fact[-1] - log_fact - log_fact[::-1] + c * log_p[:, :2] + (half - c) * log_p[:, 2:])
    mode_probs = (pmf[:, 0] @ (modes == np.arange(4)[:, None, None]) * pmf[:, 1]).sum(axis=-1).T
    alive, failed = np.array([1.0, 0.0, 0.0, 0.0]), 0.0
    for j, q in enumerate(mode_probs):
        # outcome l moves the mass in state s to state _PRODUCT_TABLE[l, s]
        moved = np.bincount(_PRODUCT_TABLE.ravel(), weights=np.outer(q, alive).ravel(), minlength=4)
        wrong = _STATE_BIT != (x >> j) & 1
        failed += moved[wrong].sum()
        alive = np.where(wrong, 0.0, moved)
    return min(1.0, float(failed))


def failure_bound(n: int, k: int) -> float:
    """Union bound on the probability that any position's mode is wrong."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"sample count must be >= 0, got {k}")
    return min(1.0, 4.0 * n * math.exp(-k / 8.0))
