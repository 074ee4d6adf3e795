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
from typing import Sequence

import numpy as np

__all__ = [
    "TRANSFER_MATRICES",
    "transfer_matrix",
    "transfer_product_index",
    "reconstruct_x",
    "reconstruct_batch",
    "failure_bound",
    "bernoulli_bound",
]

TRANSFER_MATRICES: tuple[np.ndarray, ...] = (
    np.array([[1, 0], [0, 1]], dtype=np.int64),
    np.array([[1, 1], [0, 0]], dtype=np.int64),
    np.array([[0, 1], [1, 0]], dtype=np.int64),
    np.array([[0, 0], [1, 1]], dtype=np.int64),
)


def _build_product_table() -> np.ndarray:
    # closure of {A0..A3} under multiplication, tabulated once
    table = np.zeros((4, 4), dtype=np.int64)
    for l in range(4):
        for s in range(4):
            prod = TRANSFER_MATRICES[l] @ TRANSFER_MATRICES[s]
            prod = np.minimum(prod, 1)
            for idx, m in enumerate(TRANSFER_MATRICES):
                if np.array_equal(prod, m):
                    table[l, s] = idx
                    break
            else:  # pragma: no cover - closure is a structural fact
                raise AssertionError("transfer matrices not closed under product")
    return table


_PRODUCT_TABLE = _build_product_table()
# bit read off a prefix product: entry (row 2, column 1) in 1-based terms
_STATE_BIT = np.array([int(m[1][0]) for m in TRANSFER_MATRICES], dtype=np.uint64)


def transfer_matrix(l: int) -> np.ndarray:
    """The 2x2 transfer matrix attached to outcome ``l``."""
    if l not in (0, 1, 2, 3):
        raise ValueError(f"outcome must be in 0..3, got {l}")
    return TRANSFER_MATRICES[l].copy()


def transfer_product_index(l: int, state: int) -> int:
    """Index of A_l @ A_state inside the four-element closure."""
    return int(_PRODUCT_TABLE[l, state])


def basis_probs(theta) -> np.ndarray:
    """cos^2(pi*(theta - l/4)) for l = 0..3, vectorized over a phase array.

    Last axis indexes the outcome; whatever the phase, the likeliest outcome
    has probability at least 1/2 + sqrt(2)/4.
    """
    t = np.asarray(theta, dtype=float)[..., None] - np.arange(4) / 4.0
    return np.cos(np.pi * t) ** 2


def reconstruct_x(ls: Sequence[int]) -> int:
    """Recover x from per-position outcomes l_1..l_n (l_1 first, 1/4-accuracy each).

    Bit j of the result is entry [2,1] (1-based) of A_{l_j} ... A_{l_1}.  If
    some l_j is more than 1/8 of a turn from x/2^j the output is unspecified
    but still a valid n-bit value.
    """
    x = 0
    state = 0
    for j, l in enumerate(ls):
        if l not in (0, 1, 2, 3):
            raise ValueError(f"outcome must be in 0..3, got {l}")
        state = int(_PRODUCT_TABLE[l, state])
        x |= int(_STATE_BIT[state]) << j
    return x


def reconstruct_batch(ls: np.ndarray) -> np.ndarray:
    """Vectorised reconstruct_x over rows of an (m, n <= 64) outcome array, as uint64."""
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


def bernoulli_bound(p_x: float, p_y: float, t: int) -> float:
    """Chernoff bound 2*e^{-(p_y-p_x)^2 t/2} on t samples confusing the two rates."""
    if t < 1:
        raise ValueError(f"sample count must be >= 1, got {t}")
    if p_x >= p_y:
        raise ValueError("requires p_x < p_y")
    return 2.0 * math.exp(-((p_y - p_x) ** 2) * t / 2.0)
