"""Chinese-remainder factorizations of the DFT and estimation for other moduli.

Everything in this module lives at the matrix / statevector level.  The CRT
side re-indexes a tensor product of small DFTs by two index permutations, the
residue map and a per-coordinate unit multiplication (``crt_maps``), and
checks that this reproduces the full transform exactly; no matrix product is
formed.  The estimation side checks that a Fourier state for an arbitrary
modulus, read out through an inverse power-of-2 transform, lets the phase
index be recovered by rounding, with per-sample success above one half, and
that the mode of ``ESTIMATE_COPIES`` rounded readouts is x.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError
from .sim import MAX_DFT_DIM, dft_reference

DEFAULT_PADDING_BITS = 3
ESTIMATE_COPIES = 25

# every composite up to MAX_DFT_DIM = 4096 < 67^2 has a prime factor <= 61, so
# trial division by this list leaves a prime (or 1) behind
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def prime_power_factors(m: int) -> tuple[int, ...]:
    """Pairwise coprime prime-power factors of ``m``, smallest prime first."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if m > MAX_DFT_DIM:
        raise CapacityError(f"modulus {m} exceeds factorization cap {MAX_DFT_DIM}")
    factors = []
    rest = m
    for p in _SMALL_PRIMES:
        if rest == 1:
            break
        q = 1
        while rest % p == 0:
            q *= p
            rest //= p
        if q > 1:
            factors.append(q)
    if rest > 1:
        factors.append(rest)
    return tuple(factors)


def crt_maps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Index permutations (c, a) of the residue-space factorization of Z_m.

    Over the factors m_j of ``prime_power_factors(m)``, ``c[x]`` is the
    Kronecker row of x's residue tuple, coordinate 0 most significant, and
    ``a[i]`` is the row of tuple i after coordinate j is multiplied by
    g_j = (m / m_j)^(-1) mod m_j.  Both are bijections (each g_j is a unit
    mod m_j); this is the Good-Thomas prime-factor index map.
    """
    factors = prime_power_factors(m)
    rows = np.arange(m)
    c = np.zeros(m, dtype=np.int64)
    a = np.zeros(m, dtype=np.int64)
    stride = m
    for f in factors:
        stride //= f
        c = c * f + rows % f
        a += (pow(m // f, -1, f) * (rows // stride % f) % f) * stride
    return c, a


def mixed_radix_qft(m: int) -> np.ndarray:
    """Assemble the m-point transform from per-factor transforms.

    With K = F_{m_1} x ... x F_{m_k} and C, A the permutation matrices of
    ``crt_maps(m)``, C^T K A C has entry K[c[x], a[c[y]]] at (x, y), which
    equals ``dft_reference(m)`` exactly up to floating point.  The size is
    limited by ``prime_power_factors``' cap, ``MAX_DFT_DIM``, as ``dft_reference`` is.
    """
    c, a = crt_maps(m)
    kron = np.ones((1, 1), dtype=np.complex128)
    for f in prime_power_factors(m):
        kron = np.kron(kron, dft_reference(f))
    return kron[np.ix_(c, a[c])]


# --- arbitrary-modulus estimation --------------------------------------------


def padded_fourier_probs(m: int, x: int, k_bits: int) -> np.ndarray:
    """Readout distribution of the zero-padded Fourier state.

    The modulus-m Fourier state with phase index x is embedded into 2^k_bits
    dimensions (zero amplitude above m) and passed through the inverse
    power-of-2 transform, one FFT of the padded vector; entry y is the
    probability of observing y.
    """
    if not 0 <= x < m:
        raise ValueError(f"phase index {x} not in [0, {m})")
    dim = 1 << k_bits
    if dim > MAX_DFT_DIM:
        raise CapacityError(f"2^{k_bits} exceeds DFT cap {MAX_DFT_DIM}")
    if dim < m:
        raise ValueError(f"2^{k_bits} must be at least the modulus {m}")
    psi = np.exp(2j * np.pi * x * np.arange(m) / m) / np.sqrt(m)
    return np.abs(np.fft.fft(psi, dim) / np.sqrt(dim)) ** 2


def estimate_from_sample(y: int, m: int, k_bits: int) -> int:
    """round(y * m / 2^k_bits) mod m, in exact integer arithmetic."""
    return ((y * m + (1 << (k_bits - 1))) >> k_bits) % m


def _mode_probability(q: np.ndarray, x: int, copies: int) -> float:
    """P(np.argmax of the outcome counts of ``copies`` draws from ``q`` is x).

    argmax breaks ties to the smallest index, so with x counted c times every
    j < x needs fewer than c and every j > x at most c.  For each c the other
    outcomes' series sum_t q_j^t / t!, truncated so, are multiplied out.
    """
    fact = np.array([math.factorial(t) for t in range(copies + 1)], dtype=float)
    total = 0.0
    for c in range(1, copies + 1):
        rest = np.ones(1)
        for j, qj in enumerate(q):
            if j != x:
                top = c if j > x else c - 1
                rest = np.convolve(rest, qj ** np.arange(top + 1) / fact[: top + 1])[: copies - c + 1]
        if rest.size > copies - c:
            total += q[x] ** c / fact[c] * rest[copies - c]
    return float(total * fact[copies])


def arbitrary_modulus_estimate(m: int, x: int) -> dict:
    """Recover a Fourier phase index by repeated padded power-of-2 readout.

    Each of ``ESTIMATE_COPIES`` samples measures an independent padded Fourier
    state and rounds the outcome back to Z_m; the mode of the rounded
    estimates is the recovered index.  Reports the exact per-sample success
    probability and the exact probability that the mode is x.  The readout
    register has ``k_bits = m.bit_length() - 1 + DEFAULT_PADDING_BITS`` wires,
    so ``padded_fourier_probs``' check 2^k_bits <= ``MAX_DFT_DIM`` limits m to
    1023.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    k_bits = m.bit_length() - 1 + DEFAULT_PADDING_BITS
    probs = padded_fourier_probs(m, x, k_bits)
    rounded = np.array([estimate_from_sample(y, m, k_bits) for y in range(probs.size)])
    q = np.bincount(rounded, weights=probs, minlength=m)
    return {
        "m": m,
        "x": x,
        "k_bits": k_bits,
        "copies": ESTIMATE_COPIES,
        "success_probability": float(q[x]),
        "mode_probability": _mode_probability(q, x, ESTIMATE_COPIES),
    }
