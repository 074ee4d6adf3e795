"""Independent references for the benchmark's checks.

Nothing here imports qftkit: every expected value is recomputed from its
definition with numpy and plain integers, so a fault in the program cannot
hide in its own check.
"""

from __future__ import annotations

import math

import numpy as np


def bit_reversal(n: int) -> np.ndarray:
    """rev[y] = the n-bit reversal of y; the builders' carry order is y -> rev[y]."""
    y = np.arange(1 << n)
    rev = np.zeros_like(y)
    for b in range(n):
        rev |= ((y >> b) & 1) << (n - 1 - b)
    return rev


def dft_column(n: int, x: int) -> np.ndarray:
    """Column x of the 2^n-point DFT, entry exp(2 pi i x y / 2^n) / 2^(n/2) at y."""
    e = np.zeros(1 << n, dtype=np.complex128)
    e[x] = 1.0
    return np.fft.ifft(e, norm="ortho")


def dft_matrix(n: int) -> np.ndarray:
    """The 2^n-point DFT matrix with entry (y, x) = exp(2 pi i x y / 2^n) / 2^(n/2)."""
    return np.fft.ifft(np.eye(1 << n, dtype=np.complex128), axis=0, norm="ortho")


def banded_bound(n: int, b: int) -> float:
    """Operator-norm bound for the ladder with every CP beyond distance b dropped.

    The ladder has one CP(1/2^(d+1)) per wire pair at distance d; dropping it
    moves the operator by |e^(2 pi i / 2^(d+1)) - 1| <= 2 pi / 2^(d+1).  The band
    is clamped to [1, n] as the builder clamps it.
    """
    b = max(1, min(b, n))
    return sum(
        2.0 * math.pi / (1 << (d + 1)) for i in range(n) for t in range(i) if (d := i - t) > b
    )


def prefix_sums(values: list[int], n: int) -> list[int]:
    """Running sums of ``values`` mod 2^n."""
    out, acc = [], 0
    for v in values:
        acc = (acc + v) % (1 << n)
        out.append(acc)
    return out


def multiplicative_order(a: int, modulus: int) -> int:
    if math.gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    r, v = 1, a % modulus
    while v != 1:
        v = v * a % modulus
        r += 1
    return r


def order_distribution(modulus: int, a: int) -> np.ndarray:
    """P(y) of order finding on a 2*bitlen(modulus)-qubit register, by FFT over cosets.

    After the modular exponentiation the register holds, for each residue,
    the uniform superposition over one coset x = s, s + r, s + 2r, ... below
    M.  A coset's transform has the magnitude of the coset starting at 0 with
    the same element count, so two FFTs of length M cover all r cosets.
    """
    m = 1 << (2 * modulus.bit_length())
    r = multiplicative_order(a, modulus)
    full, rem = divmod(m, r)

    def coset_power(count: int) -> np.ndarray:
        indicator = np.zeros(m)
        indicator[: count * r : r] = 1.0
        return np.abs(np.fft.fft(indicator)) ** 2

    return (rem * coset_power(full + 1) + (r - rem) * coset_power(full)) / float(m) ** 2


def odd_composites(lo: int, hi: int) -> list[int]:
    """Odd composites in [lo, hi] that are not prime powers (the factoring loop's real case)."""
    out = []
    for n in range(lo | 1, hi + 1, 2):
        p = next((q for q in range(3, math.isqrt(n) + 1, 2) if n % q == 0), None)
        if p is None:
            continue
        rest = n
        while rest % p == 0:
            rest //= p
        if rest > 1:
            out.append(n)
    return out
