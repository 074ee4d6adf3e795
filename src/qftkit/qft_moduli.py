"""Chinese-remainder factorizations of the DFT and estimation for other moduli.

Everything in this module lives at the matrix / statevector level.  The CRT
side checks that conjugating a tensor product of small DFTs by the residue
permutation (and a per-coordinate unit multiplication) reproduces the full
transform exactly.  The estimation side checks that a Fourier state for an
arbitrary modulus, read out through an inverse power-of-2 transform, lets the
phase index be recovered by rounding, with per-sample success above one half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError
from .sim import DEFAULT_SEED, MAX_DFT_DIM, dft_reference

MAX_CRT_MODULUS = 4096
MAX_MIXED_RADIX_MODULUS = 1024
MAX_ESTIMATE_MODULUS = 512
DEFAULT_PADDING_BITS = 3

# every composite below MAX_CRT_MODULUS has a prime factor <= 61, so trial
# division by this list leaves a prime (or 1) behind
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def prime_power_factors(m: int) -> tuple[int, ...]:
    """Pairwise coprime prime-power factors of ``m``, smallest prime first."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if m > MAX_CRT_MODULUS:
        raise CapacityError(f"modulus {m} exceeds factorization cap {MAX_CRT_MODULUS}")
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


@dataclass(frozen=True)
class CrtBasis:
    """A modulus together with a pairwise coprime factorization of it."""

    m: int
    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))
        if self.m < 2:
            raise ValueError("modulus must be at least 2")
        if not self.factors:
            raise ValueError("factorization must be nonempty")
        prod = 1
        for f in self.factors:
            if f < 2:
                raise ValueError(f"factor {f} must be at least 2")
            prod *= f
        if prod != self.m:
            raise ValueError(f"factors multiply to {prod}, not {self.m}")
        for i, fi in enumerate(self.factors):
            for fj in self.factors[i + 1 :]:
                if math.gcd(fi, fj) != 1:
                    raise ValueError(f"factors {fi} and {fj} share a divisor")

    @classmethod
    def for_modulus(cls, m: int) -> CrtBasis:
        return cls(m, prime_power_factors(m))

    @property
    def cofactors(self) -> tuple[int, ...]:
        """f_j = m / m_j."""
        return tuple(self.m // f for f in self.factors)

    @property
    def inverses(self) -> tuple[int, ...]:
        """g_j = (m / m_j)^(-1) mod m_j."""
        return tuple(pow(self.m // f, -1, f) for f in self.factors)

    def residues(self, x: int) -> tuple[int, ...]:
        return tuple(x % f for f in self.factors)

    def reconstruct(self, residues: tuple[int, ...]) -> int:
        """The x in [0, m) with x = r_j (mod m_j) for every j."""
        total = 0
        for f_j, g_j, r_j in zip(self.cofactors, self.inverses, residues):
            total += f_j * g_j * r_j
        return total % self.m

    def tuple_index(self, residues: tuple[int, ...]) -> int:
        """Mixed-radix index of a residue tuple, coordinate 0 most significant.

        Matches the row ordering of a Kronecker product over the factors.
        """
        idx = 0
        for f, r in zip(self.factors, residues):
            idx = idx * f + (r % f)
        return idx


def crt_maps(basis: CrtBasis) -> tuple[np.ndarray, np.ndarray]:
    """Permutation matrices (C, A) of the residue-space factorization.

    C sends basis vector x to the mixed-radix index of its residue tuple;
    A multiplies coordinate j by g_j modulo m_j.  Both are exact 0/1
    matrices, and both are bijections (each g_j is a unit mod m_j).
    """
    m = basis.m
    if m > MAX_CRT_MODULUS:
        raise CapacityError(f"modulus {m} exceeds CRT cap {MAX_CRT_MODULUS}")
    c_mat = np.zeros((m, m))
    for x in range(m):
        c_mat[basis.tuple_index(basis.residues(x)), x] = 1.0
    a_mat = np.zeros((m, m))
    gs = basis.inverses
    for idx, tup in enumerate(product(*(range(f) for f in basis.factors))):
        mapped = tuple((g * r) % f for g, r, f in zip(gs, tup, basis.factors))
        a_mat[basis.tuple_index(mapped), idx] = 1.0
    return c_mat, a_mat


def mixed_radix_qft(basis: CrtBasis) -> np.ndarray:
    """Assemble the m-point transform from per-factor transforms.

    Returns C^T (F_{m_1} x ... x F_{m_k}) A C, which equals
    ``dft_reference(m)`` exactly up to floating point.
    """
    m = basis.m
    if m > MAX_MIXED_RADIX_MODULUS:
        raise CapacityError(f"modulus {m} exceeds mixed-radix cap {MAX_MIXED_RADIX_MODULUS}")
    c_mat, a_mat = crt_maps(basis)
    kron = np.ones((1, 1), dtype=np.complex128)
    for f in basis.factors:
        kron = np.kron(kron, dft_reference(f))
    return c_mat.T @ kron @ a_mat @ c_mat


# --- arbitrary-modulus estimation --------------------------------------------


def padded_fourier_probs(m: int, x: int, k_bits: int) -> np.ndarray:
    """Readout distribution of the zero-padded Fourier state.

    The modulus-m Fourier state with phase index x is embedded into 2^k_bits
    dimensions (zero amplitude above m) and passed through the inverse
    power-of-2 transform; entry y is the probability of observing y.
    """
    if not 0 <= x < m:
        raise ValueError(f"phase index {x} not in [0, {m})")
    dim = 1 << k_bits
    if dim > MAX_DFT_DIM:
        raise CapacityError(f"2^{k_bits} exceeds DFT cap {MAX_DFT_DIM}")
    if dim < m:
        raise ValueError(f"2^{k_bits} must be at least the modulus {m}")
    psi = np.zeros(dim, dtype=np.complex128)
    ys = np.arange(m)
    psi[:m] = np.exp(2j * np.pi * x * ys / m) / np.sqrt(m)
    out = dft_reference(dim).conj().T @ psi
    return np.abs(out) ** 2


def estimate_from_sample(y: int, m: int, k_bits: int) -> int:
    """round(y * m / 2^k_bits) mod m, in exact integer arithmetic."""
    return ((y * m + (1 << (k_bits - 1))) >> k_bits) % m


def arbitrary_modulus_estimate(
    m: int,
    x: int,
    *,
    copies: int = 25,
    seed: int | None = None,
) -> dict:
    """Recover a Fourier phase index by repeated padded power-of-2 readout.

    Each of ``copies`` samples measures an independent padded Fourier state
    and rounds the outcome back to Z_m; the mode of the rounded estimates is
    the recovered index.  Reports the exact per-sample success probability
    (from the readout distribution) alongside the empirical one.  The
    readout register has ``k_bits = m.bit_length() - 1 + DEFAULT_PADDING_BITS``
    wires.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if m > MAX_ESTIMATE_MODULUS:
        raise CapacityError(f"modulus {m} exceeds estimation cap {MAX_ESTIMATE_MODULUS}")
    if copies < 1:
        raise ValueError("copies must be positive")
    k_bits = m.bit_length() - 1 + DEFAULT_PADDING_BITS
    probs = padded_fourier_probs(m, x, k_bits)
    rounded = np.array([estimate_from_sample(y, m, k_bits) for y in range(probs.size)])
    success_probability = float(probs[rounded == x].sum())
    used_seed = DEFAULT_SEED if seed is None else seed
    rng = np.random.default_rng(used_seed)
    samples = rng.choice(probs.size, size=copies, p=probs)
    estimates = rounded[samples]
    counts = np.bincount(estimates, minlength=m)
    mode = int(np.argmax(counts))
    return {
        "m": m,
        "x": x,
        "k_bits": k_bits,
        "copies": copies,
        "mode": mode,
        "mode_correct": mode == x,
        "success_probability": success_probability,
        "empirical_success": float((estimates == x).mean()),
        "counts": tuple(int(c) for c in counts),
        "seed": used_seed,
    }
