"""Each reference checked on tiny cases against its definition.

Run with ``python3 -m pytest bench/test_references.py``.
"""

import itertools
import math

import numpy as np

import references as ref


def test_dft_matrix_and_columns_match_the_definition_sum():
    n = 3
    m = 1 << n
    want = np.array(
        [[np.exp(2j * np.pi * x * y / m) / math.sqrt(m) for x in range(m)] for y in range(m)]
    )
    assert np.allclose(ref.dft_matrix(n), want, atol=1e-12)
    for x in range(m):
        assert np.allclose(ref.dft_column(n, x), want[:, x], atol=1e-12)


def test_bit_reversal_reverses_bits():
    assert list(ref.bit_reversal(3)) == [0, 4, 2, 6, 1, 5, 3, 7]


def _cp_matrix(n, a, b, turns):
    diag = np.ones(1 << n, dtype=np.complex128)
    for idx in range(1 << n):
        if idx >> a & 1 and idx >> b & 1:
            diag[idx] = np.exp(2j * np.pi * turns)
    return np.diag(diag)


def _ladder_unitary(n, band=None):
    # gate-by-gate product of the textbook ladder, data wire i = bit i
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    u = np.eye(1 << n, dtype=np.complex128)
    for i in range(n - 1, -1, -1):
        hi = np.kron(np.kron(np.eye(1 << (n - 1 - i)), h), np.eye(1 << i))
        u = hi @ u
        for t in range(i - 1, -1, -1):
            if band is None or i - t <= band:
                u = _cp_matrix(n, i, t, 1 / 2 ** (i - t + 1)) @ u
    return u


def test_banded_bound_covers_the_exact_operator_distance():
    for n in (3, 4, 5):
        for b in range(1, n):
            exact = _ladder_unitary(n)
            banded = _ladder_unitary(n, band=b)
            dist = np.linalg.norm(exact - banded, 2)
            assert dist <= ref.banded_bound(n, b) + 1e-12
    # the definition: one dropped CP(1/2^(d+1)) per wire pair at distance d > b
    assert math.isclose(ref.banded_bound(4, 1), 2 * 2 * math.pi / 8 + 2 * math.pi / 16)
    assert ref.banded_bound(4, 9) == 0.0


def test_ladder_unitary_is_the_dft_in_carry_order():
    n = 3
    rev = ref.bit_reversal(n)
    assert np.allclose(_ladder_unitary(n)[rev], ref.dft_matrix(n), atol=1e-12)


def test_prefix_sums_match_itertools():
    vals = [7, 12, 3, 15, 9]
    want = [s % 16 for s in itertools.accumulate(vals)]
    assert ref.prefix_sums(vals, 4) == want


def test_order_distribution_matches_the_definition_sum_at_15():
    modulus = 15
    m = 1 << (2 * modulus.bit_length())
    xs = np.arange(m)
    for a in (2, 7, 11, 14):
        residues = np.array([pow(a, int(x), modulus) for x in xs])
        want = np.zeros(m)
        for c in set(residues.tolist()):
            amp = np.exp(2j * np.pi * np.outer(np.arange(m), xs[residues == c]) / m).sum(axis=1)
            want += np.abs(amp) ** 2
        want /= m**2
        assert np.allclose(ref.order_distribution(modulus, a), want, atol=1e-12)


def test_odd_composites_excludes_primes_and_prime_powers():
    assert ref.odd_composites(9, 45) == [15, 21, 33, 35, 39, 45]
