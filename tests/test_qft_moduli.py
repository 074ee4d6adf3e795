import math
from itertools import product

import numpy as np
import pytest

from qftkit.errors import CapacityError
from qftkit.qft_moduli import (
    DEFAULT_PADDING_BITS,
    ESTIMATE_COPIES,
    _mode_probability,
    arbitrary_modulus_estimate,
    crt_maps,
    estimate_from_sample,
    mixed_radix_qft,
    padded_fourier_probs,
    prime_power_factors,
)
from qftkit.sim import MAX_DFT_DIM, dft_reference


class TestPrimePowerFactors:
    def test_known_moduli(self):
        assert prime_power_factors(15) == (3, 5)
        assert prime_power_factors(105) == (3, 5, 7)
        assert prime_power_factors(12) == (4, 3)
        assert prime_power_factors(7) == (7,)

    def test_factors_are_pairwise_coprime_and_multiply_back(self):
        # every modulus up to the cap: trial division by _SMALL_PRIMES is
        # complete only while the cap is below 67^2
        for m in range(2, MAX_DFT_DIM + 1):
            fs = prime_power_factors(m)
            assert math.prod(fs) == m
            for i, a in enumerate(fs):
                p = next(d for d in range(2, a + 1) if a % d == 0)
                assert p ** round(math.log(a, p)) == a
                for b in fs[i + 1 :]:
                    assert math.gcd(a, b) == 1

    def test_cap(self):
        # the one home of the factorization cap, the m x m DFT's, which crt_maps reaches first
        with pytest.raises(CapacityError, match="factorization cap 4096"):
            prime_power_factors(1 << 22)
        with pytest.raises(CapacityError, match="factorization cap 4096"):
            crt_maps(MAX_DFT_DIM + 1)


def _permutation_matrix(p: np.ndarray) -> np.ndarray:
    """The 0/1 matrix that sends basis vector i to basis vector p[i]."""
    mat = np.zeros((p.size, p.size))
    mat[p, np.arange(p.size)] = 1.0
    return mat


class TestCrtBasis:
    def test_residues_of_the_generator(self):
        # 15 = 3 * 5 with units g = (5^-1 mod 3, 3^-1 mod 5) = (2, 2): a scales
        # the unit tuples (1, 0), (0, 1) to (2, 0), (0, 2), and x = 7, with
        # residues (1, 2), to (2, 4)
        assert prime_power_factors(15) == (3, 5)
        c, a = crt_maps(15)
        assert (a[5], a[1]) == (5 * 2, 2)
        assert c[7] == 5 * 1 + 2
        assert a[c[7]] == 5 * 2 + 4

    def test_reconstruct_and_tuple_index_disagree_off_diagonal(self):
        # c[x] is the Kronecker row of x's residue tuple, not x itself:
        # 1*5 + 2 == 7 makes x = 7 a misleading probe, so use x = 8 too
        c, _ = crt_maps(15)
        assert c[7] == 7
        assert c[8] == 5 * 2 + 3


class TestCrtMaps:
    def test_both_maps_are_permutations(self):
        for m in (6, 15, 30, 4095):
            for p in crt_maps(m):
                assert p.shape == (m,) and p.dtype.kind == "i"
                assert np.array_equal(np.sort(p), np.arange(m))

    def test_column_x_lands_on_its_residue_tuple(self):
        # 15 = 3 * 5: x's residue tuple (x mod 3, x mod 5) is Kronecker row
        # 5 (x mod 3) + x mod 5, which is not x itself (x = 8 lands on 13)
        c, _ = crt_maps(15)
        assert [int(c[x]) for x in range(15)] == [5 * (x % 3) + x % 5 for x in range(15)]

    def test_unit_map_scales_each_coordinate(self):
        # g = (5^-1 mod 3, 3^-1 mod 5) = (2, 2)
        _, a = crt_maps(15)
        for r3, r5 in product(range(3), range(5)):
            assert a[5 * r3 + r5] == 5 * (2 * r3 % 3) + 2 * r5 % 5

    def test_single_factor_maps_are_trivial(self):
        c, a = crt_maps(7)
        assert np.array_equal(c, np.arange(7))
        assert np.array_equal(a, np.arange(7))


class TestMixedRadixQft:
    @pytest.mark.parametrize("m", [6, 12, 15, 30, 105])
    def test_matches_the_dft(self, m):
        U = mixed_radix_qft(m)
        assert np.abs(U - dft_reference(m)).max() < 1e-12

    @pytest.mark.parametrize("m", [6, 12, 105, 1020])
    def test_is_the_permuted_kronecker_product(self, m):
        # the matrix form C^T K A C of the factorization, built from the maps
        c_mat, a_mat = map(_permutation_matrix, crt_maps(m))
        kron = np.ones((1, 1), dtype=np.complex128)
        for f in prime_power_factors(m):
            kron = np.kron(kron, dft_reference(f))
        assert np.array_equal(mixed_radix_qft(m), c_mat.T @ kron @ a_mat @ c_mat)

    def test_single_factor_is_a_plain_dft(self):
        assert prime_power_factors(7) == (7,)
        assert np.abs(mixed_radix_qft(7) - dft_reference(7)).max() == 0.0

    def test_cap(self):
        # prime_power_factors' cap is the one limit, as for dft_reference
        with pytest.raises(CapacityError, match="factorization cap"):
            mixed_radix_qft(4097)

    def test_four_odd_prime_factors(self):
        m = 3 * 5 * 7 * 11
        assert prime_power_factors(m) == (3, 5, 7, 11)
        assert np.abs(mixed_radix_qft(m) - dft_reference(m)).max() < 1e-10


class TestPaddedEstimation:
    def test_probs_normalized(self):
        p = padded_fourier_probs(5, 3, 6)
        assert p.shape == (64,)
        assert p.sum() == pytest.approx(1.0)

    def test_rounding_decoder(self):
        assert estimate_from_sample(13, 5, 6) == 1
        assert estimate_from_sample(0, 5, 6) == 0
        # y = 2^k * x / m is decoded exactly when m divides 2^k
        for x in range(8):
            assert estimate_from_sample(8 * x, 8, 6) == x

    def test_power_of_two_modulus_is_exact(self):
        # with 2^k_bits = m the padded readout is a point mass at x, decoded to x
        for x in range(8):
            p = padded_fourier_probs(8, x, 3)
            assert p[x] == pytest.approx(1.0)
            assert p.sum() - p[x] == pytest.approx(0.0, abs=1e-12)
            assert estimate_from_sample(x, 8, 3) == x

    def test_general_modulus_beats_a_coin_flip(self):
        r = arbitrary_modulus_estimate(5, 3)
        assert r["success_probability"] > 0.5
        assert r["mode_probability"] > 0.99

    def test_result_keys_are_stable(self):
        r = arbitrary_modulus_estimate(6, 1)
        assert set(r) == {"m", "x", "k_bits", "copies", "success_probability", "mode_probability"}
        assert r["copies"] == ESTIMATE_COPIES == 25

    def test_one_copy_recovers_with_the_per_sample_success(self):
        q = _rounded_law(7, 2)
        assert _mode_probability(q, 2, 1) == pytest.approx(q[2], abs=1e-15)
        assert q[2] == arbitrary_modulus_estimate(7, 2)["success_probability"]

    def test_dft_cap(self):
        with pytest.raises(CapacityError):
            padded_fourier_probs(5, 3, 40)

    @pytest.mark.parametrize("x", [0, 511, 1022])
    def test_largest_modulus_the_padded_readout_fits(self, x):
        # k_bits = 9 + 3 = 12, so 2^k_bits = 4096 = MAX_DFT_DIM
        r = arbitrary_modulus_estimate(1023, x)
        assert r["k_bits"] == 12
        assert r["success_probability"] > 0.5

    def test_padded_readout_cap_limits_the_modulus(self):
        # m = 1024 needs k_bits = 13 and 2^13 > 4096
        with pytest.raises(CapacityError, match=r"2\^13 exceeds DFT cap 4096"):
            arbitrary_modulus_estimate(1024, 0)

    @pytest.mark.parametrize("m", [2, 5, 12, 100, 512])
    def test_fft_matches_the_matrix_transform(self, m):
        k_bits = m.bit_length() - 1 + DEFAULT_PADDING_BITS
        dim = 1 << k_bits
        # psi vanishes above m, so only the first m columns of the inverse DFT
        # matrix enter; at m = 512 the whole 4096-point matrix takes 0.5 GB
        cols = np.exp(-2j * np.pi * np.outer(np.arange(dim), np.arange(m)) / dim) / np.sqrt(dim)
        if dim <= 1024:
            assert np.abs(cols - dft_reference(dim).conj().T[:, :m]).max() < 1e-12
        for x in {0, m // 3, m - 1}:
            psi = np.exp(2j * np.pi * x * np.arange(m) / m) / np.sqrt(m)
            want = np.abs(cols @ psi) ** 2
            assert np.abs(padded_fourier_probs(m, x, k_bits) - want).max() < 1e-12


def _rounded_law(m: int, x: int) -> np.ndarray:
    k_bits = m.bit_length() - 1 + DEFAULT_PADDING_BITS
    probs = padded_fourier_probs(m, x, k_bits)
    rounded = [estimate_from_sample(y, m, k_bits) for y in range(probs.size)]
    return np.bincount(rounded, weights=probs, minlength=m)


def _brute_mode_probability(q: np.ndarray, x: int, copies: int) -> float:
    total = 0.0
    for draws in product(range(q.size), repeat=copies):
        if np.argmax(np.bincount(draws, minlength=q.size)) == x:
            total += math.prod(q[d] for d in draws)
    return total


class TestModeProbability:
    @pytest.mark.parametrize("m, copies", [(5, 5), (7, 4)])
    def test_matches_enumeration_for_every_x(self, m, copies):
        for x in range(m):
            q = _rounded_law(m, x)
            got = _mode_probability(q, x, copies)
            assert abs(got - _brute_mode_probability(q, x, copies)) <= 1e-12

    def test_ties_go_to_the_smaller_index(self):
        # counts (2,0) and the ties (1,1) read 0; only (0,2) reads 1
        q = np.array([0.5, 0.5])
        assert _mode_probability(q, 0, 2) == pytest.approx(0.75, abs=1e-15)
        assert _mode_probability(q, 1, 2) == pytest.approx(0.25, abs=1e-15)

    def test_the_modes_of_one_law_sum_to_one(self):
        q = _rounded_law(12, 5)
        assert sum(_mode_probability(q, x, 25) for x in range(12)) == pytest.approx(1.0, abs=1e-12)
