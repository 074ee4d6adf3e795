import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qftkit.errors import CapacityError
from qftkit.qft_moduli import (
    CrtBasis,
    arbitrary_modulus_estimate,
    crt_maps,
    estimate_from_sample,
    mixed_radix_qft,
    padded_fourier_probs,
    prime_power_factors,
)
from qftkit.sim import dft_reference


class TestPrimePowerFactors:
    def test_known_moduli(self):
        assert prime_power_factors(15) == (3, 5)
        assert prime_power_factors(105) == (3, 5, 7)
        assert prime_power_factors(12) == (4, 3)
        assert prime_power_factors(7) == (7,)

    def test_factors_are_pairwise_coprime_and_multiply_back(self):
        for m in range(2, 200):
            fs = prime_power_factors(m)
            assert math.prod(fs) == m
            for i, a in enumerate(fs):
                for b in fs[i + 1 :]:
                    assert math.gcd(a, b) == 1

    def test_cap(self):
        with pytest.raises(CapacityError):
            prime_power_factors(1 << 22)


class TestCrtBasis:
    def test_residues_of_the_generator(self):
        b = CrtBasis.for_modulus(15)
        assert b.factors == (3, 5)
        assert b.inverses == (2, 2)
        assert b.residues(7) == (1, 2)

    def test_reconstruct_and_tuple_index_disagree_off_diagonal(self):
        # 1*5 + 2 == 7 makes x = 7 a misleading probe, so use x = 8 too
        b = CrtBasis.for_modulus(15)
        assert b.reconstruct((1, 2)) == 7
        assert b.tuple_index((1, 2)) == 7
        assert b.reconstruct(b.residues(8)) == 8
        assert b.tuple_index(b.residues(8)) == 13

    def test_round_trip_every_residue(self):
        for m in (6, 12, 15, 30, 105):
            b = CrtBasis.for_modulus(m)
            for x in range(m):
                assert b.reconstruct(b.residues(x)) == x

    @given(st.integers(2, 512), st.integers(0, 511))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_modulus(self, m, x):
        b = CrtBasis.for_modulus(m)
        assert b.reconstruct(b.residues(x % m)) == x % m

    def test_rejects_non_coprime_factors(self):
        with pytest.raises(ValueError):
            CrtBasis(12, (2, 6))

    def test_rejects_wrong_product(self):
        with pytest.raises(ValueError):
            CrtBasis(15, (3, 4))


class TestCrtMaps:
    def test_both_maps_are_permutations(self):
        for m in (6, 15, 30):
            c_mat, a_mat = crt_maps(CrtBasis.for_modulus(m))
            for p in (c_mat, a_mat):
                assert set(np.unique(p)) <= {0.0, 1.0}
                assert np.array_equal(p @ p.T, np.eye(m))

    def test_column_x_lands_on_its_residue_tuple(self):
        b = CrtBasis.for_modulus(15)
        c_mat, _ = crt_maps(b)
        for x in range(15):
            assert c_mat[b.tuple_index(b.residues(x)), x] == 1.0

    def test_unit_map_scales_each_coordinate(self):
        b = CrtBasis.for_modulus(15)
        _, a_mat = crt_maps(b)
        for x in range(15):
            tup = b.residues(x)
            scaled = tuple((g * r) % f for g, r, f in zip(b.inverses, tup, b.factors))
            assert a_mat[b.tuple_index(scaled), b.tuple_index(tup)] == 1.0

    def test_single_factor_maps_are_trivial(self):
        c_mat, a_mat = crt_maps(CrtBasis.for_modulus(7))
        assert np.array_equal(c_mat, np.eye(7))
        assert np.array_equal(a_mat, np.eye(7))


class TestMixedRadixQft:
    @pytest.mark.parametrize("m", [6, 12, 15, 30, 105])
    def test_matches_the_dft(self, m):
        U = mixed_radix_qft(CrtBasis.for_modulus(m))
        assert np.abs(U - dft_reference(m)).max() < 1e-12

    def test_single_factor_is_a_plain_dft(self):
        b = CrtBasis.for_modulus(7)
        assert b.factors == (7,)
        assert np.abs(mixed_radix_qft(b) - dft_reference(7)).max() == 0.0


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
        r = arbitrary_modulus_estimate(5, 3, seed=11)
        assert r["success_probability"] > 0.5
        assert r["mode_correct"]
        assert sum(r["counts"]) == r["copies"]

    def test_seeded_runs_reproduce(self):
        a = arbitrary_modulus_estimate(5, 3, copies=40, seed=2)
        b = arbitrary_modulus_estimate(5, 3, copies=40, seed=2)
        assert a == b

    def test_result_keys_are_stable(self):
        r = arbitrary_modulus_estimate(6, 1, seed=0)
        assert set(r) == {
            "m",
            "x",
            "k_bits",
            "copies",
            "mode",
            "mode_correct",
            "success_probability",
            "empirical_success",
            "counts",
            "seed",
        }

    def test_dft_cap(self):
        with pytest.raises(CapacityError):
            padded_fourier_probs(5, 3, 40)
