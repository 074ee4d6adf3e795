import math
from itertools import product

import numpy as np
import pytest

from qftkit.circuit import Circuit
from qftkit.phasest import (
    TRANSFER_MATRICES,
    basis_probs,
    bernoulli_bound,
    failure_bound,
    reconstruct_batch,
    reconstruct_x,
    transfer_matrix,
    transfer_product_index,
)
from qftkit.qft_pow2 import LogdepthQft, QftPlan

MINMAX = 0.5 + math.sqrt(2.0) / 4.0


def channel(n: int, k: int) -> LogdepthQft:
    """The measurement channel of the (n, k) pipeline; it samples without the circuit."""
    return LogdepthQft(Circuit.from_gates([], 1), n, k, min(n, k))


def promise_options(x: int, j: int) -> list[int]:
    """Outcomes within a strict 1/4 turn of x/2^j, the promise the decoder assumes."""
    theta = (x % (1 << j)) / (1 << j)
    opts = []
    for l in range(4):
        frac = (theta - l / 4.0) % 1.0
        if min(frac, 1.0 - frac) < 0.25:
            opts.append(l)
    return opts


class TestTransferMonoid:
    def test_closed_under_saturated_product(self):
        for l, s in product(range(4), repeat=2):
            prod = np.minimum(TRANSFER_MATRICES[l] @ TRANSFER_MATRICES[s], 1)
            idx = transfer_product_index(l, s)
            assert np.array_equal(prod, TRANSFER_MATRICES[idx])

    def test_identity_element(self):
        for s in range(4):
            assert transfer_product_index(0, s) == s

    def test_matrix_accessor_copies(self):
        m = transfer_matrix(1)
        m[0, 0] = 99
        assert transfer_matrix(1)[0, 0] != 99

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            transfer_matrix(4)


class TestMeasurementProbs:
    def test_each_basis_is_normalized(self):
        p = basis_probs(np.arange(64) / 64.0)
        assert p[:, 0] + p[:, 2] == pytest.approx(np.ones(64))
        assert p[:, 1] + p[:, 3] == pytest.approx(np.ones(64))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            channel(3, 4).run_channel(8)
        with pytest.raises(ValueError):
            channel(3, 4).run_channel(1, trials=0)

    def test_best_outcome_never_below_the_floor(self):
        grid = np.arange(10000) / 10000.0
        assert basis_probs(grid).max(axis=-1).min() >= MINMAX - 1e-9

    def test_floor_attained_on_the_diagonal(self):
        assert basis_probs(0.125).max() == pytest.approx(MINMAX)


class TestReconstruct:
    def test_frozen_sequence(self):
        assert reconstruct_x((2, 1, 3)) == 5

    def test_exhaustive_under_the_promise(self):
        for n in range(1, 7):
            for x in range(1 << n):
                for ls in product(*(promise_options(x, j) for j in range(1, n + 1))):
                    assert reconstruct_x(ls) == x

    def test_batch_matches_scalar(self, rng):
        for width in (8, 64):
            rows = rng.integers(0, 4, size=(64, width))
            batch = reconstruct_batch(rows)
            assert [reconstruct_x(tuple(r)) for r in rows] == list(batch)

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            reconstruct_batch(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            reconstruct_batch(np.full((2, 2), 7))
        with pytest.raises(ValueError):
            reconstruct_batch(np.zeros((2, 65), dtype=np.int64))

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            reconstruct_x((0, 5))


class TestSampling:
    def test_seeded_runs_reproduce(self):
        a = channel(2, 2).run_channel(1, trials=64, seed=7)
        b = channel(2, 2).run_channel(1, trials=64, seed=7)
        assert 0 < a["successes"] < 64
        assert a == b

    def test_modes_recover_x_at_large_k(self):
        for x in (0, 3, 11, 15):
            assert channel(4, 256).run_channel(x, trials=16, seed=x)["successes"] == 16

    def test_sample_count_must_be_even(self):
        with pytest.raises(ValueError):
            QftPlan("logdepth", 2, k=5)


class TestBounds:
    def test_failure_bound_frozen_point(self):
        assert failure_bound(8, 48) == pytest.approx(32 * math.exp(-6.0), rel=1e-12)

    def test_failure_bound_caps_at_one(self):
        assert failure_bound(100, 0) == 1.0

    def test_failure_bound_monotone_in_k(self):
        vals = [failure_bound(8, k) for k in range(40, 200, 8)]
        assert vals == sorted(vals, reverse=True)

    def test_bernoulli_bound_decreases_with_samples(self):
        assert bernoulli_bound(0.2, 0.8, 64) < bernoulli_bound(0.2, 0.8, 8)

    def test_bernoulli_bound_needs_separated_rates(self):
        with pytest.raises(ValueError):
            bernoulli_bound(0.6, 0.4, 10)
