import math
from itertools import product

import numpy as np
import pytest

from qftkit.circuit import Circuit
from qftkit.phasest import (
    _PRODUCT_TABLE,
    _STATE_BIT,
    basis_probs,
    erase_failure,
    failure_bound,
    reconstruct_batch,
)
from qftkit.qft_pow2 import LogdepthQft, QftPlan

MINMAX = 0.5 + math.sqrt(2.0) / 4.0

# the transfer matrices A_0..A_3, kept here as the reference the decoder's tables encode
TRANSFER_MATRICES = (
    np.array([[1, 0], [0, 1]], dtype=np.int64),
    np.array([[1, 1], [0, 0]], dtype=np.int64),
    np.array([[0, 1], [1, 0]], dtype=np.int64),
    np.array([[0, 0], [1, 1]], dtype=np.int64),
)


def channel(n: int, k: int) -> LogdepthQft:
    """The measurement channel of the (n, k) pipeline; it samples without the circuit."""
    return LogdepthQft(Circuit.from_gates([], 1), n, k)


def decode_one(ls) -> int:
    """One row through the decoder."""
    return int(reconstruct_batch(np.array([ls], dtype=np.int64))[0])


def reference_x(ls) -> int:
    """Bit j is entry [2,1] (1-based) of the saturated product A_{l_j} ... A_{l_1}."""
    x = 0
    prod = TRANSFER_MATRICES[0]
    for j, l in enumerate(ls):
        prod = np.minimum(TRANSFER_MATRICES[l] @ prod, 1)
        x |= int(prod[1, 0]) << j
    return x


def brute_force_failure(n: int, k: int, x: int) -> float:
    """Mass on x-hat != x, summed over every tuple of per-position counts (c0, c1)."""
    half = k // 2
    pairs = list(product(range(half + 1), repeat=2))
    modes, weights = [], []
    for j in range(1, n + 1):
        p0, p1 = basis_probs((x % (1 << j)) / (1 << j))[:2]
        modes.append([int(np.argmax((c0, c1, half - c0, half - c1))) for c0, c1 in pairs])
        weights.append(
            [
                math.comb(half, c0) * p0**c0 * (1 - p0) ** (half - c0)
                * math.comb(half, c1) * p1**c1 * (1 - p1) ** (half - c1)
                for c0, c1 in pairs
            ]
        )
    index = np.array(list(product(range(len(pairs)), repeat=n)))
    rows = np.stack([np.array(modes[j])[index[:, j]] for j in range(n)], axis=1)
    mass = np.prod([np.array(weights[j])[index[:, j]] for j in range(n)], axis=0)
    return float(mass[reconstruct_batch(rows) != x].sum())


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
            assert np.array_equal(prod, TRANSFER_MATRICES[_PRODUCT_TABLE[l, s]])

    def test_identity_element(self):
        for s in range(4):
            assert _PRODUCT_TABLE[0, s] == s

    def test_state_bit_reads_entry_two_one(self):
        assert list(_STATE_BIT) == [int(m[1, 0]) for m in TRANSFER_MATRICES]


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
        assert decode_one((2, 1, 3)) == 5

    def test_exhaustive_under_the_promise(self):
        for n in range(1, 7):
            for x in range(1 << n):
                for ls in product(*(promise_options(x, j) for j in range(1, n + 1))):
                    assert decode_one(ls) == x

    def test_batch_matches_scalar(self, rng):
        for width in (8, 64):
            rows = rng.integers(0, 4, size=(64, width))
            batch = reconstruct_batch(rows)
            assert [reference_x(tuple(r)) for r in rows] == list(batch)

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            reconstruct_batch(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            reconstruct_batch(np.full((2, 2), 7))
        with pytest.raises(ValueError):
            reconstruct_batch(np.zeros((2, 65), dtype=np.int64))

    def test_outcome_validation(self):
        with pytest.raises(ValueError):
            decode_one((0, 5))


class TestEraseFailure:
    @pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (2, 4), (3, 4), (4, 6)])
    def test_matches_brute_force_enumeration(self, n, k):
        for x in range(1 << n):
            assert erase_failure(n, k, x) == pytest.approx(brute_force_failure(n, k, x), abs=1e-12), x

    def test_never_above_the_union_bound(self):
        over = [
            (n, k, x)
            for n in (1, 2, 3, 8)
            for k in range(2, 129, 2)
            for x in range(1 << n)
            if erase_failure(n, k, x) > failure_bound(n, k)
        ]
        assert over == []

    @pytest.mark.parametrize("k", [256, 1024, 2048])
    def test_large_k_stays_finite_and_bounded(self, k):
        # C(k/2, k/4) no longer fits an int64 here, so the count law is taken in log space
        e = erase_failure(64, k, (1 << 64) - 1)
        assert math.isfinite(e)
        assert 0.0 <= e <= failure_bound(64, k)

    @pytest.mark.parametrize("n, k, worst", [(3, 4, 0.4965), (8, 16, 1.405e-2), (8, 48, 1.842e-7)])
    def test_worst_case_pins(self, n, k, worst):
        assert max(erase_failure(n, k, x) for x in range(1 << n)) == pytest.approx(worst, rel=1e-3)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            erase_failure(3, 4, 8)
        with pytest.raises(ValueError):
            erase_failure(3, 4, -1)
        with pytest.raises(ValueError):
            erase_failure(3, 5, 1)
        with pytest.raises(ValueError):
            erase_failure(0, 4, 0)


class TestSampling:
    def test_draw_follows_the_exact_rate(self):
        # erase_failure(2, 2, 1) is 3/4, so the success count is Bin(10^5, 1/4)
        trials = 10**5
        out = channel(2, 2).run_channel(1, trials=trials, seed=3)
        assert out["erase_failure"] == pytest.approx(0.75, abs=1e-12)
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(out["success_rate"] - 0.25) <= 4.5 * sigma

    def test_trial_count_costs_no_memory(self):
        out = channel(8, 48).run_channel(5, trials=10**12, seed=1)
        assert out["trials"] == 10**12
        assert out["successes"] >= 10**12 - 10**8

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
