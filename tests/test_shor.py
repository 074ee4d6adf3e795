import math
from fractions import Fraction

import numpy as np
import pytest

from qftkit import shor
from qftkit.errors import CapacityError
from qftkit.revarith import precompute_powers
from qftkit.shor import (
    FactorTask,
    LuckyFactor,
    OrderResult,
    analytic_distribution,
    build_order_circuit,
    continued_fraction_post,
    factor,
    gate_distribution,
    is_prime,
    multiplicative_order,
    order_finding_run,
    perfect_power_root,
)


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestNumberTheoryHelpers:
    def test_is_prime_matches_trial_division(self):
        for n in range(2000):
            assert is_prime(n) == trial_division_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes to many bases
        for n in (561, 1105, 1729, 2465):
            assert not is_prime(n)

    def test_perfect_power_root(self):
        assert perfect_power_root(8) == (2, 3)
        assert perfect_power_root(36) == (6, 2)
        assert perfect_power_root(3**7) == (3, 7)
        assert perfect_power_root(15) is None
        assert perfect_power_root(2) is None

    def test_multiplicative_order(self):
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(14, 15) == 2
        for a in (2, 4, 7, 8, 11, 13, 14):
            r = multiplicative_order(a, 15)
            assert pow(a, r, 15) == 1
            assert all(pow(a, s, 15) != 1 for s in range(1, r))

    def test_multiplicative_order_needs_a_unit(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 15)

    @pytest.mark.parametrize("a, modulus", [(2, 1), (1, 0)])
    def test_multiplicative_order_needs_a_modulus_above_one(self, a, modulus):
        # mod 1 every residue is 0, so the search for a power equal to 1 never ends
        with pytest.raises(ValueError, match="modulus"):
            multiplicative_order(a, modulus)

    def test_precompute_powers(self):
        assert precompute_powers(7, 15, 8) == [7, 4, 1, 1, 1, 1, 1, 1]
        for j, p in enumerate(precompute_powers(5, 21, 10)):
            assert p == pow(5, 1 << j, 21)


class TestContinuedFractionPost:
    def test_frozen_samples(self):
        assert continued_fraction_post(64, 256, 15) == (1, 4)
        assert continued_fraction_post(85, 256, 15) == (1, 3)
        assert continued_fraction_post(192, 256, 15) == (3, 4)
        assert continued_fraction_post(0, 256, 15) == (0, 1)

    def test_none_when_no_convergent_qualifies(self):
        assert continued_fraction_post(255, 256, 15) is None
        assert continued_fraction_post(128, 256, 2) is None

    def test_sample_range_validation(self):
        with pytest.raises(ValueError):
            continued_fraction_post(256, 256, 15)

    def test_returned_convergents_satisfy_the_contract(self, rng):
        for y in rng.integers(1, 256, size=200):
            got = continued_fraction_post(int(y), 256, 15)
            if got is None:
                continue
            h, k = got
            assert 0 <= h < k < 15
            assert math.gcd(h, k) == 1
            assert abs(Fraction(int(y), 256) - Fraction(h, k)) <= Fraction(1, 256)

    def test_exact_peaks_recover_the_order(self):
        # order of 7 mod 15 is 4 and 4 divides 256, so peaks sit exactly
        for j in (1, 3):
            assert continued_fraction_post(64 * j, 256, 15) == (j, 4)


class TestDistributions:
    def test_analytic_is_a_distribution_with_exact_peaks(self):
        d = analytic_distribution(15, 7)
        assert d.shape == (256,)
        assert d.sum() == pytest.approx(1.0)
        assert d[[0, 64, 128, 192]].sum() == pytest.approx(1.0)

    def test_order_one_concentrates_at_zero(self):
        d = analytic_distribution(15, 1)
        assert d[0] == pytest.approx(1.0)
        assert (d[1:] == 0).all()

    def test_gate_backend_matches_analytic_exactly(self):
        for a in (7, 2):
            tv = 0.5 * np.abs(gate_distribution(15, a) - analytic_distribution(15, a)).sum()
            assert tv < 1e-10

    @pytest.mark.parametrize("modulus,a", [(253, 190), (221, 3), (187, 5)])
    def test_analytic_matches_fft_reference(self, modulus, a):
        # two-FFT coset reference: a coset of `count` elements spaced r apart
        # has the transform magnitude of the one starting at 0.  M = 2^16 in
        # each case; the orders are 55 (odd), 48 and 80 (divisible by 16)
        m = 1 << (2 * modulus.bit_length())
        r = multiplicative_order(a, modulus)
        full, rem = divmod(m, r)

        def coset_power(count):
            indicator = np.zeros(m)
            indicator[: count * r : r] = 1.0
            return np.abs(np.fft.fft(indicator)) ** 2

        want = (rem * coset_power(full + 1) + (r - rem) * coset_power(full)) / float(m) ** 2
        got = analytic_distribution(modulus, a)
        assert got.shape == (m,)
        assert np.abs(got - want).max() <= 1e-16

    def test_cached_distributions_are_read_only(self):
        try:
            for dist in (gate_distribution, analytic_distribution):
                before = dist(15, 7).copy()
                with pytest.raises(ValueError):
                    dist(15, 7)[0] = 1.0
                np.testing.assert_array_equal(dist(15, 7), before)
            assert order_finding_run(FactorTask(15, 7), rng=np.random.default_rng(0)).y in (0, 64, 128, 192)
        finally:
            # a writable cache would otherwise leak the write into later tests
            shor._GATE_CACHE.clear()
            shor._ANALYTIC_CACHE.clear()

    def test_backend_caps(self):
        with pytest.raises(CapacityError):
            gate_distribution(21, 2)
        with pytest.raises(CapacityError):
            analytic_distribution(4096, 3)


class TestOrderCircuit:
    def test_register_layout(self):
        c = build_order_circuit(15, 7)
        meta = c.metadata
        assert meta["kind"] == "order_finding"
        assert meta["n_x"] == 8
        assert c.n_qubits == 12
        assert not c.has_measurement()


class TestOrderFindingRun:
    def test_seeded_runs_reproduce(self):
        task = FactorTask(15, 7)
        runs = [order_finding_run(task, rng=np.random.default_rng(3)) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_samples_stay_on_the_peaks(self):
        ys = {order_finding_run(FactorTask(15, 7), rng=np.random.default_rng(s)).y for s in range(24)}
        assert ys <= {0, 64, 128, 192}

    def test_result_fields_are_consistent(self):
        for s in range(12):
            r = order_finding_run(FactorTask(15, 7), rng=np.random.default_rng(s))
            assert isinstance(r, OrderResult)
            assert r.m == 256
            assert r.convergent == continued_fraction_post(r.y, r.m, 15)
            assert r.verified == (pow(7, r.convergent[1], 15) == 1 and r.convergent[1] > 1)

    def test_even_order_witness(self):
        r = order_finding_run(FactorTask(15, 14), rng=np.random.default_rng(0))
        assert r.y == 128
        assert r.convergent == (1, 2)
        assert r.verified

    def test_non_unit_base_raises_lucky_factor(self):
        # one screen ahead of the backend choice: the analytic backend must
        # not fall through to multiplicative_order's ValueError
        for backend in ("gate", "analytic"):
            with pytest.raises(LuckyFactor) as exc:
                order_finding_run(FactorTask(15, 6), backend=backend, rng=np.random.default_rng(0))
            assert exc.value.divisor == 3
        for build in (build_order_circuit, gate_distribution, analytic_distribution):
            with pytest.raises(LuckyFactor):
                build(15, 6)
            # gcd 15 is the modulus itself, not a proper divisor: refused
            for a in (0, 15):
                with pytest.raises(ValueError):
                    build(15, a)

    def test_unseeded_run_draws_from_the_default_seed(self):
        task = FactorTask(15, 7)
        assert order_finding_run(task) == order_finding_run(task, rng=np.random.default_rng(shor.DEFAULT_SEED))

    def test_task_cap(self):
        with pytest.raises(CapacityError):
            FactorTask(3**13, 2)


class TestFactor:
    def test_even_input_screened(self):
        out = factor(16)
        assert out["divisor"] == 2
        assert out["attempts"] == 0
        assert out["trace"][0]["reason"] == "even"

    def test_prime_power_screened(self):
        for n, base in ((9, 3), (27, 3), (25, 5)):
            out = factor(n)
            assert out["divisor"] == base
            assert out["attempts"] == 0
            assert out["trace"][0]["reason"] == "prime_power"

    def test_prime_input_rejected(self):
        with pytest.raises(ValueError):
            factor(13)

    def test_tiny_input_rejected(self):
        with pytest.raises(ValueError):
            factor(3)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            factor(15, backend="magic")
        with pytest.raises(ValueError):
            factor(15, qft="bogus")
        for retries in (0, -1):
            with pytest.raises(ValueError, match="max_retries"):
                factor(21, max_retries=retries)
        # knobs are checked before the screens and the first draw: seed 2 draws a lucky
        # gcd at 15, 9 is a prime power, and seeds 0, 4 and 5 draw a lucky gcd at 21
        with pytest.raises(ValueError, match="backend"):
            factor(15, backend="bogus", seed=2)
        with pytest.raises(ValueError, match="qft"):
            factor(9, qft="bogus")
        for s in range(8):
            with pytest.raises(CapacityError, match="gate-backend cap"):
                factor(21, backend="gate", seed=s)

    def test_divisors_are_real(self):
        for s in range(20):
            out = factor(15, seed=s)
            assert out["divisor"] in (3, 5)
            assert out["attempts"] <= len(out["trace"])

    def test_trivial_gcd_retries(self):
        # seed 7 draws a = 14 first: order 2 gives 14^1 = -1 mod 15, a dead end
        out = factor(15, seed=7)
        first = out["trace"][0]
        assert first["outcome"] == "trivial_gcd"
        assert first["order"] == 2
        assert out["attempts"] > 1
        assert out["divisor"] in (3, 5)

    def test_qft_variants_agree_statistically(self):
        # two-proportion z-test on first-attempt success, matched run counts
        n_arm = 200
        wins_std = sum(factor(15, seed=s, qft="standard")["attempts"] == 1 for s in range(n_arm))
        wins_log = sum(
            factor(15, seed=1000 + s, qft="logdepth")["attempts"] == 1 for s in range(n_arm)
        )
        pooled = (wins_std + wins_log) / (2 * n_arm)
        se = math.sqrt(pooled * (1 - pooled) * 2 / n_arm)
        z = (wins_std - wins_log) / (n_arm * se)
        p_value = math.erfc(abs(z) / math.sqrt(2))
        assert p_value > 0.01, f"variants disagree: {wins_std} vs {wins_log}, p={p_value:.4f}"
