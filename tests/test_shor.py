import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qftkit import shor
from qftkit.errors import CapacityError
from qftkit.phasest import failure_bound
from qftkit.revarith import build_iterated_product, precompute_powers
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
from qftkit.sim import run_sparse


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

    @pytest.mark.parametrize("modulus,a", [(253, 190), (221, 3), (187, 5), (517, 3), (517, 2)])
    def test_analytic_matches_fft_reference(self, modulus, a):
        # two-FFT coset reference: a coset of `count` elements spaced r apart
        # has the transform magnitude of the one starting at 0.  M = 2^16 for
        # the first three, whose orders are 55 (odd), 48 and 80 (divisible by
        # 16); M = 2^20 for the last two, of orders 115 (odd) and 230
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

    # sha256 prefixes of analytic_distribution(N, a).tobytes() at M = 2^20,
    # taken before the kernel moved to y order, which must not move a bit;
    # orders 115 (odd), 230, 174 and 99
    ANALYTIC_BYTE_PINS = {
        (517, 3): "c2b5d69214422fec",
        (517, 2): "5285f31f0947b6c2",
        (531, 2): "43a70b107f94fcee",
        (597, 7): "063ac26d676fff8d",
    }

    @pytest.mark.parametrize("modulus,a", list(ANALYTIC_BYTE_PINS))
    def test_analytic_bytes_are_pinned(self, modulus, a):
        got = analytic_distribution(modulus, a)
        assert got.shape == (1 << 20,)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == self.ANALYTIC_BYTE_PINS[modulus, a]

    # sha256 prefixes of gate_distribution(15, a).tobytes() for every unit a of 15,
    # taken before the sparse Hadamard paired columns on the whole packed matrix,
    # which must not move a bit
    GATE_BYTE_PINS = {
        2: "438d52a0732bbc0e",
        4: "17436687a42ed7de",
        7: "438d52a0732bbc0e",
        8: "438d52a0732bbc0e",
        11: "17436687a42ed7de",
        13: "438d52a0732bbc0e",
        14: "17436687a42ed7de",
    }

    @pytest.mark.parametrize("a", list(GATE_BYTE_PINS))
    def test_gate_bytes_are_pinned(self, a):
        got = gate_distribution(15, a)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == self.GATE_BYTE_PINS[a]

    def test_order_circuit_amplitudes_past_the_cap_are_pinned(self):
        # the 216-wire run at N = 21 merges at Hadamards whose keys span four words;
        # repr keeps every bit of each amplitude, the sign of a zero part included
        items = sorted(run_sparse(build_order_circuit(21, 2), x=0).amplitudes.items())
        assert len(items) == 6140
        assert hashlib.sha256(repr(items).encode()).hexdigest()[:16] == "ed74e373e316d4d5"

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

    def test_builds_past_the_gate_backend_cap(self):
        # the gate cap guards the sparse run in gate_distribution, not the build
        c = build_order_circuit(21, 2)
        assert (c.size, c.depth, c.width) == (948, 263, 214)

    def test_identity_leaves_drop_out(self):
        # summed over every unit of 15: once a^(2^j) = 1 its leaf adds no gate and no wire
        cs = [build_order_circuit(15, a) for a in range(2, 15) if math.gcd(a, 15) == 1]
        assert len(cs) == 7
        assert tuple(sum(getattr(c, k) for c in cs) for k in ("size", "depth", "width")) == (407, 136, 100)

    @pytest.mark.parametrize("modulus, a", [(15, 7), (15, 4), (21, 2), (65, 2)])
    def test_stage_sizes_sum_to_the_size(self, modulus, a):
        c = build_order_circuit(modulus, a)
        n_x = c.metadata["n_x"]
        sizes = c.metadata["stage_sizes"]
        assert list(sizes) == ["hadamards", "product_tree", "transform"]
        assert sizes["hadamards"] == n_x
        assert sizes["transform"] == n_x * (n_x + 1) // 2  # the ladder: n_x H and every CP pair
        tree = build_iterated_product(modulus, precompute_powers(a, modulus, n_x))
        assert sizes["product_tree"] == tree.size
        assert sum(sizes.values()) == c.size

    def test_angle_limit(self):
        # 2^32 + 1 has 33 bits, so its 66-wire transform needs a 2^-66 turn angle
        with pytest.raises(CapacityError, match=r"2\^-64 angle limit"):
            build_order_circuit((1 << 32) + 1, 3)


class TestOrderFindingRun:
    @pytest.mark.parametrize(
        "modulus, a, message",
        [
            (16, 3, "odd and at least 3"),
            (1, 2, "odd and at least 3"),
            (13, 2, "composite"),
            (15, 1, r"base 1 not in \[2, 14\]"),
            (15, 15, r"base 15 not in \[2, 14\]"),
        ],
    )
    def test_a_task_outside_order_finding_is_refused(self, modulus, a, message):
        with pytest.raises(ValueError, match=message):
            FactorTask(modulus, a)

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

    @pytest.mark.parametrize(
        "modulus, a, backend, qft",
        [(221, 3, "analytic", "standard"), (221, 3, "analytic", "logdepth"), (15, 7, "gate", "standard")],
    )
    def test_draw_is_rng_choice(self, modulus, a, backend, qft):
        probs = shor._y_distribution(modulus, a, backend, qft)
        task = FactorTask(modulus, a)
        for s in range(50):
            got = order_finding_run(task, backend=backend, qft=qft, rng=np.random.default_rng(s)).y
            assert got == np.random.default_rng(s).choice(probs.size, p=probs)

    def test_draw_refuses_what_rng_choice_refuses(self):
        task = FactorTask(221, 3)
        m = 1 << 16
        negative = np.full(m, 1.0 / (m - 2))
        negative[:2] = [-0.5, 0.5]
        nan = np.full(m, 1.0 / m)
        nan[7] = np.nan
        # each vector trips one refusal: the negative one still sums to 1
        try:
            for bad in (negative, np.full(m, 0.9 / m), nan):
                with pytest.raises(ValueError):
                    np.random.default_rng(0).choice(m, p=bad)
                shor._ANALYTIC_CACHE[221, 3] = bad
                with pytest.raises(ValueError):
                    order_finding_run(task, backend="analytic", rng=np.random.default_rng(0))
        finally:
            shor._ANALYTIC_CACHE.clear()

    def test_unseeded_run_draws_from_the_default_seed(self):
        task = FactorTask(15, 7)
        assert order_finding_run(task) == order_finding_run(task, rng=np.random.default_rng(shor.DEFAULT_SEED))

    def test_task_cap(self):
        for backend in ("gate", "analytic"):
            with pytest.raises(CapacityError, match=f"{backend}-backend cap"):
                order_finding_run(FactorTask(3**13, 2), backend=backend)


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

    def test_analytic_cap_is_checked_before_any_draw(self):
        # 13 of these seeds draw a base sharing the divisor 3 with 2049 first
        for s in range(40):
            with pytest.raises(CapacityError, match="analytic-backend cap"):
                factor(2049, seed=s)

    def test_divisors_are_real(self):
        for s in range(20):
            out = factor(15, seed=s)
            assert out["divisor"] in (3, 5)
            assert out["attempts"] <= len(out["trace"])

    def test_an_exhausted_retry_budget_returns_no_divisor(self):
        # seed 2 draws a = 17 first, whose order 6 gives 17^3 = -1 mod 21, a dead end
        out = factor(21, seed=2, backend="analytic", max_retries=1)
        assert out["divisor"] is None
        assert out["attempts"] == 1
        assert [a["outcome"] for a in out["trace"]] == ["trivial_gcd"]

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


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# sha256 prefixes of factor(N, seed=s) for s = 0..9: a change to the draws or
# to the reading of an attempt moves them.  Equal prefixes are equal traces
FACTOR_TRACE_PINS = {
    (15, "gate", "standard"): [
        "18968f46dbe0a6a7", "35f5c8eeea87257d", "70a337ba45317b9f", "70a337ba45317b9f", "2e93858caf944f78",
        "fe8ff867c3081bfb", "26e3492ec8e28fcb", "bb21088f7d70d28d", "2e93858caf944f78", "26e3492ec8e28fcb",
    ],
    (15, "gate", "logdepth"): [
        "18968f46dbe0a6a7", "35f5c8eeea87257d", "70a337ba45317b9f", "70a337ba45317b9f", "2e93858caf944f78",
        "fe8ff867c3081bfb", "26e3492ec8e28fcb", "bb21088f7d70d28d", "2e93858caf944f78", "26e3492ec8e28fcb",
    ],
    (21, "analytic", "standard"): [
        "3ba828be9c75727f", "1efbee68c046e848", "b0be37046a67d504", "8935096cb7cded0d", "4a9d1a5ae04da14b",
        "01e36225029dca87", "4c9c34180e9dfbe8", "083699f7c2295723", "4a9d1a5ae04da14b", "e7d63a74b8db03c9",
    ],
    (33, "analytic", "standard"): [
        "c8e7b23ef7d263f4", "3cb6d0510afd9b3d", "983d12aec413d75d", "983d12aec413d75d", "cd7da2d06450d88e",
        "30cda7ecc2027038", "4a9d1a5ae04da14b", "d0fdf18b5fb5033b", "cd7da2d06450d88e", "4a9d1a5ae04da14b",
    ],
    (35, "analytic", "standard"): [
        "33396f74ae131dcb", "e7011d62fdcb7388", "82c5e843dbea8be1", "aafa7169a9ac42bc", "6c82ec0ed462a519",
        "8997cc72f8fc9aab", "cdf235ac79f742a9", "b98ef91bd237bf62", "6c82ec0ed462a519", "6928b7db30b6e625",
    ],
}


class TestSeededTraces:
    @pytest.mark.parametrize("modulus, backend, qft", list(FACTOR_TRACE_PINS), ids=lambda v: str(v))
    def test_factor_traces_are_pinned(self, modulus, backend, qft):
        got = [_digest(factor(modulus, seed=s, backend=backend, qft=qft)) for s in range(10)]
        assert got == FACTOR_TRACE_PINS[modulus, backend, qft]

    def test_order_finding_results_are_pinned(self):
        runs = []
        for modulus, a, backend, qft in [
            (15, 7, "gate", "standard"),
            (15, 2, "gate", "logdepth"),
            (21, 2, "analytic", "standard"),
            (35, 3, "analytic", "logdepth"),
        ]:
            for s in range(10):
                r = order_finding_run(FactorTask(modulus, a), backend=backend, qft=qft, rng=np.random.default_rng(s))
                runs.append([r.y, r.m, r.convergent, r.verified])
        assert _digest(runs) == "07b188624cb13dda"


class TestAttemptSuccess:
    def test_fifteen_by_hand(self):
        # 6 of the 13 bases share a factor with 15; bases 2, 7, 8, 13 (order 4)
        # win on y in {64, 192} and 4, 11 (order 2) on y = 128; 14 never wins
        assert shor._attempt_success(15, "gate", "standard") == pytest.approx(9 / 13, abs=1e-12)

    def test_logdepth_mixture_moves_it_by_at_most_its_floor(self):
        # the variant mixes weight failure_bound(8, 64) of uniform into each y law
        gap = shor._attempt_success(15, "gate", "standard") - shor._attempt_success(15, "gate", "logdepth")
        assert abs(gap) <= failure_bound(8, shor.LOGDEPTH_CHANNEL_K)

    def test_refused_over_the_cap_before_any_convergent(self, monkeypatch):
        def never(*args):
            raise AssertionError("continued_fraction_post called")

        monkeypatch.setattr(shor, "continued_fraction_post", never)
        with pytest.raises(CapacityError, match="analytic-backend cap"):
            shor._attempt_success(2049, "analytic", "standard")

    def test_analytic_backend_agrees_with_the_gate_backend(self):
        gate = shor._attempt_success(15, "gate", "standard")
        assert shor._attempt_success(15, "analytic", "standard") == pytest.approx(gate, abs=1e-12)
