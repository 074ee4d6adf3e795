import math

import numpy as np
import pytest

from qftkit.circuit import Circuit
from qftkit.errors import CapacityError
from qftkit import sim
from qftkit.phasest import basis_probs, erase_failure, failure_bound, reconstruct_batch
from qftkit.qft_pow2 import (
    MAX_SPLIT_N,
    MAX_STANDARD_N,
    LogdepthQft,
    QftPlan,
    banded_qft,
    bit_reversed_indices,
    build_from_plan,
    copy_fourier,
    cos_tail,
    fourier_state,
    logdepth_qft,
    overlap_witness,
    prep_approx,
    prep_exact,
    split_qft,
    standard_qft,
    viete_partial,
)
from qftkit.sim import dft_reference, extract_unitary, run_sparse, sparse_marginal


def masked_overlap(circuit, x, n, reference):
    """Overlap of the output register with ``reference``, data fixed at x, ancillas zero."""
    mask = (1 << n) - 1
    overlap = 0.0j
    for idx, amp in run_sparse(circuit, x=x).amplitudes.items():
        if idx & mask == x and idx >> (2 * n) == 0:
            overlap += np.conj(reference[(idx >> n) & mask]) * amp
    return abs(overlap)


class TestStandardLadder:
    def test_frozen_small_instance(self):
        c = standard_qft(3)
        assert c.gate_histogram() == {"cp": 3, "h": 3}
        assert c.size == 6
        assert c.depth == 5
        assert c.metadata["output_permutation"] == [2, 1, 0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reference(self, n):
        u = extract_unitary(standard_qft(n))[bit_reversed_indices(n), :]
        assert np.linalg.norm(u - dft_reference(1 << n), 2) < 1e-10

    def test_gate_count_closed_form(self):
        for n in range(1, 9):
            c = standard_qft(n)
            assert c.size == n + n * (n - 1) // 2
            assert c.depth <= 2 * n - 1

    def test_width_cap(self):
        standard_qft(MAX_STANDARD_N)
        with pytest.raises(CapacityError):
            standard_qft(MAX_STANDARD_N + 1)


class TestSplit:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference(self, n):
        u = extract_unitary(split_qft(n))[bit_reversed_indices(n), :]
        assert np.linalg.norm(u - dft_reference(1 << n), 2) < 1e-10

    def test_uses_fanout_arithmetic(self):
        hist = split_qft(4).gate_histogram()
        assert "ccx" in hist and "cnot" in hist

    def test_width_cap(self):
        with pytest.raises(CapacityError):
            split_qft(MAX_SPLIT_N + 1)


class TestBanded:
    def test_clamps_to_exact_ladder(self):
        assert banded_qft(10, 14) == standard_qft(10)
        assert banded_qft(5, 5) == standard_qft(5)

    def test_size_bound(self):
        for b in range(1, 9):
            assert banded_qft(8, b).size <= 8 * b + 8

    def test_error_bound_sound_and_monotone(self):
        n = 6
        dft = dft_reference(1 << n)
        rev = bit_reversed_indices(n)
        bounds = []
        for b in range(1, n + 1):
            c = banded_qft(n, b)
            dist = np.linalg.norm(extract_unitary(c)[rev, :] - dft, 2)
            assert dist <= c.metadata["error_bound"] + 1e-12
            bounds.append(c.metadata["error_bound"])
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] == 0.0

    def test_band_clamps_low_end_to_one(self):
        assert banded_qft(4, 0) == banded_qft(4, 1)
        assert banded_qft(4, 0).metadata["b"] == 1


class TestFourierState:
    def test_is_the_reference_column(self):
        for n in (1, 2, 3):
            dft = dft_reference(1 << n)
            for x in range(1 << n):
                assert np.allclose(fourier_state(n, x), dft[:, x])

    def test_normalized(self):
        v = fourier_state(4, 9)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_bit_reversal_is_involution(self):
        for n in (1, 3, 5):
            rev = bit_reversed_indices(n)
            assert np.array_equal(rev[rev], np.arange(1 << n))


class TestPrep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_prep_writes_fourier_register(self, n):
        c = prep_exact(n)
        for x in range(1 << n):
            assert masked_overlap(c, x, n, fourier_state(n, x)) == pytest.approx(1.0, abs=1e-10)

    def test_approx_prep_within_declared_bound(self):
        n = 5
        for k in (2, 3, 4):
            c = prep_approx(n, k)
            bound = c.metadata["error_bound"]
            for x in range(1 << n):
                fid = masked_overlap(c, x, n, fourier_state(n, x))
                # trace distance of pure states, bounded by the dropped-phase budget
                assert math.sqrt(max(0.0, 1 - fid**2)) <= bound + 1e-12

    def test_window_validation(self):
        with pytest.raises(ValueError):
            prep_approx(4, 0)
        with pytest.raises(ValueError):
            prep_approx(4, 5)


class TestCopy:
    def test_copies_fourier_register(self):
        n, k = 2, 3
        c = copy_fourier(n, k)
        for y in range(1 << n):
            psi = fourier_state(n, y)
            initial = {v << ((k - 1) * n): psi[v] for v in range(1 << n)}
            final = run_sparse(c, initial=initial).amplitudes
            err = 0.0
            for regs in np.ndindex(*([1 << n] * k)):
                key = sum(int(v) << (c_i * n) for c_i, v in enumerate(regs))
                want = math.prod(psi[v] for v in regs)
                err += abs(final.get(key, 0.0) - want) ** 2
            assert math.sqrt(err) < 1e-10

    def test_single_register_is_a_no_op(self):
        assert copy_fourier(2, 1).size == 0
        with pytest.raises(ValueError):
            copy_fourier(0, 2)


class TestLogdepthChannel:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            QftPlan(kind="logdepth", n=4)
        with pytest.raises(ValueError):
            QftPlan(kind="nonsense", n=4)
        with pytest.raises(ValueError):
            QftPlan(kind="banded", n=4)  # banded needs b
        for kind in ("standard", "split", "logdepth"):
            with pytest.raises(ValueError, match="no band width"):
                QftPlan(kind=kind, n=4, b=2, k=4 if kind == "logdepth" else None)
        for kind in ("standard", "banded", "split"):
            with pytest.raises(ValueError, match="no copy count"):
                QftPlan(kind=kind, n=4, b=2 if kind == "banded" else None, k=4)

    @pytest.mark.parametrize("b", [0, -1])
    def test_plan_refuses_band_below_one(self, b):
        with pytest.raises(ValueError, match="band width must be >= 1"):
            QftPlan(kind="banded", n=4, b=b)

    def test_channel_metadata(self):
        ld = logdepth_qft(QftPlan(kind="logdepth", n=4, k=8))
        meta = ld.circuit.metadata
        assert meta["n"] == 4 and meta["k"] == 8
        assert set(meta["stage_sizes"]) == {"prep", "copy", "measure"}
        assert sum(meta["stage_sizes"].values()) == ld.circuit.size
        assert ld.circuit.has_measurement()

    @pytest.mark.parametrize("n, k", [(3, 4), (4, 8)])
    def test_no_gate_acts_on_a_measured_wire(self, n, k):
        measured: set[int] = set()
        for gate in logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit.all_gates():
            wires = set(gate.qubits())
            assert not wires & measured, f"{gate!r} acts on a measured wire"
            if gate.family == "measure":
                measured |= wires

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (2, 4), (3, 4)])
    def test_gate_level_output_register(self, n, k):
        # simulate the built circuit: |x> stays on the data wires, and tracing out
        # the measured copies leaves the exact Fourier state on wires n..2n-1;
        # (3,4) ends with 32,768 amplitudes, so it runs two inputs at one seed
        circuit = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit
        mask = (1 << n) - 1
        xs, seeds = ((0, 5), (0,)) if n == 3 else (range(1 << n), range(3))
        for x in xs:
            psi = fourier_state(n, x)
            for seed in seeds:
                amps = run_sparse(circuit, x=x, rng=np.random.default_rng(seed)).amplitudes
                assert all(idx & mask == x for idx in amps)
                overlaps: dict[int, complex] = {}
                for idx, amp in amps.items():
                    rest = idx >> (2 * n)
                    overlaps[rest] = overlaps.get(rest, 0.0) + np.conj(psi[(idx >> n) & mask]) * amp
                fidelity = sum(abs(v) ** 2 for v in overlaps.values())
                assert fidelity >= 1.0 - 1e-10, (x, seed, fidelity)

    @pytest.mark.parametrize("n, k", [(3, 2), (3, 4), (5, 2)])
    def test_stage_sizes_match_the_public_builders(self, n, k):
        ld = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k))
        sizes = ld.circuit.metadata["stage_sizes"]
        assert sizes["prep"] == prep_approx(n, ld.window).size
        assert sizes["copy"] == copy_fourier(n, k + 1).size

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 2)])
    def test_gate_level_outcome_frequencies(self, n, k):
        # each copy wire's outcome frequency over 100 seeded runs of the built circuit
        # must lie within 4.5 binomial sigma of basis_probs at the exact phase; copy
        # wire i holds the factor with denominator 2^(n-i), and the first k/2 copies
        # are read in the x basis (outcome 1 is l = 2), the rest in y (l = 3)
        runs = 100
        circuit = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit
        for x in range(1 << n):
            ones = np.zeros(k * n)
            for seed in range(runs):
                ones += run_sparse(circuit, x=x, rng=np.random.default_rng(seed)).classical
            for c in range(k):
                for i in range(n):
                    j = n - i
                    p = basis_probs((x % (1 << j)) / (1 << j))[2 if c < k // 2 else 3]
                    sigma = math.sqrt(p * (1 - p) / runs)
                    assert abs(ones[c * n + i] / runs - p) <= 4.5 * sigma + 1e-12, (x, c, i)

    @pytest.mark.parametrize("n, k", [(1, 2), (1, 4), (2, 2), (2, 4), (3, 4)])
    def test_gate_level_record_matches_the_channel_model(self, n, k):
        # each measurement becomes its basis rotation, so one sparse run gives the exact
        # joint law of the record; bit c*n + i is copy c, wire i, which holds position
        # j = n - i, and a 1 reads l = 2 in the first k/2 copies (x basis), l = 3 in the rest
        circuit = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit
        gates, measured = [], []
        for g in circuit.all_gates():
            if g.family == "measure":
                gates += sim._basis_rotation(g)
                measured.append(g)
            else:
                gates.append(g)
        rotated = Circuit.from_gates(gates, circuit.n_qubits, circuit.n_ancilla)
        wires = [g.target for g in sorted(measured, key=lambda g: g.out)]
        records = np.arange(1 << (k * n))
        bits = ((records[:, None] >> np.arange(k * n)) & 1).reshape(-1, k, n)
        ls = bits * 2 + (np.arange(k) >= k // 2)[:, None]  # (record, copy, wire) -> outcome l
        counts = np.stack([(ls == l).sum(axis=1) for l in range(4)], axis=-1)
        xhat = reconstruct_batch(np.argmax(counts, axis=-1)[:, ::-1])  # position 1 first
        for x in (0, 5) if n == 3 else range(1 << n):
            record = sparse_marginal(run_sparse(rotated, x=x).amplitudes, wires)
            phases = np.array([(x % (1 << (n - i))) / (1 << (n - i)) for i in range(n)])
            model = np.take_along_axis(basis_probs(phases).T[None], ls, axis=1).prod(axis=(1, 2))
            assert np.abs(record - model).max() <= 1e-12, x
            assert abs(record[xhat == x].sum() - (1.0 - erase_failure(n, k, x))) <= 1e-12, x

    def test_run_channel_refuses_a_truncated_window(self):
        # k < n truncates the prepared phases, which entangles the copies
        ld = logdepth_qft(QftPlan(kind="logdepth", n=3, k=2))
        with pytest.raises(ValueError, match="window"):
            ld.run_channel(1)

    def test_run_channel_succeeds_at_large_k(self):
        ld = logdepth_qft(QftPlan(kind="logdepth", n=4, k=48))
        out = ld.run_channel(x=9, trials=16, seed=5)
        assert out["successes"] == 16
        assert out["psi_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert out["failure_bound"] == failure_bound(4, 48)

    def test_run_channel_keeps_bit_63(self):
        # the channel alone, without its n = k = 64 circuit; x >= 2^63 needs all 64 bits of x-hat
        ld = LogdepthQft(Circuit.from_gates([], 1), 64, 64, 64)
        for x in ((1 << 63) + 5, (1 << 64) - 1, (1 << 63) - 1):
            out = ld.run_channel(x, trials=200, seed=1)
            assert out["success_rate"] >= 1.0 - out["failure_bound"]

    def test_failure_bound_formula(self):
        assert failure_bound(8, 48) == pytest.approx(32 * math.exp(-6.0))
        assert failure_bound(64, 1) == 1.0

    def test_depth_scales_logarithmically(self):
        depths = {
            n: logdepth_qft(QftPlan(kind="logdepth", n=n, k=8)).circuit.depth
            for n in (4, 8, 16, 32)
        }
        assert depths[32] < 2 * depths[4]


class TestBuildFromPlan:
    def test_dispatches_every_kind(self):
        assert build_from_plan(QftPlan(kind="standard", n=4)) == standard_qft(4)
        assert build_from_plan(QftPlan(kind="split", n=4)) == split_qft(4)
        assert build_from_plan(QftPlan(kind="banded", n=6, b=2)) == banded_qft(6, 2)
        ld = build_from_plan(QftPlan(kind="logdepth", n=3, k=4))
        assert ld == logdepth_qft(QftPlan(kind="logdepth", n=3, k=4)).circuit


class TestSmallAngleNumerics:
    def test_viete_product_approaches_two_over_pi(self):
        v = viete_partial(64)
        assert 0.6366 < v < 0.6367
        assert abs(v - 2 / math.pi) < 1e-9

    def test_viete_partial_monotone_decreasing(self):
        vals = [viete_partial(i) for i in range(2, 20)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("i", range(1, 9))
    def test_tail_bound_is_a_lower_bound(self, i):
        tail, bound = cos_tail(i)
        assert bound <= tail <= 1.0

    def test_overlap_witness_fields(self):
        w = overlap_witness(6, 2)
        assert set(w) >= {"n", "r", "inner_product", "trace_distance", "cross_check"}
        assert abs(w["cross_check"] - abs(w["inner_product"])) < 1e-12

    def test_trace_distance_stays_below_peak(self):
        worst = max(
            overlap_witness(n, r)["trace_distance"] for n in range(2, 13) for r in range(1, n)
        )
        assert worst < 0.7712
