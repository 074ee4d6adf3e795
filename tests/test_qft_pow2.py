import json
import math

import numpy as np
import pytest

from qftkit import acceptance, cli, netlist, qft_pow2, sim
from qftkit.acceptance import C_DEPTH, C_SIZE
from qftkit.circuit import Circuit, CircuitBuilder, dyadic
from qftkit.errors import CapacityError
from qftkit.phasest import basis_probs, erase_failure, failure_bound, reconstruct_batch
from qftkit.qft_pow2 import (
    LogdepthQft,
    QftPlan,
    banded_qft,
    _emit_phase_product,
    _output_wires,
    build_from_plan,
    copy_fourier,
    cos_tail,
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
    def test_matches_reference(self, n, bit_reversed):
        u = extract_unitary(standard_qft(n))[bit_reversed(n), :]
        assert np.linalg.norm(u - dft_reference(1 << n), 2) < 1e-10

    def test_gate_count_closed_form(self):
        for n in range(1, 9):
            c = standard_qft(n)
            assert c.size == n + n * (n - 1) // 2
            assert c.depth <= 2 * n - 1

    def test_width_cap(self):
        # the finest CP is 2^-n turns, so n = 64 is the widest ladder on the 2^-64 grid
        c = standard_qft(64)
        assert c.gate_histogram() == {"cp": 2016, "h": 64}
        assert c.depth == 127
        with pytest.raises(CapacityError, match=r"2\^-64 angle limit"):
            standard_qft(65)


class TestOutputOrder:
    """A recorded 3-cycle, which unlike bit reversal is not its own inverse.

    perm = [1, 2, 0] sends wire 0's bit to output bit 1, wire 1's to bit 2 and
    wire 2's to bit 0, so output bit j is read from wire [2, 0, 1][j].  A
    reader that applied perm where its inverse belongs reads [1, 2, 0].
    """

    @pytest.fixture
    def cycled(self):
        b = CircuitBuilder(3)
        b.new_ancilla()  # past the permutation, so it keeps its place
        b.x(0)
        b.h(1)
        return b.build(metadata={"output_permutation": [1, 2, 0]})

    def test_output_wires_invert_the_record(self, cycled):
        assert _output_wires(cycled) == [2, 0, 1, 3]
        assert _output_wires(CircuitBuilder(2).build()) == [0, 1]

    def test_output_rows(self, cycled):
        # data state i: wire 0 -> bit 1 (2), wire 1 -> bit 2 (4), wire 2 -> bit 0 (1)
        assert acceptance._output_rows(cycled).tolist() == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_marginal_over_the_output_wires(self, cycled):
        # input 4 sets wire 2; X sets wire 0 and H spreads wire 1: outputs 1 + 2 and 1 + 2 + 4
        amps = run_sparse(cycled, x=4).amplitudes
        probs = sparse_marginal(amps, _output_wires(cycled)[:3])
        assert np.flatnonzero(probs).tolist() == [3, 7]
        assert probs[[3, 7]] == pytest.approx([0.5, 0.5])

    def test_cli_sim_reads_the_record(self, cycled, tmp_path, capsys):
        path = tmp_path / "cycled.qc"
        path.write_text(netlist.encode(cycled))
        assert cli.main(["sim", str(path), "--input", "100"]) == 0
        half = f"{2 ** -0.5:+.12f}"
        assert capsys.readouterr().out.splitlines() == [f"0011 {half} +0.000000000000", f"0111 {half} +0.000000000000"]
        assert cli.main(["sim", str(path), "--input", "100", "--shots", "64", "--seed", "5"]) == 0
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert set(counts) == {"011", "111"}
        assert sum(counts.values()) == 64


class TestSplit:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference(self, n, bit_reversed):
        u = extract_unitary(split_qft(n))[bit_reversed(n), :]
        assert np.linalg.norm(u - dft_reference(1 << n), 2) < 1e-10

    @pytest.mark.parametrize("n", [12, 16])
    def test_sparse_columns_match_past_the_unitary_sizes(self, n, rng, bit_reversed):
        # inputs 0, 1, 2^n - 1 and one drawn; every amplitude within 1e-10 of
        # the bit-reversed DFT column, and no amplitude on a set ancilla
        dim = 1 << n
        rev = bit_reversed(n)
        y = np.arange(dim)
        c = split_qft(n)
        for x in (0, 1, dim - 1, int(rng.integers(dim))):
            amps = run_sparse(c, x=x).amplitudes
            assert max(amps) < dim
            out = np.zeros(dim, dtype=complex)
            out[list(amps)] = list(amps.values())
            column = np.exp(2j * np.pi * (x * y % dim) / dim) / np.sqrt(dim)
            assert np.max(np.abs(out[rev] - column)) < 1e-10

    @pytest.mark.parametrize("n", range(1, 4))
    def test_base_case_is_the_standard_ladder(self, n):
        # below four wires the recursion emits _ladder_layers' gates, in its order
        assert split_qft(n) == standard_qft(n)

    def test_uses_fanout_arithmetic(self):
        # a cross term of at most 17-bit operands is one CP per bit pair, so
        # the adders' Toffolis first appear at n = 36, whose halves are 18 bits
        for n in range(1, 36):
            assert set(split_qft(n).gate_histogram()) <= {"h", "cp"}, n
        assert "ccx" in split_qft(36).gate_histogram()
        # split_qft(64)'s halves are H and CP only, so its cross term holds the adders' Toffolis
        assert set(split_qft(64).gate_histogram()) - set(split_qft(32).gate_histogram()) == {"ccx", "cnot"}

    def test_width_cap(self):
        # the top level's last phase is 2^-n turns, as in the ladder
        c = split_qft(64)
        assert c.size == 2_873
        assert c.metadata["step2_size"] == 1_817
        assert c.size == 2 * split_qft(32).size + c.metadata["step2_size"]
        with pytest.raises(CapacityError, match=r"2\^-64 angle limit"):
            split_qft(65)

    @pytest.mark.parametrize("base", [1, 2])
    def test_karatsuba_at_every_level_matches_reference(self, base, monkeypatch, bit_reversed):
        # with the base case at 1 or 2 bits, the cross terms from n = 6 up run
        # the Karatsuba step at every level down to 1- or 2-bit operands
        monkeypatch.setattr(qft_pow2, "_PHASE_BASE", base)
        assert "ccx" in split_qft(6).gate_histogram()
        for n in range(1, 10):
            u = extract_unitary(split_qft(n))[bit_reversed(n), :]
            assert np.linalg.norm(u - dft_reference(1 << n), 2) < 1e-10, n

    @pytest.mark.parametrize("theta", [dyadic(1, 8), dyadic(3, 7)], ids=["1/2^8", "3/2^7"])
    def test_phase_product_on_every_input(self, theta, monkeypatch):
        # two 4-bit registers split down to 1-bit operands: each basis input
        # keeps its one amplitude, phased by theta u v, and the ancillas end clear
        monkeypatch.setattr(qft_pow2, "_PHASE_BASE", 1)
        b = CircuitBuilder(8)
        _emit_phase_product(b, range(4), range(4, 8), theta)
        c = b.build()
        assert c.width > 8
        turns = theta.numerator / (1 << theta.log_denominator)
        for x in range(256):
            amps = run_sparse(c, x=x).amplitudes
            assert list(amps) == [x]
            u, v = x & 15, x >> 4
            assert abs(amps[x] - np.exp(2j * np.pi * turns * u * v)) < 1e-12

    @pytest.mark.parametrize("n", [36, 64])
    def test_cross_term_at_the_built_base(self, n, rng):
        # split_qft(n)'s top cross term, where the Karatsuba step runs at the
        # built base, on drawn inputs: one amplitude, phased by uv / 2^n turns
        m = n // 2
        b = CircuitBuilder(n)
        _emit_phase_product(b, range(m), range(m, n), dyadic(1, n))
        c = b.build()
        assert "ccx" in c.gate_histogram()
        for _ in range(8):
            u, v = int(rng.integers(1 << m)), int(rng.integers(1 << m))
            x = u | v << m
            amps = run_sparse(c, x=x).amplitudes
            assert list(amps) == [x]
            assert abs(amps[x] - np.exp(2j * np.pi * (u * v % (1 << n)) / (1 << n))) < 1e-10


@pytest.mark.parametrize(
    "build", [standard_qft, lambda n: banded_qft(n, 2), split_qft], ids=["standard", "banded", "split"]
)
@pytest.mark.parametrize("n", [0, -1])
def test_ladder_builders_refuse_an_empty_register_as_a_value(build, n):
    # CapacityError means only a cap; an empty register is a bad value, as in QftPlan
    with pytest.raises(ValueError, match="n must be >= 1"):
        build(n)


class TestAngleLimit:
    # each builder's finest angle: min(b, n - 1) + 1 for a band, the window
    # min(n, k) for prep and the log-depth pipeline; the copy stage has no angles
    def test_builds_whose_finest_angle_is_on_the_grid(self):
        assert banded_qft(200, 63).metadata["b"] == 63
        # the error bound's terms stay finite past 2^-1024
        assert math.isfinite(banded_qft(1100, 2).metadata["error_bound"])
        assert logdepth_qft(QftPlan(kind="logdepth", n=65, k=64)).circuit.metadata["window"] == 64

    @pytest.mark.parametrize(
        "build",
        [
            lambda: banded_qft(65, 64),
            lambda: prep_approx(65, 65),
            lambda: logdepth_qft(QftPlan(kind="logdepth", n=65, k=66)),
        ],
        ids=["banded(65,64)", "prep_approx(65,65)", "logdepth(65,66)"],
    )
    def test_finer_angles_are_refused_before_any_gate(self, build):
        # a DyadicAngle past 2^-64 would raise StructuralError partway through the build
        with pytest.raises(CapacityError, match=r"needs angle 2\^-65,"):
            build()


class TestBanded:
    def test_clamps_to_exact_ladder(self):
        assert banded_qft(10, 14) == standard_qft(10)
        assert banded_qft(5, 5) == standard_qft(5)

    def test_size_bound(self):
        for b in range(1, 9):
            assert banded_qft(8, b).size <= 8 * b + 8

    def test_error_bound_sound_and_monotone(self, bit_reversed):
        n = 6
        dft = dft_reference(1 << n)
        rev = bit_reversed(n)
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


class TestPrep:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_prep_writes_fourier_register(self, n):
        c, dft = prep_exact(n), dft_reference(1 << n)
        for x in range(1 << n):
            assert masked_overlap(c, x, n, dft[:, x]) == pytest.approx(1.0, abs=1e-10)

    def test_approx_prep_within_declared_bound(self):
        n = 5
        dft = dft_reference(1 << n)
        for k in (2, 3, 4):
            c = prep_approx(n, k)
            bound = c.metadata["error_bound"]
            for x in range(1 << n):
                fid = masked_overlap(c, x, n, dft[:, x])
                # trace distance of pure states, bounded by the dropped-phase budget
                assert math.sqrt(max(0.0, 1 - fid**2)) <= bound + 1e-12

    def test_window_validation(self):
        with pytest.raises(ValueError):
            prep_approx(4, 0)
        with pytest.raises(ValueError):
            prep_approx(4, 5)


class TestCopy:
    # k >= 4 registers means three or more blanks, so the Wallace tree runs 3-2 levels
    @pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 8), (2, 3), (2, 4), (2, 5)])
    def test_copies_fourier_register(self, n, k):
        c, dft = copy_fourier(n, k), dft_reference(1 << n)
        for y in range(1 << n):
            psi = dft[:, y]
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
        mask, dft = (1 << n) - 1, dft_reference(1 << n)
        xs, seeds = ((0, 5), (0,)) if n == 3 else (range(1 << n), range(3))
        for x in xs:
            psi = dft[:, x]
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
        ld = LogdepthQft(Circuit.from_gates([], 1), 64, 64)
        for x in ((1 << 63) + 5, (1 << 64) - 1, (1 << 63) - 1):
            out = ld.run_channel(x, trials=200, seed=1)
            assert out["success_rate"] >= 1.0 - out["failure_bound"]

    def test_failure_bound_formula(self):
        assert failure_bound(8, 48) == pytest.approx(32 * math.exp(-6.0))
        assert failure_bound(64, 1) == 1.0

    # depths before the copy became one carry-save subtraction, over criterion 3's grid
    # and the benchmark's build plans; no plan may get deeper
    DEPTH_CEILINGS = {
        (4, 4): 59, (4, 8): 77, (4, 16): 97,
        (8, 4): 74, (8, 8): 96, (8, 16): 117,
        (16, 4): 83, (16, 8): 105, (16, 16): 131,
        (32, 4): 92, (32, 8): 114, (32, 16): 140,
        (12, 4): 76, (8, 32): 137, (16, 48): 164,
        # k = 2: the inverted prefix network's depths at (1,2) and (2,4), the
        # first carry-save copy's at (2,2) and (32,2), which that network beat
        (1, 2): 22, (2, 4): 37, (2, 2): 44, (32, 2): 81,
    }

    @pytest.mark.parametrize("n, k", list(DEPTH_CEILINGS))
    def test_depth_never_above_its_ceiling(self, n, k):
        depth = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit.depth
        assert depth <= self.DEPTH_CEILINGS[n, k]

    def test_shape_certificate_to_n_1024(self):
        # criterion 3's pins, unedited, out to n = 1024 at k = 4: depth = a log2 n + b
        # (every doubling adds the same depth), depth <= C_DEPTH (log2 n + log2 k),
        # size <= C_SIZE n k
        k = 4
        depths = []
        for n in (16, 32, 64, 128, 256, 512, 1024):
            c = logdepth_qft(QftPlan(kind="logdepth", n=n, k=k)).circuit
            assert c.depth <= C_DEPTH * (math.log2(n) + math.log2(k)), n
            assert c.size <= C_SIZE * n * k, n
            depths.append(c.depth)
        steps = {b - a for a, b in zip(depths, depths[1:])}
        assert len(steps) == 1 and steps.pop() > 0, depths

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

    def test_products_run_past_the_float_range(self):
        # pi / 2^t went through float(2^t), which overflows at t = 1024, and
        # 4.0 ** i at i = 512; ldexp gives the same bits wherever those ran
        for i in range(1, 1024):
            assert viete_partial(i) == math.prod(math.cos(math.pi / (1 << t)) for t in range(2, i + 1))
        for i in range(1, 512):
            tail = math.prod(math.cos(math.pi / (1 << t)) for t in range(i + 1, 121))
            assert cos_tail(i) == (tail, 1.0 - math.pi ** 2 / (6.0 * 4.0 ** i))
        assert viete_partial(1100) == viete_partial(1023)
        assert cos_tail(600) == (1.0, 1.0)

    def test_tail_past_the_last_factor_is_a_float(self):
        # from i = 120 on the product's range is empty
        assert [type(v) for v in cos_tail(600)] == [float, float]

    @pytest.mark.parametrize("i", range(1, 9))
    def test_tail_bound_is_a_lower_bound(self, i):
        tail, bound = cos_tail(i)
        assert bound <= tail <= 1.0

    def test_overlap_witness_fields(self):
        w = overlap_witness(6, 2)
        assert set(w) >= {"n", "r", "inner_product", "trace_distance", "cross_check"}
        assert abs(w["cross_check"] - abs(w["inner_product"])) < 1e-12

    def test_empty_products_are_floats(self):
        # viete_partial(1) multiplies no cosines, and the witness at r = n - 1 reads it
        assert type(viete_partial(1)) is float
        assert type(overlap_witness(5, 4)["inner_product"]) is float

    @pytest.mark.parametrize("n", [21, 64, 2000])
    def test_cross_check_past_any_state_vector(self, n):
        for r in (1, n // 2, n - 2, n - 1):
            w = overlap_witness(n, r)
            assert abs(w["cross_check"] - abs(w["inner_product"])) <= 1e-12

    def test_witness_has_no_size_cap(self):
        # a float product: its factors reach 1.0 long before 2^-1024 underflows
        assert overlap_witness(2000, 1)["trace_distance"] == overlap_witness(64, 1)["trace_distance"]
        assert overlap_witness(2000, 1999)["trace_distance"] == 0.0

    def test_trace_distance_stays_below_peak(self):
        worst = max(
            overlap_witness(n, r)["trace_distance"] for n in range(2, 13) for r in range(1, n)
        )
        assert worst < 0.7712
