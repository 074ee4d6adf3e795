import json
import re

import numpy as np
import pytest

from qftkit import acceptance, cli
from qftkit.netlist import decode as decode_netlist
from qftkit.netlist import encode as encode_netlist
from qftkit.qft_pow2 import copy_fourier, prep_approx, prep_exact, standard_qft
from qftkit.shor import build_order_circuit
from qftkit.sim import dft_reference


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def qft3_path(tmp_path, capsys):
    path = tmp_path / "qft3.qc"
    code, _, _ = run_cli(capsys, "build", "--kind", "standard", "--n", "3", "--out", str(path))
    assert code == 0
    return str(path)


class TestBuild:
    def test_stdout_netlist_decodes(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--kind", "standard", "--n", "3")
        assert code == 0
        assert decode_netlist(out) == standard_qft(3)

    def test_kind_specific_flags_required(self, capsys):
        # QftPlan is the one home of these refusals; main turns its ValueError into exit 2
        for argv, message in [
            (["--kind", "banded", "--n", "6"], "banded plan needs a band width b"),
            (["--kind", "logdepth", "--n", "3"], "logdepth plan needs a copy count k"),
        ]:
            code, out, err = run_cli(capsys, "build", *argv)
            assert (code, out) == (2, "")
            assert message in err

    def test_prep_approx_without_a_window_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "build", "--kind", "prep-approx", "--n", "4")
        assert (code, out) == (2, "")
        assert "--kind prep-approx requires --k" in err

    @pytest.mark.parametrize("band", ["0", "-1"])
    def test_band_below_one_is_refused(self, capsys, band):
        code, out, err = run_cli(capsys, "build", "--kind", "banded", "--n", "4", "--band", band)
        assert code == 2
        assert out == ""
        assert "band width must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "standard", "--n", "3", "--band", "2", "--k", "5"],
            ["--kind", "standard", "--n", "3", "--band", "2"],
            ["--kind", "split", "--n", "3", "--k", "4"],
            ["--kind", "banded", "--n", "4", "--band", "2", "--k", "4"],
            ["--kind", "logdepth", "--n", "3", "--k", "4", "--band", "2"],
            ["--kind", "prep", "--n", "3", "--band", "7"],
            ["--kind", "prep", "--n", "3", "--k", "2"],
            ["--kind", "prep-approx", "--n", "3", "--k", "2", "--band", "1"],
            ["--kind", "copy", "--n", "3", "--band", "1"],
        ],
        ids=lambda argv: " ".join([argv[1], *argv[4::2]]),
    )
    def test_flags_that_do_not_apply_to_the_kind_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "build", *argv)
        assert code == 2
        assert out == ""
        assert "takes no" in err

    def test_past_the_angle_limit_is_a_usage_error(self, capsys):
        # refused before any gate: a StructuralError from DyadicAngle would exit 1
        code, out, err = run_cli(capsys, "build", "--kind", "standard", "--n", "65")
        assert code == 2
        assert out == ""
        assert "2^-64 angle limit" in err

    def test_banded_build(self, tmp_path, capsys):
        path = tmp_path / "b.qc"
        code, _, _ = run_cli(
            capsys, "build", "--kind", "banded", "--n", "6", "--band", "3", "--out", str(path)
        )
        assert code == 0
        circ = decode_netlist(path.read_text())
        assert circ.metadata["b"] == 3

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--kind", "prep", "--n", "3"], lambda: prep_exact(3)),
            (["--kind", "prep-approx", "--n", "3", "--k", "2"], lambda: prep_approx(3, 2)),
            (["--kind", "copy", "--n", "3"], lambda: copy_fourier(3, 2)),
            (["--kind", "copy", "--n", "2", "--k", "3"], lambda: copy_fourier(2, 3)),
        ],
        ids=["prep", "prep-approx", "copy default k", "copy k=3"],
    )
    def test_stage_kinds_emit_their_builders(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "build", *argv)
        assert code == 0
        assert decode_netlist(out) == expected()


class TestStats:
    def test_split_at_the_angle_limit(self, tmp_path, capsys):
        # build's stdout is the netlist that stats reads, as in a pipe
        code, out, _ = run_cli(capsys, "build", "--kind", "split", "--n", "64")
        assert code == 0
        path = tmp_path / "split64.qc"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "stats", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["size"], payload["depth"]) == (24_626, 734)

    def test_json_payload_is_frozen(self, qft3_path, capsys):
        code, out, _ = run_cli(capsys, "stats", qft3_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "n",
            "size",
            "depth",
            "width",
            "gate_histogram",
            "error_bound",
        ]
        assert payload["n"] == 3
        assert payload["size"] == 6
        assert payload["depth"] <= 5
        assert payload["gate_histogram"] == {"h": 3, "cp": 3}

    def test_human_output_lists_every_key(self, qft3_path, capsys):
        code, out, _ = run_cli(capsys, "stats", qft3_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert [l.split(":")[0] for l in lines] == list(cli.STATS_KEYS)
        assert "size: 6" in lines

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "stats", "/nonexistent/path.qc")
        assert code == 2
        assert "error" in err

    def test_draws_nothing_so_reads_no_seed(self, qft3_path, capsys, monkeypatch):
        monkeypatch.setenv("QFTKIT_SEED", "abc")
        code, out, _ = run_cli(capsys, "stats", qft3_path, "--json")
        assert code == 0
        assert json.loads(out)["size"] == 6

    def test_takes_no_seed_flag(self, qft3_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "stats", qft3_path, "--seed", "5")
        assert exc.value.code == 2


class TestSim:
    def test_amplitudes_match_the_transform_column(self, qft3_path, capsys):
        code, out, _ = run_cli(capsys, "sim", qft3_path, "--input", "101")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        got = np.zeros(8, dtype=complex)
        for line in lines:
            bits, re, im = line.split()
            got[int(bits, 2)] = float(re) + 1j * float(im)
        assert np.abs(got - dft_reference(8)[:, 5]).max() < 1e-9

    def test_shot_counts_are_seeded_json(self, qft3_path, capsys):
        code, out, _ = run_cli(capsys, "sim", qft3_path, "--input", "000", "--shots", "200", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["shots", "seed", "counts"]
        assert payload["shots"] == 200
        assert payload["seed"] == 4
        assert sum(payload["counts"].values()) == 200
        # one run, every shot drawn in one call
        assert payload["counts"] == {
            "000": 20, "001": 25, "010": 22, "011": 25, "100": 18, "101": 27, "110": 28, "111": 35,
        }
        again = json.loads(run_cli(capsys, "sim", qft3_path, "--input", "000", "--shots", "200", "--seed", "4")[1])
        assert again == payload

    def test_input_validation(self, qft3_path, capsys):
        assert run_cli(capsys, "sim", qft3_path, "--input", "10")[0] == 2
        assert run_cli(capsys, "sim", qft3_path, "--input", "10x")[0] == 2
        assert run_cli(capsys, "sim", qft3_path, "--input", "101", "--shots", "0")[0] == 2

    @pytest.mark.parametrize(
        "n, perm",
        [(3, [0]), (2, "ab"), (2, [0, 0])],
        ids=["too-short", "not-a-list", "repeated-wire"],
    )
    def test_output_permutation_from_the_file_is_checked(self, tmp_path, capsys, n, perm):
        # a repeated wire would merge amplitudes: H on both wires of [0, 0] printed 2 of 4
        path = tmp_path / "bad_perm.qc"
        gates = "".join(f"h {w}\n" for w in range(n))
        path.write_text(f"qubits {n} ancilla 0 classical 0\n# meta {json.dumps({'output_permutation': perm})}\n{gates}")
        for shots in ((), ("--shots", "4")):
            code, out, err = run_cli(capsys, "sim", str(path), "--input", "0" * n, *shots)
            assert code == 2
            assert out == ""
            assert "output_permutation" in err

    def test_shots_past_the_dense_cap_exit_two(self, tmp_path, capsys):
        # 32 data wires: the marginal would be a 32 GiB array
        path = str(tmp_path / "prep16.qc")
        assert run_cli(capsys, "build", "--kind", "prep", "--n", "16", "--out", path)[0] == 0
        code, out, err = run_cli(capsys, "sim", path, "--input", "0" * 32, "--shots", "3")
        assert (code, out) == (2, "")
        assert err.startswith("qftkit: error:") and "exceeds dense cap" in err

    def test_order_circuit_netlist_samples(self, tmp_path, capsys):
        # the permutation covers all 12 data wires: x register reversed, product register kept
        path = tmp_path / "order.qc"
        path.write_text(encode_netlist(build_order_circuit(15, 7)))
        code, out, _ = run_cli(capsys, "sim", str(path), "--input", "0" * 12, "--shots", "20")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert sum(counts.values()) == 20
        # 7 has order 4 mod 15, so y is a multiple of 256 / 4
        assert {int(key, 2) & 0xFF for key in counts} <= {0, 64, 128, 192}
        assert {int(key, 2) >> 8 for key in counts} <= {1, 7, 4, 13}

    def test_measuring_circuit_samples_one_run_per_shot(self, tmp_path, capsys):
        path = str(tmp_path / "logdepth.qc")
        assert run_cli(capsys, "build", "--kind", "logdepth", "--n", "2", "--k", "2", "--out", path)[0] == 0
        argv = ("sim", path, "--input", "0001", "--shots", "40", "--seed", "3")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["shots"] == 40
        assert sum(payload["counts"].values()) == 40
        # the measured pipeline leaves the input register as it found it
        assert all(key.endswith("01") for key in payload["counts"])
        # one run and one draw per shot
        assert payload["counts"] == {"0001": 10, "0101": 6, "1001": 13, "1101": 11}
        assert json.loads(run_cli(capsys, *argv)[1]) == payload
        code, _, err = run_cli(capsys, "sim", path, "--input", "0001")
        assert code == 2
        assert "--shots" in err


class TestSeedResolution:
    def test_environment_seed_is_honored(self, qft3_path, capsys, monkeypatch):
        monkeypatch.setenv("QFTKIT_SEED", "123")
        payload = json.loads(
            run_cli(capsys, "sim", qft3_path, "--input", "000", "--shots", "10")[1]
        )
        assert payload["seed"] == 123

    def test_flag_beats_environment(self, qft3_path, capsys, monkeypatch):
        monkeypatch.setenv("QFTKIT_SEED", "123")
        payload = json.loads(
            run_cli(capsys, "sim", qft3_path, "--input", "000", "--shots", "10", "--seed", "9")[1]
        )
        assert payload["seed"] == 9

    def test_garbage_environment_seed_rejected(self, qft3_path, capsys, monkeypatch):
        monkeypatch.setenv("QFTKIT_SEED", "abc")
        code, _, err = run_cli(capsys, "sim", qft3_path, "--input", "000", "--shots", "10")
        assert code == 2
        assert "QFTKIT_SEED" in err


class TestVerify:
    def test_bounds_suite_prints_the_three_constants(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "bounds")
        assert code == 0
        assert "0.6366" in out
        assert "0.7711" in out
        assert "0.8535" in out

    def test_phase_suite_prints_the_exact_erase_failure_and_its_pin(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "phase")
        assert code == 0
        assert out.startswith("PASS criterion 5: phase-estimation-statistics")
        assert "exact erase failure 1.842e-07" in out
        assert "pin 1e-06" in out
        assert run_cli(capsys, "verify", "--suite", "phase") == (code, out, "")

    def test_arith_suite_prints_the_prep_and_copy_state_errors(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "arith")
        assert code == 0
        assert out.startswith("PASS criterion 4: component-unitarity: L2 state error over all wires <= 1e-10: prep ")
        errors = re.findall(r"(prep|copy) (\S+) \(all", out)
        assert [stage for stage, _ in errors] == ["prep", "copy"]
        assert all(float(err) <= 1e-10 for _, err in errors)

    def test_unitary_suite_small_cap(self, capsys, monkeypatch):
        # the full n <= 12 sweep runs in test_criterion[exact_transforms]; this checks the wiring
        monkeypatch.setattr(acceptance, "MAX_UNITARY_QUBITS", 6)
        code, out, _ = run_cli(capsys, "verify", "--suite", "unitary")
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["PASS criterion 1", "PASS criterion 2"]
        assert "over standard n<=6," in lines[0]

    def test_unknown_suite_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nope"])
        assert exc.value.code == 2


class TestFactor:
    def test_factors_fifteen(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "15", "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["divisor"] in (3, 5)
        assert set(payload) >= {"divisor", "attempts", "trace"}

    def test_even_screen(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "16")
        assert code == 0
        assert json.loads(out)["divisor"] == 2

    def test_prime_input_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "factor", "13")
        assert code == 2
        assert "prime" in err

    def test_retry_budget_below_one_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "factor", "21", "--max-retries", "-1")
        assert code == 2
        assert out == ""
        assert "max_retries must be >= 1" in err

    def test_an_exhausted_retry_budget_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "21", "--backend", "analytic", "--max-retries", "1", "--seed", "2")
        assert code == 1
        payload = json.loads(out)
        assert (payload["divisor"], payload["attempts"]) == (None, 1)

    def test_gate_backend_over_its_cap_is_a_usage_error(self, capsys):
        # seed 0 draws a lucky gcd first, so the cap must be checked before any draw
        code, out, err = run_cli(capsys, "factor", "21", "--backend", "gate", "--seed", "0")
        assert code == 2
        assert out == ""
        assert "gate-backend cap" in err

    def test_analytic_backend_over_its_cap_is_a_usage_error(self, capsys):
        # seed 0 draws a = 1743 first, which shares the divisor 3 with 2049 = 3 * 683
        code, out, err = run_cli(capsys, "factor", "2049", "--seed", "0")
        assert code == 2
        assert out == ""
        assert "analytic-backend cap" in err


class TestAccept:
    def test_quick_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "accept", "--quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS criterion") for line in lines)
