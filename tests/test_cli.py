import json

import numpy as np
import pytest

from qftkit import cli
from qftkit.netlist import decode as decode_netlist
from qftkit.qft_pow2 import copy_fourier, prep_approx, prep_exact, standard_qft
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
        code, _, err = run_cli(capsys, "build", "--kind", "banded", "--n", "6")
        assert code == 2
        assert "band" in err
        code, _, err = run_cli(capsys, "build", "--kind", "logdepth", "--n", "3")
        assert code == 2
        assert "--k" in err

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
            "measured_error",
            "seed",
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
        again = json.loads(run_cli(capsys, "sim", qft3_path, "--input", "000", "--shots", "200", "--seed", "4")[1])
        assert again == payload

    def test_input_validation(self, qft3_path, capsys):
        assert run_cli(capsys, "sim", qft3_path, "--input", "10")[0] == 2
        assert run_cli(capsys, "sim", qft3_path, "--input", "10x")[0] == 2
        assert run_cli(capsys, "sim", qft3_path, "--input", "101", "--shots", "0")[0] == 2


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

    def test_unitary_suite_small_cap(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "unitary")[0] == 0

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


    def test_gate_backend_over_its_cap_is_a_usage_error(self, capsys):
        # seed 0 draws a lucky gcd first, so the cap must be checked before any draw
        code, out, err = run_cli(capsys, "factor", "21", "--backend", "gate", "--seed", "0")
        assert code == 2
        assert out == ""
        assert "gate-backend cap" in err


class TestAccept:
    def test_quick_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "accept", "--quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(line.startswith("PASS criterion") for line in lines)
