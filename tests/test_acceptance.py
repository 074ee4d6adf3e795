"""One test per acceptance criterion, each printing its PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or ``-s`` to also see the details string of passing criteria.
"""

import numpy as np
import pytest

from qftkit import acceptance, phasest, qft_moduli, revarith, shor
from qftkit.acceptance import (
    CRITERIA,
    ERASE_PIN,
    criterion_component_unitarity,
    criterion_crt_identities,
    criterion_factoring,
    criterion_phase_statistics,
    format_line,
)
from qftkit.circuit import CNOT, Circuit, P, X, dyadic

_IDS = [c.__name__.removeprefix("criterion_") for c in CRITERIA]


@pytest.mark.parametrize(
    ("index", "criterion"), list(enumerate(CRITERIA, start=1)), ids=_IDS
)
def test_criterion(index, criterion):
    result = criterion(False)
    print(format_line(index, result))
    assert result.passed, format_line(index, result)


def test_phase_statistics_fails_a_channel_above_its_pin(monkeypatch):
    # 0.05 is below failure_bound(8, 48) = 0.0793, so only the pin can catch it
    monkeypatch.setattr(phasest, "erase_failure", lambda n, k, x: 0.05)
    assert 0.05 < phasest.failure_bound(8, 48)
    result = criterion_phase_statistics(quick=True)
    assert not result.passed
    assert f"pin {ERASE_PIN:.0e}" in result.details
    assert "5.000e-02" in result.details


@pytest.mark.parametrize(
    "builder, extra, details, owner",
    [
        # one ancilla left at 1
        ("build_multiplier", lambda c: X(c.n_qubits), "multiplier dirty ancillas on input [0, 0]", revarith),
        # the top product wire copied into an input, which the block must only read
        ("build_modmul", lambda c: CNOT(c.n_qubits - 1, 1), "modmul[1, 4] -> [3, 4, 4]", revarith),
        # the carry row's top bit set, so s + c misses the rows' sum
        ("build_carry_save", lambda c: X(c.n_qubits - 1), "carry_save[0, 0, 0] -> [0, 0, 0, 0, 8]", revarith),
        # a phase on x's low bit, which leaves every fidelity |<psi_x|out>| at 1
        ("prep_exact", lambda c: P(0, dyadic(1, 3)), "prep_exact(1) x=1: state error 7.65e-01", acceptance),
        # X on the blank register fixes |psi_0> = |+> but negates |psi_1> = |->
        ("copy_fourier", lambda c: X(0), "copy_fourier(1, 2) y=1: state error 2.00e+00", acceptance),
    ],
)
def test_component_unitarity_names_a_broken_block(monkeypatch, builder, extra, details, owner):
    build = getattr(owner, builder)

    def broken(*args):
        circ = build(*args)
        gates = [*circ.all_gates(), extra(circ)]
        return Circuit.from_gates(gates, circ.n_qubits, circ.n_ancilla, circ.n_classical, circ.metadata)

    monkeypatch.setattr(owner, builder, broken)
    result = criterion_component_unitarity(quick=True)
    assert not result.passed
    assert result.details == details


@pytest.mark.parametrize(
    "criterion, builder, n, details",
    [
        (acceptance.criterion_exact_transforms, "split_qft", 3, "operator distance"),
        (acceptance.criterion_banded_approximation, "banded_qft", 8, "banded(8,3) distance"),
        (acceptance.criterion_banded_approximation, "banded_qft", 10, "basis probes"),
    ],
    ids=["exact-split", "banded-distances", "banded-probes"],
)
def test_transform_criteria_read_the_recorded_output_order(monkeypatch, criterion, builder, n, details):
    # the same gates at size n, recorded as leaving the output in natural order
    build = getattr(acceptance, builder)

    def planted(*args):
        circ = build(*args)
        if args[0] == n:
            circ.metadata["output_permutation"] = list(range(n))
        return circ

    monkeypatch.setattr(acceptance, builder, planted)
    result = criterion(quick=True)
    assert not result.passed
    assert details in result.details


def _no_draws(*args, **kwargs):
    raise AssertionError("the exact criteria draw no random numbers")


def test_estimation_criterion_is_exact_and_fails_below_its_threshold(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    result = criterion_crt_identities(quick=True)
    assert result.passed
    assert "0.99991, 0.99973, 0.99984 >= 0.99 " in result.details
    # 0.995 per x leaves 0.995^5 = 0.975 for m = 5, below 0.99
    monkeypatch.setattr(qft_moduli, "_mode_probability", lambda q, x, copies: 0.995)
    assert not criterion_crt_identities(quick=True).passed


def test_factoring_criterion_is_exact_outside_its_smoke_runs(monkeypatch):
    monkeypatch.setattr(shor, "factor", lambda n, **kw: {"divisor": 3})
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    result = criterion_factoring(quick=True)
    assert result.passed
    assert "0.99951, 0.99920, 0.99897 >= 0.95" in result.details
    assert "<= 1e-10 over all 7 units of 15" in result.details
    # 1 - 0.8^10 = 0.893 < 0.95
    monkeypatch.setattr(shor, "_attempt_success", lambda n, backend, qft: 0.2)
    result = criterion_factoring(quick=True)
    assert not result.passed
    assert "0.89263, 0.89263, 0.89263 >= 0.95" in result.details
