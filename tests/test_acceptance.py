"""One test per acceptance criterion, each printing its PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or ``-s`` to also see the details string of passing criteria.
"""

import pytest

from qftkit import phasest, revarith
from qftkit.acceptance import (
    CRITERIA,
    ERASE_PIN,
    criterion_component_unitarity,
    criterion_phase_statistics,
    format_line,
)
from qftkit.circuit import CNOT, Circuit, X

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
    "builder, extra, details",
    [
        # one ancilla left at 1
        ("build_multiplier", lambda c: X(c.n_qubits), "multiplier dirty ancillas on input [0, 0]"),
        # the top product wire copied into an input, which the block must only read
        ("build_modmul", lambda c: CNOT(c.n_qubits - 1, 1), "modmul[1, 4] -> [3, 4, 4]"),
    ],
)
def test_component_unitarity_names_a_broken_block(monkeypatch, builder, extra, details):
    build = getattr(revarith, builder)

    def broken(*args):
        circ = build(*args)
        gates = [*circ.all_gates(), extra(circ)]
        return Circuit.from_gates(gates, circ.n_qubits, circ.n_ancilla, circ.n_classical, circ.metadata)

    monkeypatch.setattr(revarith, builder, broken)
    result = criterion_component_unitarity(quick=True)
    assert not result.passed
    assert result.details == details
