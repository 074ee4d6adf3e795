import ast
import gc
import importlib.util
import inspect
from pathlib import Path

import pytest

import qftkit
from qftkit import phasest, qft_moduli, qft_pow2, revarith, shor, sim
from qftkit.circuit import CircuitBuilder


@pytest.mark.parametrize("module", [phasest, qft_pow2], ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_export_resolves():
    tree = ast.parse(Path(qftkit.__file__).read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert names
    assert [name for name in names if not hasattr(qftkit, name)] == []


REMOVED_PARAMETERS = [
    (sim, "run_dense", "initial"),
    (sim, "run_sparse", "support_cap"),
    (sim, "extract_unitary", "atol"),
    (shor, "factor", "samples_per_a"),
    (shor, "FactorTask", "seed"),
    (qft_moduli, "arbitrary_modulus_estimate", "padding_bits"),
    (qft_moduli, "arbitrary_modulus_estimate", "k_bits"),
    (CircuitBuilder, "measure", "out"),
    (CircuitBuilder, "__init__", "n_classical"),
]


@pytest.mark.parametrize(
    "owner, name, removed", REMOVED_PARAMETERS, ids=[f"{n}-{r}" for _, n, r in REMOVED_PARAMETERS]
)
def test_unused_parameters_stay_removed(owner, name, removed):
    # each had one value in use; the callers get that value and no option
    assert removed not in inspect.signature(getattr(owner, name)).parameters


REMOVED_NAMES = [
    (phasest, "reconstruct_x"),
    (phasest, "TRANSFER_MATRICES"),
    (revarith, "emit_or"),
    (qftkit, "reconstruct_x"),
]


@pytest.mark.parametrize(
    "owner, name", REMOVED_NAMES, ids=[f"{o.__name__}.{n}" for o, n in REMOVED_NAMES]
)
def test_unused_names_stay_removed(owner, name):
    # none ran outside the tests: reconstruct_batch is the one decoder, and
    # emit_maj's general path covers the OR that emit_or gave it
    assert not hasattr(owner, name)


def test_inline_takes_a_sequence_and_returns_nothing():
    sig = inspect.signature(CircuitBuilder.inline)
    assert sig.parameters["qmap"].annotation == "Sequence[int]"
    assert sig.return_annotation == "None"


def test_every_traced_benchmark_target_is_wrapped_and_restored():
    # a traced benchmark run wraps these public names; renaming or deleting one
    # must fail here rather than only in ``bench/run.py --trace 1``
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    raw = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    finally:
        tracer.remove()
    restored = [owner.__dict__[attr] for owner, attr, _ in tracing.TARGETS]
    names = [name for _, _, name in tracing.TARGETS]
    assert [n for n, r, w in zip(names, raw, wrapped) if w is r] == []
    assert [n for n, r, a in zip(names, raw, restored) if a is not r] == []
    assert tracer._gc_callback not in gc.callbacks
