import ast
import gc
import importlib.util
import inspect
from pathlib import Path

import pytest

import qftkit
from qftkit import acceptance, circuit, phasest, qft_moduli, qft_pow2, revarith, shor, sim
from qftkit.circuit import CircuitBuilder


PACKAGE_IMPORTS = [
    node for node in ast.parse(Path(qftkit.__file__).read_text()).body if isinstance(node, ast.ImportFrom)
]
MODULES = [importlib.import_module(f"qftkit.{p.stem}") for p in sorted(Path(qftkit.__file__).parent.glob("[!_]*.py"))]
MODULES_WITH_ALL = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES_WITH_ALL, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    # and the package exports from the module only what its __all__ lists
    short = module.__name__.rpartition(".")[2]
    exported = [a.name for node in PACKAGE_IMPORTS if node.module == short for a in node.names]
    assert exported
    assert [name for name in exported if name not in module.__all__] == []


def test_every_package_export_resolves():
    names = [a.asname or a.name for node in PACKAGE_IMPORTS for a in node.names]
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
    (qft_moduli, "arbitrary_modulus_estimate", "seed"),
    (qft_moduli, "arbitrary_modulus_estimate", "copies"),
    (qft_pow2, "LogdepthQft", "window"),
    (CircuitBuilder, "measure", "out"),
    (CircuitBuilder, "__init__", "n_classical"),
    (revarith, "_emit_addsub_core", "keep_dag"),
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
    (revarith, "build_adder"),
    (revarith, "build_subtractor"),
    (qftkit, "build_adder"),
    (qftkit, "build_subtractor"),
    (qft_moduli, "CrtBasis"),
    (qftkit, "CrtBasis"),
    (shor.FactorTask, "n_bits"),
    (revarith, "build_three_two"),
    (revarith, "build_four_two"),
    (qftkit, "build_three_two"),
    (qftkit, "build_four_two"),
    (revarith, "_emit_three_two_refs"),
    (revarith, "_emit_four_two_refs"),
    (qft_pow2, "_emit_ladder_on"),
    (qft_pow2, "MAX_STANDARD_N"),
    (qft_pow2, "MAX_SPLIT_N"),
    (qft_pow2, "MAX_CHANNEL_N"),
    (qft_pow2, "MAX_WITNESS_N"),
    (acceptance, "_prep_fidelity"),
    (acceptance, "_copy_error"),
    (sim, "sparse_to_dense"),
    (qftkit, "sparse_to_dense"),
    (shor, "MAX_TASK_MODULUS"),
    (shor, "_check_gate_cap"),
    (qft_moduli, "MAX_ESTIMATE_MODULUS"),
    (qft_moduli, "MAX_MIXED_RADIX_MODULUS"),
    (sim, "basis_state"),
    (qft_pow2, "_MAX_STATE_N"),
    (qft_pow2, "_mu_vector"),
    (qft_moduli, "MAX_CRT_MODULUS"),
    (circuit, "lower"),
    (qftkit, "lower"),
    (qft_pow2, "fourier_state"),
    (qftkit, "fourier_state"),
    (sim, "_RESCALE_HALVINGS"),
    (qft_pow2, "bit_reversed_indices"),
    (qftkit, "bit_reversed_indices"),
    (qft_pow2, "_permuted_index"),
]


@pytest.mark.parametrize(
    "owner, name", REMOVED_NAMES, ids=[f"{o.__name__}.{n}" for o, n in REMOVED_NAMES]
)
def test_unused_names_stay_removed(owner, name):
    # none ran outside the tests: reconstruct_batch is the one decoder,
    # emit_maj's general path covers the OR that emit_or gave it, and
    # build_prefix_add / build_telescoping_subtract at k = 2 are the adder
    # and subtractor; build_carry_save certifies the one Wallace tree that
    # the 3-2 and 4-2 counters wrapped; crt_maps' two index maps replace
    # CrtBasis, and _ladder_layers is the one ladder; the dyadic angle grid is
    # the one build limit in place of the per-builder size caps;
    # acceptance._state_error is the one exact state check, over every wire;
    # shor._check_cap holds both backend caps, which every task above them
    # reaches, prime_power_factors' and the padded readout's caps bound the
    # mixed-radix and estimation sizes, and run_dense's basis vector is built
    # after _check_input, the one input-range check; overlap_witness checks
    # its product states factor by factor, a Fourier state is a column of
    # dft_reference, and the mixed-radix matrix falls under sim's DFT cap;
    # nothing lowered a circuit onto {H, P, CP}; the dense Hadamard applies
    # its 1/sqrt(2) in its own writes, so no held halvings are rescaled;
    # qft_pow2._output_wires is the one reading of a recorded output order,
    # read through sim._read_bits, and the tests hold their own bit reversal
    assert not hasattr(owner, name)


# every size cap, by module and name; a new one is added here on purpose
SIZE_CAPS = {
    ("circuit", "MAX_LOG_DENOMINATOR"),
    ("sim", "MAX_DENSE_QUBITS"),
    ("sim", "MAX_UNITARY_QUBITS"),
    ("sim", "SPARSE_SUPPORT_CAP"),
    ("sim", "MAX_DFT_DIM"),
    ("shor", "MAX_GATE_MODULUS"),
    ("shor", "MAX_ANALYTIC_MODULUS"),
}
# named like a cap, but a pin of criterion 3's depth certificate, not a size limit
CERTIFICATE_PINS = {("acceptance", "SUBLINEAR_CAP")}


def test_every_cap_is_listed():
    found = set()
    for path in sorted(Path(qftkit.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and (t.id.startswith(("MAX_", "_MAX_")) or t.id.endswith("_CAP")):
                    found.add((path.stem, t.id))
    assert found == SIZE_CAPS | CERTIFICATE_PINS


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
