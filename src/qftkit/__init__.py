"""Fourier-transform circuit synthesis, simulation, and verification toolkit."""

from .acceptance import CriterionResult, run_all
from .circuit import (
    CNOT,
    CP,
    Circuit,
    CircuitBuilder,
    DyadicAngle,
    Gate,
    H,
    MeasureBasis,
    P,
    Toffoli,
    X,
    dyadic,
)
from .errors import (
    CapacityError,
    NetlistError,
    NonInvertibleError,
    QftkitError,
    SimulationError,
    StructuralError,
)
from .netlist import decode as decode_netlist
from .netlist import encode as encode_netlist
from .phasest import (
    basis_probs,
    erase_failure,
    failure_bound,
    reconstruct_batch,
)
from .qft_moduli import (
    arbitrary_modulus_estimate,
    crt_maps,
    estimate_from_sample,
    mixed_radix_qft,
    prime_power_factors,
)
from .qft_pow2 import (
    LogdepthQft,
    QftPlan,
    banded_qft,
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
from .revarith import (
    build_carry_save,
    build_iterated_product,
    build_modmul,
    build_multiplier,
    build_prefix_add,
    build_telescoping_subtract,
)
from .shor import (
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
from .sim import (
    DEFAULT_SEED,
    dft_reference,
    extract_unitary,
    run_classical_batch,
    run_classical_bits,
    run_dense,
    run_sparse,
    sparse_marginal,
)

__version__ = "0.1.0"
