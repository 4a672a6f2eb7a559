"""bechain: dense-unitary simulation of block-encoding ancilla uncomputation
and compression gadgets for coherent multiplication of block encodings."""

from .linalg import (
    CMatrix,
    Tolerance,
    herm_funcmat,
    is_unitary,
    kron,
    mat_embed_block,
    opnorm,
)
from .encoding import (
    BlockEncoding,
    DeviationProfile,
    deviation,
    deviation_profile,
    dilate_general,
    dilate_hermitian,
    normalize_selectors,
    random_block_encoding,
    random_near_identity,
    verify_encoding,
)
from .lcu import SIN_PI_14, lcu, lcu_i_minus_h2, lcu_w_uh
from .qsp import (
    ChebPoly,
    PhaseFactors,
    approx_half_sqrt,
    chebyshev_phases,
    qsp_eval,
    qsp_poly_value,
    qsvt_apply,
    solve_phases,
)
from .uncompute import (
    EpsilonExceededError,
    UncomputeReport,
    phase_correct_twisted,
    single_ancilla_unitary,
    uncompute_general,
    uncompute_hermitian,
)
from .mcm import (
    MCMCircuit,
    MCMRaw,
    add_unitary,
    bad_sequence_oracle,
    block_product,
    corner_columns,
    embe_block,
    gadget_error_exact,
    gadget_lw19,
    gadget_naive,
    gadget_pmacg,
    lower_bound_probe,
    macg_bound,
    macg_run_bound,
    mcm_from_raw,
    mcm_unitary,
    raw_unitary,
    seqnorm_bound_check,
    sum_bad_sequences,
)
from .oaa import BoostReport, grover_boost, oaa_boost_report
from .appgen import (
    DysonSpec,
    TrotterSpec,
    controlled_embedding,
    dyson_sequence,
    dyson_spec_from_json,
    trotter_sequence,
    trotter_spec_from_json,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
