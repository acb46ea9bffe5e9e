"""Graph codes and woven graph codes over GF(2), with distance and bound tooling."""

from .gf2 import (
    BinaryMatrix,
    BinaryPoly,
    BivariatePoly,
    BivariatePolyMatrix,
    PolyMatrix,
    kernel_basis,
    minimal_basic,
    nullspace_basis,
    permutation_equivalent,
    poly_mul,
    rank,
    rank_over_rational_field,
    row_reduce,
    tailbite,
)
from .hypergraphs import (
    Hypergraph,
    build_heawood,
    build_three_partite,
    build_utility,
    girth,
    random_regular,
    sd_girth,
)
from .blockcodes import (
    BlockStructure,
    DistanceEstimate,
    LinearBlockCode,
    WovenBlockCode,
    block_distance,
    build_graph_code,
    build_woven_block,
    girth_distance_check,
    identity_assignment,
    min_distance,
    product_distance_bound,
    rate_bound,
)
from .convcodes import (
    CatastrophicEncoderError,
    ConvCode,
    block_distance_conv,
    free_distance,
    rate_half_subcodes,
    spectrum,
    tb_block_code,
    tb_encoder_code,
    zt_block_code,
)
from .woven import (
    DistanceReport,
    WitnessBudget,
    WitnessResult,
    WovenConvCode,
    build_woven_conv,
    distance_bounds,
    encode_stream,
    expanded_generator,
    generator_report,
    minimal_generator,
    orbit_multiplicity,
    permutation_sweep,
    two_dim_forms,
    witness_search,
)
from .bounds import (
    BoundPoint,
    binary_entropy,
    costello_delta,
    costello_exponent,
    emit_curves,
    fhat,
    mu_gamma_optimizers,
    remark_counterexample,
    remark_probabilities,
    vg_delta,
    woven_vg_bound,
)

__version__ = "1.0.0"
