"""Spanning bipartite block designs: construction, exact verification,
A-optimality diagnostics, and Monte Carlo validation of variance balance."""

from .analyzer import (
    BlockRegularity,
    ConditionViolation,
    ContrastsNotEstimable,
    DegenerateDesign,
    InformationMatrix,
    MissingDcs,
    OptimalityReport,
    SpectralSummary,
    TraceMismatch,
    a_optimality,
    check_sbbd,
    classify_blocks,
    generalized_inverse,
    information_matrix,
    is_spanning,
    spectrum,
)
from .composer import (
    ComposedDesign,
    compose,
    cyclic_shift_perms,
    permute_extension,
    permute_panels,
    predicted_parameters,
    spanning_guaranteed,
)
from .design_core import (
    DesignMatrix,
    DimensionError,
    FormatError,
    SbbdError,
    SbbdParameters,
    blocks_from_json,
    blocks_to_json,
    matrix_from_csv,
    matrix_to_csv,
)
from .estimator import (
    EffectVector,
    SimulationReport,
    contrast_basis,
    estimate_effects,
    random_effects,
    simulate,
)
from .masks import (
    SpanningViolation,
    export_masks,
    schedule_from_bytes,
    schedule_to_bytes,
    schedule_to_json,
)
from .ordered_designs import (
    FiniteField,
    NotPrimePower,
    OrderedDesign,
    PairCountMismatch,
    RepeatedSymbolInRow,
    construct_od1,
    gf,
    od_from_csv,
    od_to_csv,
    verify_od,
)
from .rl_designs import (
    BlockDesign,
    CatalogMismatch,
    NotADifferenceSet,
    NotInCatalog,
    NotPairBalanced,
    NotRegular,
    all_pairs_plus_full,
    catalog_by_id,
    catalog_lookup,
    design_from_json,
    design_to_json,
    incidence_matrix,
    symmetric_bibd_from_difference_set,
    verify_rl_design,
)

__version__ = "0.1.0"
