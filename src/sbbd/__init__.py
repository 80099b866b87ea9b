"""Spanning bipartite block designs: construction, exact verification,
A-optimality diagnostics, and Monte Carlo validation of variance balance."""

from .analyzer import (
    ConditionViolation,
    ContrastsNotEstimable,
    OptimalityReport,
    SpectralSummary,
    TraceMismatch,
    a_optimality,
    check_sbbd,
    classify_blocks,
    generalized_inverse,
    is_spanning,
    spectrum,
)
from .composer import (
    compose,
    permute_extension,
    predicted_parameters,
    spanning_guaranteed,
)
from .design_core import (
    DesignMatrix,
    DimensionError,
    FormatError,
    SbbdError,
    SbbdParameters,
    Violation,
    blocks_from_json,
    blocks_to_json,
    matrix_from_csv,
    matrix_to_csv,
)
from .estimator import (
    EffectVector,
    SimulationReport,
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
    design_from_json,
    symmetric_bibd_from_difference_set,
    verify_rl_design,
)

__version__ = "0.1.0"
