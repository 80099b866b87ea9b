"""Spanning bipartite block designs: construction, exact verification,
A-optimality diagnostics, and Monte Carlo validation of variance balance.

`import sbbd` is lazy: it loads no submodule and no numpy.  Each public
name is imported from its defining module on first access (PEP 562), so
`from sbbd import catalog_by_id` loads only `rl_designs` and what it
imports.  `from sbbd import *` and `sbbd.<name>` work as with eager
imports, and `dir(sbbd)` lists every export.  The command line builds on
this: it calls the library only as `sbbd.<name>`, so `sbbd --help` and
usage errors never load numpy, and its entry (`sbbd.cli.run`) turns the
cyclic GC off and freezes its generations for the process's short life.
"""

from importlib import import_module

__version__ = "0.1.0"

# export name -> defining module, the one table behind __all__ and __getattr__
_MODULE_OF = {
    name: module
    for module, names in {
        "analyzer": (
            "ConditionViolation",
            "ContrastsNotEstimable",
            "OptimalityReport",
            "TraceMismatch",
            "a_optimality",
            "check_sbbd",
            "generalized_inverse",
            "is_spanning",
        ),
        "composer": (
            "compose",
            "permute_extension",
            "predicted_parameters",
            "spanning_guaranteed",
        ),
        "design_core": (
            "DesignMatrix",
            "DimensionError",
            "FormatError",
            "SbbdError",
            "SbbdParameters",
            "Violation",
            "blocks_from_json",
            "blocks_to_json",
            "matrix_from_csv",
            "matrix_to_csv",
            "read_design",
            "schedule_to_bytes",
            "schedule_to_json",
        ),
        "estimator": (
            "EffectVector",
            "SimulationReport",
            "random_effects",
            "simulate",
        ),
        "masks": (
            "SpanningViolation",
            "export_masks",
        ),
        "ordered_designs": (
            "FiniteField",
            "NotPrimePower",
            "OrderedDesign",
            "PairCountMismatch",
            "RepeatedSymbolInRow",
            "construct_od1",
            "gf",
            "od_from_csv",
            "od_to_csv",
            "verify_od",
        ),
        "rl_designs": (
            "BlockDesign",
            "CatalogMismatch",
            "NotADifferenceSet",
            "NotInCatalog",
            "NotPairBalanced",
            "NotRegular",
            "catalog_by_id",
            "design_from_json",
            "symmetric_bibd_from_difference_set",
            "verify_rl_design",
        ),
    }.items()
    for name in names
}

__all__ = [*_MODULE_OF]


def __getattr__(name: str):
    # not cached in the package namespace: sbbd.<name> is always the
    # defining module's current attribute
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
