"""nbsopt: optimal placement of nature-based solutions on urban grids.

Builds the placement MILP from a grid instance (impact kernels, budget,
forbidden/pre-existing masks, clusters, fairness), solves it via an
exhaustive oracle or a MILP solver (the bundled HiGHS in-process, or any
solver command over an MPS interchange file),
and reports reductions, budget breakdowns, and equity metrics.
"""

from .analysis import Report, batch_stats, build_report, export_heatmaps, gini
from .clustering import build_partition, label_components, partition_instance
from .engine import Placement
from .generator import default_nbs_catalog, generate_synthetic
from .instance import (
    GridDims,
    Instance,
    Masks,
    NbsType,
    ObjectiveWeights,
    SchemaError,
    UcMeasure,
    ValidationError,
    load_instance,
    save_instance,
)
from .kernels import (
    ImpactSpec,
    Kernel,
    build_kernel,
    compute_big_m,
    default_kernel_set,
    derive_delta,
)
from .model import (
    BuiltModel,
    ObjectiveBreakdown,
    build_model,
    check_placement,
    evaluate_solution,
    objective_normalizers,
)
from .mps import export_interchange, read_mps
from .solve import (
    SolveConfig,
    SolveResult,
    count_decision_units,
    solve,
    solve_external,
    solve_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BuiltModel",
    "GridDims",
    "ImpactSpec",
    "Instance",
    "Kernel",
    "Masks",
    "NbsType",
    "ObjectiveBreakdown",
    "ObjectiveWeights",
    "Placement",
    "Report",
    "SchemaError",
    "SolveConfig",
    "SolveResult",
    "UcMeasure",
    "ValidationError",
    "batch_stats",
    "build_kernel",
    "build_model",
    "build_partition",
    "build_report",
    "check_placement",
    "compute_big_m",
    "count_decision_units",
    "default_kernel_set",
    "default_nbs_catalog",
    "derive_delta",
    "evaluate_solution",
    "export_heatmaps",
    "export_interchange",
    "generate_synthetic",
    "gini",
    "label_components",
    "load_instance",
    "objective_normalizers",
    "partition_instance",
    "read_mps",
    "save_instance",
    "solve",
    "solve_external",
    "solve_oracle",
]
