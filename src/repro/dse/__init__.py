"""Search-driven design-space exploration with Pareto optimisation.

The subsystem the paper's "systematic evaluation" claim calls for: a
declarative parameter space over the accelerator template
(:mod:`repro.dse.space`), a multi-objective cost model built from the
calibrated physical and performance models (:mod:`repro.dse.objectives`),
pluggable seeded search strategies (:mod:`repro.dse.strategies`),
non-domination/hypervolume machinery (:mod:`repro.dse.pareto`), and an
:class:`Explorer` that evaluates every proposed point in parallel through
the content-hash result cache (:mod:`repro.dse.engine`).  Results export
to JSON/CSV for plotting (:mod:`repro.dse.export`).
"""

from repro.dse.engine import (
    Explorer,
    ExplorationResult,
    default_cache_dir,
    shared_hypervolume,
)
from repro.dse.batch import ConfigColumns
from repro.dse.export import export_csv, export_json, front_table, result_to_dict
from repro.dse.objectives import (
    OBJECTIVES,
    SERVING_METRICS,
    Evaluation,
    EvaluationSpec,
    Objective,
    Workload,
    conv_workload,
    evaluate_design,
    evaluate_design_batch,
    model_workload,
    parse_objectives,
)
from repro.dse.pareto import (
    MetricBound,
    ParetoArchive,
    crowding_distance,
    dominates,
    front_hypervolume,
    hypervolume,
    nondominated_sort,
    parse_bound,
    reference_point,
    split_front,
)
from repro.dse.space import (
    COMPONENTS_KEY,
    TILE_PRESETS,
    Axis,
    Boolean,
    Categorical,
    ComponentAxis,
    Constraint,
    LogRange,
    ParamSpace,
    SpaceError,
    gemmini_space,
    mix_space,
    point_key,
    point_label,
    point_to_config,
    point_to_design,
)
from repro.dse.strategies import (
    STRATEGIES,
    AnnealingSearch,
    EvolutionarySearch,
    GridSearch,
    RandomSearch,
    Strategy,
    make_strategy,
)

__all__ = [
    "Explorer",
    "ExplorationResult",
    "default_cache_dir",
    "shared_hypervolume",
    "export_csv",
    "export_json",
    "front_table",
    "result_to_dict",
    "OBJECTIVES",
    "Evaluation",
    "EvaluationSpec",
    "Objective",
    "Workload",
    "conv_workload",
    "evaluate_design",
    "evaluate_design_batch",
    "model_workload",
    "parse_objectives",
    "ConfigColumns",
    "MetricBound",
    "ParetoArchive",
    "crowding_distance",
    "dominates",
    "front_hypervolume",
    "hypervolume",
    "nondominated_sort",
    "parse_bound",
    "reference_point",
    "split_front",
    "Axis",
    "Boolean",
    "Categorical",
    "COMPONENTS_KEY",
    "ComponentAxis",
    "Constraint",
    "LogRange",
    "ParamSpace",
    "SpaceError",
    "TILE_PRESETS",
    "gemmini_space",
    "mix_space",
    "point_key",
    "point_label",
    "point_to_config",
    "point_to_design",
    "STRATEGIES",
    "AnnealingSearch",
    "EvolutionarySearch",
    "GridSearch",
    "RandomSearch",
    "Strategy",
    "make_strategy",
]
