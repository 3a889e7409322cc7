"""Box-rule explanations for black-box classifiers.

Local explanations are axis-aligned boxes around a query point, found by
gradient ascent on differentiable surrogates of coverage and precision,
then simplified into short attribute rules. Local rules compose into a
global rule set by greedy coverage selection.
"""

from .blackbox import (
    ExternalCommandProvider,
    PredictionProvider,
    StoredColumnProvider,
    SyntheticOracle,
    SyntheticShape,
    predict_batch,
)
from .errors import (
    InconsistentExplanationError,
    LoadError,
    MaireError,
    ProviderError,
    SchemaError,
)
from .explain import Explanation, explain, explain_encoded, explain_many
from .global_explain import GlobalExplanation, global_predict, msd_select, rp_select
from .indicator import (
    ApproxConstants,
    BoxBounds,
    audit_bounds,
    cov_exact,
    cov_hat,
    gamma,
    inside_mask,
    pre_exact_or_none,
    pre_hat,
)
from .optimize import OptimizationTrace, OptimizerConfig, gradient, initial_bounds, objective, optimize
from .schema import (
    AttributeSchema,
    EncodedSpace,
    RawTable,
    RuleClause,
    decode_bounds,
    encode,
    load_schema,
    load_table,
    snap_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxConstants",
    "AttributeSchema",
    "BoxBounds",
    "EncodedSpace",
    "Explanation",
    "ExternalCommandProvider",
    "GlobalExplanation",
    "InconsistentExplanationError",
    "LoadError",
    "MaireError",
    "OptimizationTrace",
    "OptimizerConfig",
    "PredictionProvider",
    "ProviderError",
    "RawTable",
    "RuleClause",
    "SchemaError",
    "StoredColumnProvider",
    "SyntheticOracle",
    "SyntheticShape",
    "audit_bounds",
    "cov_exact",
    "cov_hat",
    "decode_bounds",
    "encode",
    "explain",
    "explain_encoded",
    "explain_many",
    "gamma",
    "global_predict",
    "gradient",
    "initial_bounds",
    "inside_mask",
    "load_schema",
    "load_table",
    "msd_select",
    "objective",
    "optimize",
    "pre_exact_or_none",
    "pre_hat",
    "predict_batch",
    "rp_select",
    "snap_discrete",
]
