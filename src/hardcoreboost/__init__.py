"""Convex-risk minimization over finite weak-learner classes.

Losses with conjugates and psi-transform calculus, finite hypothesis
classes, risk functionals, a dense LP engine, hard-core decomposition with
duality certificates, minimization oracles, finite-sample deviation bound
calculators, and experiment harnesses.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    BoundValue,
    constants_from_certificate,
    core_classification_bound,
    core_surrogate_bound,
    full_risk_bound,
    rademacher_constant,
    rademacher_surrogate_deviation,
    sample_split_bounds,
    vc_unbounded_bound,
)
from .experiments import (
    ImpossibilityReport,
    LatticeNoiseWorld,
    SweepConfig,
    SweepStage,
    build_staggered,
    consistency_sweep,
    default_schedule,
    impossibility_report,
    max_margin_2d,
    sample_world,
)
from .hardcore import (
    DichotomyReport,
    HardCoreCertificate,
    HardCoreInconsistencyError,
    bounded_representation,
    compute_hardcore,
    separator_certificate,
    verify_dichotomy,
)
from .hypotheses import (
    ExplicitClass,
    FeatureMatrix,
    HypothesisClass,
    LatticeCellClass,
    ProjectionClass,
    ResourceLimitError,
    lsrm_schedule,
    parse_class_spec,
)
from .losses import Loss, UnsupportedLossError, parse_loss, psi_inverse_bound, psi_numeric
from .lp import LinearProgram, LpError, LpSolution, solve
from .optimize import (
    OptimizerConfig,
    OptRun,
    coordinate_descent,
    dual_lower_bound,
    optimize,
    subgradient_descent,
    suboptimality_certificate,
)
from .risk import (
    Sample,
    bayes_risk_discrete,
    bayes_surrogate_risk,
    classification_risk,
    load_sample_csv,
    margins,
    surrogate_risk,
    surrogate_risk_saturated,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
