import os
import subprocess
import sys
from pathlib import Path

import hardcoreboost

# hardcoreboost.__all__ is built from dir(), so it holds the submodules the
# package imports by name as well as the public functions and classes
PUBLIC_NAMES = [
    "BoundInputs", "BoundReport", "BoundValue", "DichotomyReport", "ExplicitClass",
    "FeatureMatrix", "HardCoreCertificate", "HardCoreInconsistencyError", "HypothesisClass",
    "ImpossibilityReport", "LatticeCellClass", "LatticeNoiseWorld", "LinearProgram", "Loss",
    "LpError", "LpSolution", "OptRun", "OptimizerConfig", "ProjectionClass",
    "ResourceLimitError", "Sample", "SweepConfig", "SweepStage", "UnsupportedLossError",
    "bayes_risk_discrete", "bayes_surrogate_risk", "bounded_representation", "bounds",
    "build_staggered", "classification_risk", "compute_hardcore", "consistency_sweep",
    "constants_from_certificate", "coordinate_descent", "core_classification_bound",
    "core_surrogate_bound", "default_schedule", "dual_lower_bound", "experiments",
    "full_risk_bound", "hardcore", "hypotheses", "impossibility_report", "load_sample_csv",
    "losses", "lp", "lsrm_schedule", "margins", "max_margin_2d", "optimize",
    "parse_class_spec", "parse_loss", "psi_inverse_bound", "psi_numeric",
    "rademacher_constant", "rademacher_surrogate_deviation", "risk", "sample_split_bounds",
    "sample_world", "separator_certificate", "solve", "subgradient_descent",
    "suboptimality_certificate", "surrogate_risk", "surrogate_risk_saturated",
    "vc_unbounded_bound", "verify_dichotomy",
]


def test_public_names_are_pinned():
    # the public names are a contract: a change here is recorded in CHANGES.md
    assert len(PUBLIC_NAMES) == 67
    assert sorted(hardcoreboost.__all__) == PUBLIC_NAMES


def test_import_leaves_the_lp_engine_unloaded():
    # scipy.optimize (and the scipy.sparse it imports) load at the first LP
    # solve, so a command that solves none starts without them
    src = str(Path(hardcoreboost.__file__).resolve().parents[1])
    code = ("import sys, hardcoreboost; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
