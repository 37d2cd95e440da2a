"""Dimensionless transfer learning for car-like vehicle braking maneuvers."""

from .dataset import (
    DEFAULT_VEHICLES,
    Dataset,
    ManeuverRecord,
    kinematic_grid,
    load_csv,
    merge,
    save_csv,
    split,
    surrogate_grid,
)
from .dimensions import (
    DimensionMatrix,
    DimensionVector,
    PiBasis,
    PiGroup,
    VariableDecl,
    build_dimension_matrix,
    inverse_transform_outputs,
    nullspace_pi_basis,
    parse_dimension,
    repeated_vars_pi_basis,
)
from .experiments import (
    ExperimentReport,
    PredictionCell,
    comparative_study,
    learning_curve,
    mae,
    run_matrix,
)
from .features import FeatureMatrix, Pipeline, SCHEME_NAMES, make_pipeline
from .gbt import Ensemble, GbtConfig, RegressionTree, fit
from .simulator import (
    FinalPose,
    ManeuverInput,
    VehicleSpec,
    analytic_arc_oracle,
    simulate_dynamic_surrogate,
    simulate_kinematic,
)

__version__ = "0.1.0"
