"""Angle-probed dynamic step sizes for gradient descent.

The core stepper probes a small distance h perpendicular to the current
gradient, measures the angle theta between the gradients at the two points,
and steps h * cot(theta) along the normalized descent direction — the
estimated distance to where the two gradient lines intersect. The package
also ships the standard comparison optimizers, analytic test surfaces,
executable descent/Wolfe checks, and a desk-scale experiment harness.
"""

from .baselines import BaselineConfig, BaselineState, baseline_step
from .objective import (
    AnalyticObjective,
    BatchContext,
    Objective,
    isotropic_quadratic,
    rosenbrock,
    spd_quadratic,
    toy_a,
    toy_b,
)
from .optimizer import (
    DycentConfig,
    DycentState,
    NonFiniteStepError,
    StepTrace,
    dycent_step,
    maybe_double,
    update_average,
)
from .records import TrajectoryRecord
from .vecmath import (
    DimensionError,
    ParamVector,
    RngHandle,
    ZeroGradientError,
    angle_between,
    norm,
    sample_perpendicular,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticObjective",
    "BaselineConfig",
    "BaselineState",
    "BatchContext",
    "DimensionError",
    "DycentConfig",
    "DycentState",
    "NonFiniteStepError",
    "Objective",
    "ParamVector",
    "RngHandle",
    "StepTrace",
    "TrajectoryRecord",
    "ZeroGradientError",
    "angle_between",
    "baseline_step",
    "dycent_step",
    "isotropic_quadratic",
    "maybe_double",
    "norm",
    "rosenbrock",
    "sample_perpendicular",
    "spd_quadratic",
    "toy_a",
    "toy_b",
    "update_average",
]
