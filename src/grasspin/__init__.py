"""Relativistic spinning-particle dynamics with anticommuting spin variables.

The package has three layers: exact arithmetic in a truncated Grassmann
algebra (``grassmann``), electromagnetic backgrounds from exact polynomial
potentials (``fields``, ``polynomials``, ``minkowski``), and the dynamics:
the full Grassmann-valued system (``super_dynamics``), its real-valued
lowest-order reduction for spin precession (``bmt``), and the discrete
action used to verify stationarity of solutions (``variational``).
``cli``/``config`` provide the command-line front end.
"""

from .grassmann import (
    GrassmannAlgebra,
    GrassmannNumber,
    Parity,
    algebra,
)
from .polynomials import Polynomial
from .fields import (
    DirectField,
    FieldConfig,
    constant_field,
    constant_f_lower,
    maxwell_residual,
)
from .super_dynamics import (
    ModelParams,
    SuperState,
    SuperTrajectory,
    constraint_value,
    eom_rhs,
    integrate_super,
    lambda_solve,
    leading_order,
)
from .bmt import (
    BMTState,
    BMTTrajectory,
    ConstantFieldOracle,
    anomalous_precession,
    bmt_rhs,
    integrate_bmt,
    spin_vector,
    spin_velocity_angle,
)
from .variational import (
    DiscretePath,
    PathVariation,
    action,
    euler_lagrange_residual,
    stationarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "GrassmannAlgebra",
    "GrassmannNumber",
    "Parity",
    "algebra",
    "Polynomial",
    "DirectField",
    "FieldConfig",
    "constant_field",
    "constant_f_lower",
    "maxwell_residual",
    "ModelParams",
    "SuperState",
    "SuperTrajectory",
    "constraint_value",
    "eom_rhs",
    "integrate_super",
    "lambda_solve",
    "leading_order",
    "BMTState",
    "BMTTrajectory",
    "ConstantFieldOracle",
    "anomalous_precession",
    "bmt_rhs",
    "integrate_bmt",
    "spin_vector",
    "spin_velocity_angle",
    "DiscretePath",
    "PathVariation",
    "action",
    "euler_lagrange_residual",
    "stationarity_residual",
    "__version__",
]
