"""Discrete vector calculus and Helmholtz Hodge decompositions built on
diagonal-norm summation-by-parts finite differences."""

from .errors import (
    ConditionsViolated,
    CorruptFieldFile,
    DimensionMismatch,
    GridTooSmall,
    KindMismatch,
    NoPlaneNode,
    NonFiniteEncountered,
    NotDivCurlFree,
    NotInImage,
    NullspaceDimensionUnexpected,
    SbpHodgeError,
    TooLarge,
    UnknownProjectionOrder,
    UnknownSolver,
    UnsupportedOrder,
    WrongDimension,
)
from .grid import Grid1D
from .hodge import (
    HodgeDecomposition,
    ProjectionOrder,
    helmholtz,
    project_im_curl,
    project_im_grad,
)
from .krylov import LinearMap, SolveStats, lsmr, lsqr
from .operators1d import (
    SbpOperator1D,
    build_operator_1d,
    grid_oscillation_1d,
)
from .potentials import (
    KernelReport,
    PotentialConditions,
    check_potential_conditions,
    harmonic_neumann_potential,
    kernel_dimension,
    scalar_potential_integral,
)
from .stencils import available_orders
from .tensor import (
    GridField,
    TensorOps,
    build_tensor_ops,
    curl,
    divergence,
    filter_field,
    gradient,
    inner_product,
    m_norm,
    rot,
    square_tensor_ops,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionsViolated",
    "CorruptFieldFile",
    "DimensionMismatch",
    "Grid1D",
    "GridField",
    "GridTooSmall",
    "HodgeDecomposition",
    "KernelReport",
    "KindMismatch",
    "LinearMap",
    "NoPlaneNode",
    "NonFiniteEncountered",
    "NotDivCurlFree",
    "NotInImage",
    "NullspaceDimensionUnexpected",
    "PotentialConditions",
    "ProjectionOrder",
    "SbpHodgeError",
    "SbpOperator1D",
    "SolveStats",
    "TensorOps",
    "TooLarge",
    "UnknownProjectionOrder",
    "UnknownSolver",
    "UnsupportedOrder",
    "WrongDimension",
    "available_orders",
    "build_operator_1d",
    "build_tensor_ops",
    "check_potential_conditions",
    "curl",
    "divergence",
    "filter_field",
    "gradient",
    "grid_oscillation_1d",
    "harmonic_neumann_potential",
    "helmholtz",
    "inner_product",
    "kernel_dimension",
    "lsmr",
    "lsqr",
    "m_norm",
    "project_im_curl",
    "project_im_grad",
    "rot",
    "scalar_potential_integral",
    "square_tensor_ops",
]
