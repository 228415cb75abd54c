"""Exact normal forms, resonant lattices and integrability certificates
for local analytic maps and vector fields around a fixed point.

Everything is computed in exact arithmetic over the rationals or Gaussian
rationals; every "verified" claim corresponds to a residual that is exactly
the zero series.
"""

from .errors import (
    DulacError,
    HypothesisError,
    InternalInvariantError,
    SystemFileError,
)
from .scalars import GaussianRational, Scalar, gaussian
from .series import (
    ScalarSeries,
    SeriesError,
    VectorSeries,
    compose,
    cross,
    det_series,
    gradient,
    invert,
    jacobian,
    lie_derivative,
    unit_power,
)
from .resonance import (
    BoundVerification,
    EigenSpec,
    LatticeBasis,
    RootValue,
    SmallDivisorBound,
    SymbolicBound,
    enumerate_lattice,
    small_divisor_bound_field,
    small_divisor_bound_map,
    verify_bound,
)
from .normalizer import (
    FieldSystem,
    IntegrabilityReport,
    MapSystem,
    NormalizationResult,
    check_functional_equations,
    classify,
    extract_common_factor_field,
    extract_integrable_shape_map,
    growth_diagnostic,
    normalize,
    reduce_to_single_function,
    verify_conjugacy,
)
from .integrals import (
    IndependenceCertificate,
    independence_check,
    monomial_integrals,
    pullback_integrals,
    search_integrals,
    verify_integral,
)
from .embedding import (
    EmbeddingField,
    embedding_field,
    time_one_map,
    verify_equivariance,
)

__version__ = "0.1.0"
