"""Exact arithmetic for canonical trace ideals of numerical semigroup rings
presented by 2-minors of cyclic 2xn matrices, with nearly/almost Gorenstein
classification and higher-dimensional deformations."""

from .determinantal import (
    DeterminantalInstance,
    NGResult,
    arithmetic_progression_check,
    build,
    classify_almost_gorenstein,
    classify_nearly_gorenstein,
    remark_degrees,
    search_instances,
)
from .errors import (
    BaseMismatch,
    GcdNotOne,
    IdealMismatch,
    InhomogeneousMatrix,
    NoTabulatedWitness,
    NonMinimalGenerators,
    NotApplicable,
    ResourceLimit,
    UnsupportedBaseCase,
    WitnessFailed,
)
from .groebner import GroebnerBasis, buchberger, kernel_over_quotient, minors_basis, toric_ideal, two_minors
from .higher_dim import HigherDimInstance, build_matrices, classify, verify_witness, witness_rows
from .ideals import (
    RelativeIdeal,
    canonical_ideal,
    trace_canonical_oracle,
    unit_ideal,
)
from .lambda_rows import (
    LambdaRow,
    lambda_membership,
    theorem_if_witnesses,
    trace_canonical_lambda,
    trace_canonical_syzygy,
)
from .polyring import PolyRing, Polynomial
from .semigroup import NumericalSemigroup

__version__ = "0.1.0"
