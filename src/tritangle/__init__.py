"""Exact classification of tripartite qubit entanglement.

The library evaluates, for a three-qubit pure state, the ordered
seven-element list [|Det|; C_x0, C_x1, C_y0, C_y1, C_z0, C_z1] built from
the hyperdeterminant of the amplitude hypermatrix and the six 2x2
sub-determinant moduli.  The list vanishes identically exactly when the
state is a product of three one-qubit factors; the library decides that
condition exactly over Gaussian-rational amplitudes, extracts the factors,
applies local unitaries, and analyzes single-qubit measurement collapse.
"""

from .bipartite import concurrence, concurrence2, det2, is_separable_bipartite
from .errors import (
    BackendMismatch,
    EmptyState,
    ImpossibleOutcome,
    InputFileError,
    KetSyntaxError,
    MixedArity,
    NonFinite,
    NotSeparable,
    ResidualNonzero,
    TritangleError,
    UnsupportedIrrational,
    ZeroScale,
)
from .hyperdet import (
    ClassificationVector,
    cayley_det,
    cayley_det_schlafli,
    classify,
    display_normalize,
    sub_concurrences2,
    submatrix,
)
from .ketparser import KetExpr, parse, parse_state, render, state_to_ket, to_state
from .measurement import CollapseResult, collapse
from .scalars import DEFAULT_EPS, GaussianRational
from .separability import (
    Factorization,
    antipodal_pair_states,
    extract_factors,
    is_separable,
    rank1_oracle,
)
from .states import (
    AXIS_OUTCOME_ORDER,
    SLICE_INDEX,
    Axis,
    BipartiteState,
    TripartiteState,
    state_from_json,
    state_to_json,
)
from .unitary import (
    Unitary2,
    apply_local_2,
    apply_local_3,
    random_rational_unitary2,
    random_unitary2,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_OUTCOME_ORDER",
    "Axis",
    "BackendMismatch",
    "BipartiteState",
    "ClassificationVector",
    "CollapseResult",
    "DEFAULT_EPS",
    "EmptyState",
    "Factorization",
    "GaussianRational",
    "ImpossibleOutcome",
    "InputFileError",
    "KetExpr",
    "KetSyntaxError",
    "MixedArity",
    "NonFinite",
    "NotSeparable",
    "ResidualNonzero",
    "SLICE_INDEX",
    "TripartiteState",
    "TritangleError",
    "Unitary2",
    "UnsupportedIrrational",
    "ZeroScale",
    "antipodal_pair_states",
    "apply_local_2",
    "apply_local_3",
    "cayley_det",
    "cayley_det_schlafli",
    "classify",
    "collapse",
    "concurrence",
    "concurrence2",
    "det2",
    "display_normalize",
    "extract_factors",
    "is_separable",
    "is_separable_bipartite",
    "parse",
    "parse_state",
    "random_rational_unitary2",
    "random_unitary2",
    "rank1_oracle",
    "render",
    "state_from_json",
    "state_to_json",
    "state_to_ket",
    "sub_concurrences2",
    "submatrix",
    "to_state",
]
