"""Exact classification of tripartite qubit entanglement.

The library evaluates, for a three-qubit pure state, the ordered
seven-element list [|Det|; C_x0, C_x1, C_y0, C_y1, C_z0, C_z1] built from
the hyperdeterminant of the amplitude hypermatrix and the six 2x2
sub-determinant moduli.  The list vanishes identically exactly when the
state is a product of three one-qubit factors; the library decides that
condition exactly over Gaussian-rational amplitudes, extracts the factors,
applies local unitaries, and analyzes single-qubit measurement collapse.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.  Each is imported
#: on first access (PEP 562), so ``import tritangle`` loads no submodule and
#: a command or a script loads only the modules it uses.
_SUBMODULE_NAMES = {
    "bipartite": ("concurrence", "concurrence2", "det2", "is_separable_bipartite"),
    "errors": (
        "BackendMismatch",
        "EmptyState",
        "ImpossibleOutcome",
        "InputFileError",
        "KetSyntaxError",
        "MixedArity",
        "NonFinite",
        "NotSeparable",
        "ResidualNonzero",
        "TritangleError",
        "UnsupportedIrrational",
        "ZeroScale",
    ),
    "hyperdet": (
        "ClassificationVector",
        "cayley_det",
        "cayley_det_schlafli",
        "classify",
        "display_normalize",
        "sub_concurrences2",
        "submatrix",
    ),
    "ketparser": ("KetExpr", "parse", "parse_state", "render", "state_to_ket", "to_state"),
    "measurement": ("CollapseResult", "collapse"),
    "scalars": ("DEFAULT_EPS", "GaussianRational"),
    "separability": (
        "Factorization",
        "antipodal_pair_states",
        "extract_factors",
        "is_separable",
        "rank1_oracle",
    ),
    "states": (
        "AXIS_OUTCOME_ORDER",
        "SLICE_INDEX",
        "Axis",
        "BipartiteState",
        "TripartiteState",
        "state_from_json",
        "state_to_json",
    ),
    "unitary": (
        "Unitary2",
        "apply_local_2",
        "apply_local_3",
        "random_rational_unitary2",
        "random_unitary2",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
