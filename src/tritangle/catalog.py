"""Canonical named states and their commonly quoted classifications.

Each entry pairs a ket expression with the classification pattern usually
quoted for it.  The table command recomputes every pattern from the
expression; the quoted values are reference points only, and the cluster
state's quoted pattern is known to disagree with direct evaluation (see
README, "Reference-pattern audit").
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .ketparser import parse_state
from .states import _setattr, _Value

if TYPE_CHECKING:  # unitary is imported where the rotation is built
    from .unitary import Unitary2

GHZ_EXPR = "(|000> + |111>)/sqrt(2)"
W_EXPR = "(|001> + |100> + |010>)/sqrt(3)"
PSI_EXPR = "1/2(|100> + |010> + |001> + |111>)"
PHI_EXPR = "1/2(|000> + |011> + |101> + |110>)"
CLUSTER_EXPR = "(|000>+|001>+|100>+|101>+|010>-|011>-|110>+|111>)/sqrt(8)"
#: A concrete instance of a product state, (|0>+2|1>) (x) (3|0>-|1>) (x) (|0>+|1>).
PRODUCT_EXPR = "3|000> + 3|001> - |010> - |011> + 6|100> + 6|101> - 2|110> - 2|111>"


def ghz_state():
    """(|000> + |111>)/sqrt(2): entangled, every collapse separable."""
    return parse_state(GHZ_EXPR)


def w_state():
    """(|001> + |100> + |010>)/sqrt(3): entangled, robust under outcome 0."""
    return parse_state(W_EXPR)


def psi_state():
    """(|100> + |010> + |001> + |111>)/2: locally equivalent to GHZ."""
    return parse_state(PSI_EXPR)


def phi_state():
    """(|000> + |011> + |101> + |110>)/2: every collapse maximally entangled."""
    return parse_state(PHI_EXPR)


def cluster_state():
    return parse_state(CLUSTER_EXPR)


def product_state_example():
    return parse_state(PRODUCT_EXPR)


def ghz_to_psi_unitary() -> Unitary2:
    """The rotation [[1, 1], [-1, 1]]/sqrt(2).

    Applied to all three qubits it carries the GHZ amplitudes exactly onto
    the psi amplitudes, exhibiting two states with equal hyperdeterminant
    but opposite measurement-collapse behaviour.
    """
    from .unitary import Unitary2

    return Unitary2.exact([[1, 1], [-1, 1]], Fraction(1, 2))


class TableRow(_Value):
    _FIELDS = ("name", "expression", "quoted")

    def __init__(self, name: str, expression: str, quoted: tuple):
        _setattr(self, "name", name)
        _setattr(self, "expression", expression)
        _setattr(self, "quoted", quoted)  # the classification pattern usually quoted for the state


TABLE_ROWS = (
    TableRow("separable", PRODUCT_EXPR, (0, 0, 0, 0, 0, 0, 0)),
    TableRow("W", W_EXPR, (0, 1, 1, 1, 0, 0, 0)),
    TableRow("GHZ", GHZ_EXPR, (1, 0, 0, 0, 0, 0, 0)),
    TableRow("cluster", CLUSTER_EXPR, (1, 1, 0, 1, 1, 0, 1)),
    TableRow("psi", PSI_EXPR, (1, 1, 1, 1, 1, 1, 1)),
    TableRow("phi", PHI_EXPR, (1, 1, 1, 1, 1, 1, 1)),
)
