"""Projective measurement of one qubit in the computational basis.

Measuring qubit ``axis`` of a three-qubit state and reading ``outcome``
collapses the remaining pair onto the corresponding 2x2 slice of the
amplitude hypermatrix.  The outcome probability is the squared-norm
fraction carried by that slice, and the residual pair's concurrence equals
the matching sub-concurrence of the original state.

Measurement in an arbitrary product basis is expressed by applying local
unitaries first and collapsing afterwards.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bipartite import gauss_concurrence2
from .errors import ImpossibleOutcome
from .scalars import DEFAULT_EPS
from .states import _SLICES, Axis, BipartiteState, TripartiteState, _setattr, _slot, _Value


class CollapseResult(_Value):
    """Outcome probability, residual two-qubit state, and its entanglement.

    ``concurrence2`` is the squared concurrence of the normalized residual
    (rational in the exact backend); ``concurrence()`` gives the float.
    """

    _FIELDS = ("prob", "post_state", "concurrence2")

    def __init__(
        self, prob: Fraction | float, post_state: BipartiteState, concurrence2: Fraction | float
    ):
        _setattr(self, "prob", prob)
        _setattr(self, "post_state", post_state)
        _setattr(self, "concurrence2", concurrence2)

    def concurrence(self) -> float:
        return math.sqrt(float(self.concurrence2))


def collapse(
    state: TripartiteState, axis: Axis, outcome: int, eps: float = DEFAULT_EPS
) -> CollapseResult:
    """Measure one qubit and keep the stated outcome.

    Raises :class:`ImpossibleOutcome` when the outcome carries zero
    probability (exactly, or at most eps in the approx backend, where a
    nonzero probability is named with eps): the residual would be the zero
    vector.  The residual stores the slice of the state's pairs with its d
    and scale2, which passed the construction checks with the state; only
    the residual's nonzero check runs, so a double zero slice that a
    negative eps lets through raises ValueError.
    """
    slot = _slot(axis, outcome)
    ops = state._ops
    # scale2 / d^2 cancels from the probability and the concurrence on the
    # pairs.  The slice's weight, the residual's sum |g_n|^2, adds the state's
    # kept |g_n|^2 left to right in slice order, and its determinant is the
    # state's kept one: C^2 = 4 |det|^2 / weight^2.
    take = _SLICES[slot]
    w0, w1, w2, w3 = take(state._abs2)
    weight = w0 + w1 + w2 + w3
    prob = ops.div(weight, state._weight, "outcome probability")
    if ops.is_zero(prob, eps):
        shown = f"{prob!r}, at most eps = {eps!r}" if prob else "0"
        raise ImpossibleOutcome(f"outcome {outcome} on qubit {axis.qubit} has probability {shown}")
    g, d = state._pairs
    post = BipartiteState._from_checked_pairs(ops, take(g), d, state.scale2)
    c2 = gauss_concurrence2(state._slice_dets[slot], weight, ops.div)
    result = object.__new__(CollapseResult)  # its fields in one write, past __setattr__
    result.__dict__.update(prob=prob, post_state=post, concurrence2=c2)
    return result
