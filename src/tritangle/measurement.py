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
from .scalars import _OPS, DEFAULT_EPS
from .states import _SLICES, Axis, BipartiteState, TripartiteState, _check_outcome, _setattr, _Value


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
    probability (exactly, or at most eps in the approx backend): the
    residual would be the zero vector.
    """
    _check_outcome(outcome)
    ops = _OPS[state.backend]
    # scale2 / d^2 cancels from the probability and the concurrence on the
    # pairs; the slice's weight is the residual's sum |g_n|^2, added left to
    # right as ``sum`` adds it, so a double probability keeps every bit.
    pair = _SLICES[2 * axis.value + outcome](state._pairs[0])
    (r0, i0), (r1, i1), (r2, i2), (r3, i3) = pair
    weight = (r0 * r0 + i0 * i0) + (r1 * r1 + i1 * i1) + (r2 * r2 + i2 * i2) + (r3 * r3 + i3 * i3)
    prob = ops.div(weight, state._weight, "outcome probability")
    if ops.is_zero(prob, eps):
        raise ImpossibleOutcome(
            f"outcome {outcome} on qubit {axis.qubit} has probability 0"
        )
    post = BipartiteState._from_pairs(ops, pair, state._pairs[1], state.scale2)
    return CollapseResult(prob, post, gauss_concurrence2(pair, weight, ops.div))
