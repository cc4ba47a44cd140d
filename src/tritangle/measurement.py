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
from dataclasses import dataclass
from fractions import Fraction

from .bipartite import gauss_concurrence2
from .errors import ImpossibleOutcome
from .scalars import _OPS, DEFAULT_EPS
from .states import SLICE_INDEX, Axis, BipartiteState, TripartiteState, _check_outcome


@dataclass(frozen=True)
class CollapseResult:
    """Outcome probability, residual two-qubit state, and its entanglement.

    ``concurrence2`` is the squared concurrence of the normalized residual
    (rational in the exact backend); ``concurrence()`` gives the float.
    """

    prob: Fraction | float
    post_state: BipartiteState
    concurrence2: Fraction | float

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
    index = SLICE_INDEX[2 * axis.value + outcome]
    ops = _OPS[state.backend]
    # scale2 / d^2 cancels from the probability and the concurrence on the
    # pairs; the slice's weight is the residual's sum |g_n|^2.
    g = state._pairs[0]
    pair = tuple(g[n] for n in index)
    weight = sum(re * re + im * im for re, im in pair)
    prob = ops.div(weight, state._weight, "outcome probability")
    if ops.is_zero(prob, eps):
        raise ImpossibleOutcome(
            f"outcome {outcome} on qubit {axis.qubit} has probability 0"
        )
    post = BipartiteState._from_pairs(ops, pair, state._pairs[1], state.scale2)
    return CollapseResult(prob, post, gauss_concurrence2(pair, weight, ops.div))
