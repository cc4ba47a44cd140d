"""Two-qubit entanglement: coefficient determinant and concurrence.

A two-qubit pure state with coefficient matrix c is a product state exactly
when det c = 0, and the concurrence of the normalized state,
C = 2 |det c|, measures its entanglement on a 0..1 scale.

Exact-backend callers should use :func:`concurrence2`, which returns the
*squared* concurrence as a rational (the concurrence itself may be
irrational).  :func:`concurrence` returns a float for display in either
backend.
"""

from __future__ import annotations

import math

from .scalars import DEFAULT_EPS, gauss_det2
from .states import BipartiteState


def det2(state: BipartiteState):
    """Determinant c00*c11 - c01*c10 of the raw amplitudes.

    The global prefactor is not applied; since the determinant has degree
    2, the determinant of the physical (scaled) matrix is scale2 times
    this value.  It is evaluated on the pairs g and divided by d^2.
    """
    g, d = state._pairs
    re, im = gauss_det2(*g)
    return state._ops.scalar(re, im, d * d)


def gauss_concurrence2(det: tuple, total, div):
    """Squared concurrence 4 |det|^2 / total^2 of a pair given as (re, im) pairs.

    ``det`` is ``gauss_det2`` of the four amplitudes c00, c01, c10, c11 as
    ``(re, im)`` pairs over any common denominator, ``total`` is their
    sum |g_n|^2 and ``div`` is the backend's division.
    """
    re, im = det
    return div(4 * (re * re + im * im), total * total, "concurrence^2")


def concurrence2(state: BipartiteState):
    """Squared concurrence of the normalized state.

    4 * scale2^2 * |det|^2 / norm2^2, without square roots: a nonnegative
    Fraction in the exact backend, a float in the approx backend.  On the
    pairs (g, d) scale2 and d cancel, leaving 4 |det g|^2 / (sum |g_n|^2)^2.
    """
    det = gauss_det2(*state._pairs[0])
    return gauss_concurrence2(det, state._weight, state._ops.div)


def concurrence(state: BipartiteState) -> float:
    """Concurrence of the normalized state, as a float (both backends)."""
    return math.sqrt(float(concurrence2(state)))


def is_separable_bipartite(state: BipartiteState, eps: float = DEFAULT_EPS) -> bool:
    """True when the state is a product of one-qubit factors.

    Exact backend: det is compared with zero exactly.  Approx backend: the
    normalized squared determinant |det|^2 / norm2^2 = C^2 / 4 must not
    exceed eps.
    """
    return state._ops.is_zero(concurrence2(state), 4 * eps)
