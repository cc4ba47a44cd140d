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
from fractions import Fraction

from .scalars import DEFAULT_EPS, abs2, gauss_det2, require_finite
from .states import BipartiteState


def det2(state: BipartiteState):
    """Determinant c00*c11 - c01*c10 of the raw amplitudes.

    The global prefactor is not applied; since the determinant has degree
    2, the determinant of the physical (scaled) matrix is scale2 times
    this value.
    """
    c00, c01, c10, c11 = state.amps
    return c00 * c11 - c01 * c10


def gauss_concurrence2(g: tuple, total: int) -> Fraction:
    """Squared concurrence 4 |det g|^2 / total^2 of a pair of Gaussian integers.

    ``g`` holds the four amplitudes c00, c01, c10, c11 as ``(re, im)`` int
    pairs over any common denominator, and ``total`` is sum |g_n|^2 (nonzero).
    """
    re, im = gauss_det2(*g)
    return Fraction(4 * (re * re + im * im), total * total)


def concurrence2(state: BipartiteState):
    """Squared concurrence of the normalized state.

    Exact backend: a nonnegative Fraction, computed without square roots as
    4 * scale2^2 * |det|^2 / norm2^2.  On the integer form (g, d) scale2 and
    d cancel, leaving 4 |det g|^2 / (sum |g_n|^2)^2.  Approx backend: a float.
    """
    if state.backend == "exact":
        g = state.integer_form[0]
        return gauss_concurrence2(g, sum(re * re + im * im for re, im in g))
    n2 = state.norm2()
    c2 = 4 * state.scale2 * state.scale2 * abs2(det2(state)) / (n2 * n2)
    return require_finite(c2, "concurrence^2")


def concurrence(state: BipartiteState) -> float:
    """Concurrence of the normalized state, as a float (both backends)."""
    return math.sqrt(float(concurrence2(state)))


def is_separable_bipartite(state: BipartiteState, eps: float = DEFAULT_EPS) -> bool:
    """True when the state is a product of one-qubit factors.

    Exact backend: det is compared with zero exactly.  Approx backend: the
    normalized squared determinant must not exceed eps.
    """
    if state.backend == "exact":
        return gauss_det2(*state.integer_form[0]) == (0, 0)
    d = det2(state)
    n2 = state.norm2()
    return require_finite(abs2(d) * state.scale2 * state.scale2 / (n2 * n2), "|det|^2") <= eps
