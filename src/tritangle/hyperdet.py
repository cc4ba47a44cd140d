"""Three-qubit classification: hyperdeterminant and sub-concurrences.

A three-qubit pure state is summarized by an ordered list of seven
nonnegative numbers,

    [ |Det A| ; C_x0, C_x1, C_y0, C_y1, C_z0, C_z1 ]

where A = (a_ijk) is the 2x2x2 amplitude hypermatrix, Det is its degree-4
hyperdeterminant, and C_(axis,outcome) is the modulus of the determinant of
the 2x2 submatrix obtained by freezing that axis to that outcome.  The list
vanishes identically exactly when the state is a product of three one-qubit
factors; Det alone separates the GHZ-like class (Det != 0) from everything
else, and the six sub-entries record which single-qubit measurement
outcomes leave the remaining pair entangled.

:func:`classify` gives the list of the normalized state, as squared moduli
(|Det|^2, C^2) so that every exact entry is a rational and zero tests are
exact; roots are taken only in the display layer.  :func:`sub_concurrences2`
gives the six sub-entries of the state as given.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import DEFAULT_EPS, _DoubleOps, _ExactOps
from .states import (
    _SLICES,
    Axis,
    BipartiteState,
    TripartiteState,
    _qubit_count_error,
    _setattr,
    _slot,
    _Value,
)


def submatrix(state: TripartiteState, axis: Axis, outcome: int) -> BipartiteState:
    """2x2 slice of the hypermatrix with ``axis`` frozen to ``outcome``.

    The first remaining index becomes the row, the second the column; the
    global scale2 is carried over unchanged.  The slice of the state's
    pairs, its d and scale2 passed the construction checks with the state,
    so only the residual's own check runs: it raises ValueError when every
    entry of the slice is zero (the zero vector is not a valid state);
    :func:`tritangle.measurement.collapse` reports that case as an
    impossible measurement outcome.  A state that is not a three-qubit one
    raises ValueError.
    """
    slot = _slot(axis, outcome)
    g, d = state._pairs
    if len(g) != 8:
        raise _qubit_count_error(3, state)
    return BipartiteState._from_checked_pairs(state._ops, _SLICES[slot](g), d, state.scale2)


# -- one kernel on (re, im) pairs for both backends ---------------------------
#
# Every quantity below is a homogeneous polynomial in the amplitudes, so it is
# evaluated on the pairs g over d of ``state._pairs``, and d is put back, or
# cancels, only in the final division by the state's ops (``state._ops``).


def _entries_g(g, dets):
    """Det_g on the pairs g as a ``(re, im)`` pair: the hyperdeterminant, as the
    x-pencil discriminant of :func:`cayley_det`, whose end coefficients are the
    first two of the six slice determinants ``dets`` (a state's kept
    ``_slice_dets``), so that a state computes each of them once."""
    (r0, i0), (r1, i1), (r2, i2), (r3, i3), (r4, i4), (r5, i5), (r6, i6), (r7, i7) = g
    # beta = a000 a111 + a011 a100 - a001 a110 - a010 a101
    br = (r0 * r7 - i0 * i7) + (r3 * r4 - i3 * i4) - (r1 * r6 - i1 * i6) - (r2 * r5 - i2 * i5)
    bi = (r0 * i7 + i0 * r7) + (r3 * i4 + i3 * r4) - (r1 * i6 + i1 * r6) - (r2 * i5 + i2 * r5)
    (xr, xi), (yr, yi) = dets[0], dets[1]
    return br * br - bi * bi - 4 * (xr * yr - xi * yi), 2 * br * bi - 4 * (xr * yi + xi * yr)


def cayley_det(state: TripartiteState):
    """Degree-4 hyperdeterminant of the raw amplitude hypermatrix.

    Cayley's hyperdeterminant, normalized so that amplitudes a000 = a111 = 1
    give +1, is the discriminant of the x-pencil det(s A_x0 + t A_x1) =
    det(x0) s^2 + beta s t + det(x1) t^2, whose end coefficients are slices:

        beta^2 - 4 det(x0) det(x1),  beta = a000 a111 + a011 a100 - a001 a110 - a010 a101.

    The value is for the raw amplitudes; the hyperdeterminant of the physical
    state is scale2^2 times this (degree 4), and callers normalize by
    norm2^2.  It is evaluated on the pairs g and divided by d^4.
    """
    g, d = state._pairs
    re, im = _entries_g(g, state._slice_dets)
    return state._ops.scalar(re, im, d ** 4)


def cayley_det_schlafli(state: TripartiteState):
    """Independent evaluation of the hyperdeterminant via the z-pencil.

    Writes q(z0, z1) = det(z0 * A_z0 + z1 * A_z1) = alpha z0^2 +
    beta z0 z1 + gamma z1^2 and returns the discriminant
    beta^2 - 4 alpha gamma, which equals :func:`cayley_det` identically
    (same sign convention: amplitudes a000 = a111 = 1 give +1).  It works
    on the amplitudes themselves in both backends, so it shares no
    arithmetic with the integer kernel.
    """
    if state.N_VALUES != 8:
        raise _qubit_count_error(3, state)
    a000, a001, a010, a011, a100, a101, a110, a111 = state.amps
    alpha = a000 * a110 - a010 * a100
    gamma = a001 * a111 - a011 * a101
    beta = a000 * a111 + a001 * a110 - a010 * a101 - a011 * a100
    return state._ops.finite(beta * beta - 4 * alpha * gamma, "hyperdeterminant")


def sub_concurrences2(state: TripartiteState) -> tuple:
    """Squared sub-determinant moduli |det A_(axis,outcome)|^2 * scale2^2.

    Ordered x0, x1, y0, y1, z0, z1; not normalized (that is :func:`classify`).
    On the kept slice determinants of the pairs g over d, with scale2 = s / q,
    each is |det_g|^2 s^2 / (q d^2)^2; an exact entry is divided on ints.
    """
    ops = state._ops
    (s, q), d = ops.ratio(state.scale2), state._pairs[1]
    num, den = s * s, (q * d * d) ** 2
    return tuple([ops.div((r * r + i * i) * num, den, "classification entry") for r, i in state._slice_dets])


class ClassificationVector(_Value):
    """The seven-element classification of the normalized state, stored as
    squared moduli.

    ``det_abs2`` is |Det|^2 and ``sub2`` the six squared sub-concurrences
    (order x0, x1, y0, y1, z0, z1).  Rational in the exact backend, floats
    in the approx backend; ``_ops`` is their backend's ops: exact unless
    some entry is a float.
    """

    _FIELDS = ("det_abs2", "sub2")

    def __init__(self, det_abs2: Fraction | float, sub2: tuple):
        sub2 = tuple(sub2)  # the same object for a tuple
        _setattr(self, "det_abs2", det_abs2)
        _setattr(self, "sub2", sub2)
        doubles = any(isinstance(v, float) for v in (det_abs2, *sub2))
        _setattr(self, "_ops", _DoubleOps if doubles else _ExactOps)

    def values2(self) -> tuple:
        """All seven squared entries, hyperdeterminant first."""
        return (self.det_abs2,) + self.sub2

    @property
    def backend(self) -> str:
        return self._ops.backend

    def is_zero(self, eps: float = DEFAULT_EPS) -> bool:
        """True when every entry vanishes (exactly, or at most eps)."""
        return self._ops.all_zero(self.values2(), eps)


def classify(state: TripartiteState) -> ClassificationVector:
    """Evaluate the seven-element classification of the normalized state.

    The quantities refer to the unit-norm state: the degree-4
    hyperdeterminant is divided by norm2^2 and each degree-2
    sub-determinant by norm2, i.e. the squared entries by norm2^4 and
    norm2^2 respectively.

    The state is classified on its pairs g.  There scale2 and the
    denominator cancel from the normalized entries, which are
    |Det_g|^2 / N^4 and |sub_g|^2 / N^2 with N = sum |g|^2.

    The vector is kept on the state instance once it is built, and later
    calls return it; it is frozen and does not depend on ``eps``.
    """
    kept = state.__dict__.get("_classification")
    if kept is not None:
        return kept
    div = state._ops.div
    dets = state._slice_dets
    re, im = _entries_g(state._pairs[0], dets)
    n2 = state._weight * state._weight
    vec = object.__new__(ClassificationVector)  # the constructor's fields, and the state's ops
    vec.__dict__.update(
        det_abs2=div(re * re + im * im, n2 * n2, "classification entry"),
        sub2=tuple([div(r * r + i * i, n2, "classification entry") for r, i in dets]),
        _ops=state._ops)
    state.__dict__["_classification"] = vec
    return vec


def display_normalize(vec: ClassificationVector, eps: float = DEFAULT_EPS) -> tuple:
    """Unsquared, rescaled presentation of a classification vector.

    Divides every entry by |Det| when that is nonzero (so the leading
    entry reads 1), otherwise by the largest sub-concurrence (so the
    largest surviving entry reads 1), otherwise returns all zeros.  The
    result is a 7-tuple of floats; the leading entry is always 0 or 1.
    Each root is taken by the vector's ``_ops.sqrt_ratio``: a nonzero
    exact entry never reads 0.0, and one whose root lies beyond the double
    range raises :class:`NonFinite`.
    """
    ops = vec._ops
    zero = ops.is_zero
    if not zero(vec.det_abs2, eps):
        div2 = vec.det_abs2
    elif not ops.all_zero(vec.sub2, eps):
        div2 = max(vec.sub2)
    else:
        return (0.0,) * 7
    return tuple([0.0 if zero(v, eps) else ops.sqrt_ratio(v, div2) for v in vec.values2()])
