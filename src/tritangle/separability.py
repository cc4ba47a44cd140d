"""Exact full-separability test, factor extraction, and a rank-1 oracle.

A three-qubit pure state factors into three one-qubit states exactly when
its seven-element classification vanishes identically: hyperdeterminant
zero and all six sub-determinants zero.  This module decides that
condition, extracts the factors explicitly when it holds (one algorithm
on the pairs for both backends, certified by rebuilding the amplitudes),
and provides an independent brute-force criterion (every 2x2 minor of
every axis flattening vanishes, i.e. the hypermatrix has rank 1).
"""

from __future__ import annotations

from .errors import NotSeparable, ResidualNonzero
from .hyperdet import classify
from .scalars import DEFAULT_EPS, gauss_det2, gauss_mul
from .states import SLICE_INDEX, TripartiteState, _setattr, _Value


def is_separable(state: TripartiteState, eps: float = DEFAULT_EPS) -> bool:
    """True when the state is a product of three one-qubit factors.

    Exact backend: all seven squared classification entries equal zero.
    Approx backend: all seven (normalized) entries at most eps.
    """
    return classify(state).is_zero(eps)


class Factorization(_Value):
    """One-qubit factors (fx, fy, fz) whose outer product gives the amps.

    Each factor is a pair of scalars; amplitudes satisfy
    a_ijk = fx[i] * fy[j] * fz[k] exactly in the exact backend.  The global
    prefactor of the original state (sqrt of its scale2) is not folded into
    the factors; display layers may attach it to any one factor.
    """

    _FIELDS = ("fx", "fy", "fz")

    def __init__(self, fx: tuple, fy: tuple, fz: tuple):
        _setattr(self, "fx", fx)
        _setattr(self, "fy", fy)
        _setattr(self, "fz", fz)

    def amplitudes(self) -> tuple:
        return tuple(
            self.fx[i] * self.fy[j] * self.fz[k]
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )


def extract_factors(state: TripartiteState, eps: float = DEFAULT_EPS) -> Factorization:
    """Split a separable state into its three one-qubit factors.

    Anchors on the amplitude a* = a(i*, j*, k*) that the state's ops pick
    (``anchor``: the first nonzero one when exact, the first of largest
    modulus in doubles) and reads the factors off the lines through it:

        fx[i] = a(i, j*, k*),   fy[j] = a(i*, j, k*) / a*,
        fz[k] = a(i*, j*, k) / a*.

    The outer product is then verified on the pairs g, as
    g(i, j*, k*) g(i*, j, k*) g(i*, j*, k) == g(i, j, k) g*^2, at the four
    positions (i, j, k) that differ from the anchor in two or three
    indices.  At the anchor and at the three positions that differ from it
    in one index, two of the three factors on the left are g* and the third
    is g(i, j, k) itself, so the equation holds for any values and is not
    tested.  Sides that differ must pass the ops' zero test on
    |lhs - rhs|^2 / (|g*|^2 |g*|^4) with tolerance 1e-18: exactly zero
    when exact, and for doubles a rebuilt amplitude within 1e-9 * max |a_n|.
    Raises :class:`NotSeparable` when the state fails the separability
    test and :class:`ResidualNonzero` if verification fails: never in the
    exact backend, and for doubles when the state is separable only within
    eps but misses the rebuild tolerance, which scales with the amplitudes
    as the normalized entries do.
    """
    if not is_separable(state, eps):
        raise NotSeparable("state is not a product of one-qubit factors")
    return _factors(state, eps)


#: For each anchor position a*, the rebuild checks that are not identities,
#: as ``(n, x, y, z)``: the four positions n that differ from a* in two or
#: three indices, each with the positions x, y, z on the x, y and z lines
#: through a* that take n's index on that axis.
_REBUILD_CHECKS = tuple(
    tuple(
        (n, (n & 4) | (star & 3), (star & 5) | (n & 2), (star & 6) | (n & 1))
        for n in (star ^ 3, star ^ 5, star ^ 6, star ^ 7)
    )
    for star in range(8)
)


def _factors(state: TripartiteState, eps: float = DEFAULT_EPS) -> Factorization:
    """The checked step of :func:`extract_factors`, past its separability test."""
    ops = state._ops
    g = state._pairs[0]
    star = ops.anchor(g)
    sr, si = g[star]
    norm = sr * sr + si * si
    anchor2 = gauss_mul(g[star], g[star])
    for n, x, y, z in _REBUILD_CHECKS[star]:
        lhs, rhs = gauss_mul(gauss_mul(g[x], g[y]), g[z]), gauss_mul(g[n], anchor2)
        if lhs == rhs:
            continue
        re, im = lhs[0] - rhs[0], lhs[1] - rhs[1]
        if not ops.is_zero(re * re + im * im, 1e-18, norm, norm * norm):
            raise ResidualNonzero(
                f"the state is separable only within eps={eps:g}: "
                "extracted factors do not reproduce the amplitudes"
            )
    # a(line) / a* = g(line) conj(g*) / |g*|^2; the denominator d cancels.
    one = ops.scalar(1, 0, 1)  # a* / a*, the anchor's own entry of fy and of fz

    def ratio(n):
        if n == star:
            return one
        re, im = gauss_mul(g[n], (sr, -si))
        return ops.scalar(re, im, norm)

    amps = state.amps
    fx = (amps[star & 3], amps[4 | (star & 3)])
    fy = (ratio(star & 5), ratio((star & 5) | 2))
    fz = (ratio(star & 6), ratio((star & 6) | 1))
    return Factorization(fx, fy, fz)


#: Column index pairs of a 2x4 matrix, for minor enumeration.
_COLUMN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: The 18 flattening minors as ``(c00, c01, c10, c11)`` amplitude positions:
#: axis by axis, the ``_COLUMN_PAIRS`` minors of the 2x4 flattening whose
#: rows are that axis's two slices in ``SLICE_INDEX``.
_MINORS = tuple(
    (top[p], top[q], bottom[p], bottom[q])
    for top, bottom in zip(SLICE_INDEX[::2], SLICE_INDEX[1::2])
    for p, q in _COLUMN_PAIRS
)


def rank1_oracle(state: TripartiteState, eps: float = DEFAULT_EPS) -> bool:
    """Brute-force separability check: all 18 flattening minors vanish.

    Reshapes the hypermatrix into a 2x4 matrix along each of the three
    axes (its rows are the two slices of that axis in ``SLICE_INDEX``) and
    requires every 2x2 minor (6 per flattening) to be zero, i.e. each
    flattening to have rank 1.  Evaluates nothing shared with the
    hyperdeterminant/sub-determinant path, so the two tests cross-check
    each other: it reads neither the slice determinants nor the |g_n|^2 a
    state keeps for them (``_slice_dets``, ``_abs2``).  A minor counts as
    zero when its squared modulus over (sum |g_n|^2)^2 is, on the pairs g,
    where scale2 and d cancel.
    """
    zero = state._ops.is_zero
    g, n = state._pairs[0], state._weight
    for p, q, r, s in _MINORS:
        re, im = gauss_det2(g[p], g[q], g[r], g[s])
        if not zero(re * re + im * im, eps, n, n):
            return False
    return True


def antipodal_pair_states() -> tuple:
    """The four unit-amplitude states pairing a ket with its bit complement.

    |000>+|111>, |010>+|101>, |110>+|001>, |100>+|011>, each with
    scale2 = 1/2.  Every one has all six sub-determinants zero yet a
    nonvanishing hyperdeterminant, so the six-entry list alone cannot
    certify separability; these are the canonical witnesses.
    """
    pairs = ((0, 7), (2, 5), (6, 1), (4, 3))
    out = []
    for hi, lo in pairs:
        amps = [0] * 8
        amps[hi] = 1
        amps[lo] = 1
        out.append(TripartiteState.exact(amps, scale2="1/2"))
    return tuple(out)
