"""Exact full-separability test, factor extraction, and a rank-1 oracle.

A three-qubit pure state factors into three one-qubit states exactly when
its seven-element classification vanishes identically: hyperdeterminant
zero and all six sub-determinants zero.  This module decides that
condition, extracts the factors explicitly when it holds, and provides an
independent brute-force criterion (every 2x2 minor of every axis
flattening of the hypermatrix vanishes, i.e. the hypermatrix has rank 1)
for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotSeparable, ResidualNonzero
from .hyperdet import classify
from .scalars import _OPS, DEFAULT_EPS, GaussianRational, abs2, gauss_det2, gauss_mul
from .states import SLICE_INDEX, TripartiteState


def is_separable(state: TripartiteState, eps: float = DEFAULT_EPS) -> bool:
    """True when the state is a product of three one-qubit factors.

    Exact backend: all seven squared classification entries equal zero.
    Approx backend: all seven (normalized) entries at most eps.
    """
    return classify(state).is_zero(eps)


@dataclass(frozen=True)
class Factorization:
    """One-qubit factors (fx, fy, fz) whose outer product gives the amps.

    Each factor is a pair of scalars; amplitudes satisfy
    a_ijk = fx[i] * fy[j] * fz[k] exactly in the exact backend.  The global
    prefactor of the original state (sqrt of its scale2) is not folded into
    the factors; display layers may attach it to any one factor.
    """

    fx: tuple
    fy: tuple
    fz: tuple

    def amplitudes(self) -> tuple:
        return tuple(
            self.fx[i] * self.fy[j] * self.fz[k]
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )


def extract_factors(state: TripartiteState, eps: float = DEFAULT_EPS) -> Factorization:
    """Split a separable state into its three one-qubit factors.

    Anchors on a nonzero amplitude a* = a(i*, j*, k*) and reads the factors
    off the hypermatrix lines through it:

        fx[i] = a(i, j*, k*),   fy[j] = a(i*, j, k*) / a*,
        fz[k] = a(i*, j*, k) / a*.

    The outer product is then verified against all eight amplitudes; in
    the exact backend on the integer form g, as
    g(i, j*, k*) g(i*, j, k*) g(i*, j*, k) == g(i, j, k) g*^2.
    Raises :class:`NotSeparable` when the state fails the separability
    test and :class:`ResidualNonzero` if verification fails (impossible
    for states that pass the test; kept as an internal-consistency guard).
    """
    if not is_separable(state, eps):
        raise NotSeparable("state is not a product of one-qubit factors")
    if state.backend == "exact":
        return _extract_exact(state)
    triples = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    ai, aj, ak = max(triples, key=lambda t: abs2(state.amp(*t)))
    anchor = state.amp(ai, aj, ak)
    fx = (state.amp(0, aj, ak), state.amp(1, aj, ak))
    fy = (state.amp(ai, 0, ak) / anchor, state.amp(ai, 1, ak) / anchor)
    fz = (state.amp(ai, aj, 0) / anchor, state.amp(ai, aj, 1) / anchor)
    fact = Factorization(fx, fy, fz)
    rebuilt = fact.amplitudes()
    biggest = max(abs(a) for a in state.amps)
    if not all(abs(rebuilt[n] - state.amps[n]) <= 1e-9 * max(1.0, biggest) for n in range(8)):
        raise ResidualNonzero("extracted factors do not reproduce the amplitudes")
    return fact


def _extract_exact(state: TripartiteState) -> Factorization:
    g = state.integer_form[0]
    star = next(n for n in range(8) if g[n] != (0, 0))
    ai, aj, ak = star >> 2, (star >> 1) & 1, star & 1
    anchor2 = gauss_mul(g[star], g[star])
    for n in range(8):
        x = g[4 * (n >> 2) + 2 * aj + ak]
        y = g[4 * ai + (n & 2) + ak]
        z = g[4 * ai + 2 * aj + (n & 1)]
        if gauss_mul(gauss_mul(x, y), z) != gauss_mul(g[n], anchor2):
            raise ResidualNonzero("extracted factors do not reproduce the amplitudes")
    # a(line) / a* = g(line) conj(g*) / |g*|^2; the denominator d cancels.
    sr, si = g[star]
    norm = sr * sr + si * si

    def ratio(n):
        re, im = gauss_mul(g[n], (sr, -si))
        return GaussianRational(Fraction(re, norm), Fraction(im, norm))

    amps = state.amps
    fx = (amps[2 * aj + ak], amps[4 + 2 * aj + ak])
    fy = (ratio(4 * ai + ak), ratio(4 * ai + 2 + ak))
    fz = (ratio(4 * ai + 2 * aj), ratio(4 * ai + 2 * aj + 1))
    return Factorization(fx, fy, fz)


#: Column index pairs of a 2x4 matrix, for minor enumeration.
_COLUMN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def rank1_oracle(state: TripartiteState, eps: float = DEFAULT_EPS) -> bool:
    """Brute-force separability check: all 18 flattening minors vanish.

    Reshapes the hypermatrix into a 2x4 matrix along each of the three
    axes (its rows are the two slices of that axis in ``SLICE_INDEX``) and
    requires every 2x2 minor (6 per flattening) to be zero, i.e. each
    flattening to have rank 1.  Evaluates nothing shared with the
    hyperdeterminant/sub-determinant path, so the two tests cross-check
    each other.  A minor counts as zero when its squared modulus over
    (sum |g_n|^2)^2 is, on the pairs g, where scale2 and d cancel.
    """
    zero = _OPS[state.backend].is_zero
    g, n = state._pairs[0], state._weight
    for axis in range(3):
        top, bottom = SLICE_INDEX[2 * axis], SLICE_INDEX[2 * axis + 1]
        for p, q in _COLUMN_PAIRS:
            re, im = gauss_det2(g[top[p]], g[top[q]], g[bottom[p]], g[bottom[q]])
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
