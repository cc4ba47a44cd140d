"""Hyperdeterminant, sub-concurrences, classification, display scaling."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import (
    Axis,
    ClassificationVector,
    GaussianRational,
    NonFinite,
    TripartiteState,
    apply_local_3,
    cayley_det,
    cayley_det_schlafli,
    classify,
    display_normalize,
    is_separable,
    parse_state,
    random_rational_unitary2,
    state_to_ket,
    sub_concurrences2,
    submatrix,
)
from tritangle.catalog import ghz_state, ghz_to_psi_unitary, psi_state, w_state
from tritangle.randstates import random_generic_state
from tritangle.scalars import abs2

from _util import reference_display, wide_scalars


def test_submatrix_w_x0():
    sub = submatrix(w_state(), Axis.X, 0)
    assert sub.amps == tuple(map(GaussianRational, (0, 1, 1, 0)))
    assert sub.scale2 == Fraction(1, 3)


def test_submatrix_ghz_z0():
    sub = submatrix(ghz_state(), Axis.Z, 0)
    assert sub.amps == tuple(map(GaussianRational, (1, 0, 0, 0)))


def test_submatrix_psi_x1():
    sub = submatrix(psi_state(), Axis.X, 1)
    assert sub.amps == tuple(
        GaussianRational(v) for v in (Fraction(1, 2), 0, 0, Fraction(1, 2))
    )
    assert sub.scale2 == psi_state().scale2


def test_cayley_det_ghz():
    ghz = ghz_state()
    assert cayley_det(ghz) == GaussianRational(1)
    # degree 4: the physical value carries scale2^2
    assert ghz.scale2 ** 2 * cayley_det(ghz).re == Fraction(1, 4)


def test_cayley_det_w_vanishes():
    assert cayley_det(w_state()) == GaussianRational(0)


def test_cayley_det_psi():
    vec = classify(psi_state())
    assert vec.det_abs2 == Fraction(1, 16)  # |Det| = 1/4 on the normalized state


def test_schlafli_hand_values():
    # z-pencil of GHZ: alpha = 0, gamma = 0, beta = 1  ->  discriminant 1
    assert cayley_det_schlafli(ghz_state()) == GaussianRational(1)
    # every pencil coefficient of W vanishes
    assert cayley_det_schlafli(w_state()) == GaussianRational(0)


def test_schlafli_matches_on_random_integer_hypermatrices():
    rng = random.Random(99)
    for _ in range(2000):
        amps = tuple(GaussianRational(rng.randint(-9, 9)) for _ in range(8))
        if not any(map(bool, amps)):
            continue
        s = TripartiteState(amps, Fraction(1))
        assert cayley_det(s) == cayley_det_schlafli(s)


def test_sub_concurrences_w():
    ninth = Fraction(1, 9)  # squared value of C = 1/3
    assert sub_concurrences2(w_state()) == (ninth, 0, ninth, 0, ninth, 0)


def test_sub_concurrences_ghz_all_zero():
    assert sub_concurrences2(ghz_state()) == (0,) * 6


def test_sub_concurrences_psi_all_equal():
    sixteenth = Fraction(1, 16)  # squared value of C = 1/4
    assert sub_concurrences2(psi_state()) == (sixteenth,) * 6


def test_classify_product_state_all_zero():
    x, y, z = (1, 2), (3, -1), (1, 1)
    amps = tuple(
        GaussianRational(x[i] * y[j] * z[k])
        for i in range(2)
        for j in range(2)
        for k in range(2)
    )
    vec = classify(TripartiteState(amps, Fraction(1)))
    assert vec.det_abs2 == 0
    assert vec.sub2 == (0,) * 6


def test_classify_phi_state():
    phi = TripartiteState.exact(
        (1, 0, 0, 1, 0, 1, 1, 0), scale2=Fraction(1, 4)
    )
    vec = classify(phi)
    assert vec.det_abs2 == Fraction(1, 16)
    assert vec.sub2 == (Fraction(1, 16),) * 6
    assert display_normalize(vec) == (1.0,) * 7


def test_classify_ghz_normalized_values():
    vec = classify(ghz_state())
    assert vec.det_abs2 == Fraction(1, 16)
    assert vec.sub2 == (0,) * 6
    assert vec.computed_on_normalized
    # In doubles |Det|^2 = 1/16 exactly: an entry equal to eps counts as zero.
    ghz_f = ghz_state().to_approx()
    vec_f = classify(ghz_f)
    assert vec_f.det_abs2 == 1 / 16
    assert vec_f.is_zero(1 / 16) and not vec_f.is_zero(math.nextafter(1 / 16, 0))
    # The vector kept by classify serves every eps: the decisions match a
    # fresh copy's on both sides of the boundary.
    for eps in (0.0, math.nextafter(1 / 16, 0), 1 / 16, math.nextafter(1 / 16, 1), 1.0):
        fresh = TripartiteState(ghz_f.amps, ghz_f.scale2)
        assert is_separable(ghz_f, eps) == is_separable(fresh, eps) == (eps >= 1 / 16)


def test_display_normalize_rows():
    assert display_normalize(classify(ghz_state())) == (1.0, 0, 0, 0, 0, 0, 0)
    assert display_normalize(classify(w_state())) == (0, 1.0, 0, 1.0, 0, 1.0, 0)
    ghz_f = classify(ghz_state().to_approx())  # |Det|^2 = 1/16 exactly
    assert display_normalize(ghz_f, 1 / 16) == (0.0,) * 7
    assert display_normalize(ghz_f, math.nextafter(1 / 16, 0)) == (1.0, 0, 0, 0, 0, 0, 0)


def test_display_normalize_all_zero_vector():
    basis = TripartiteState.exact((1, 0, 0, 0, 0, 0, 0, 0))
    assert display_normalize(classify(basis)) == (0.0,) * 7


def test_display_normalize_reads_int_entries_of_a_public_vector():
    # The public constructor keeps int entries; the exact roots read them as Fractions.
    vec = ClassificationVector(Fraction(0), (0, 1, 0, 0, 0, 2))
    assert display_normalize(vec) == (0.0, 0.0, 0.7071067811865476, 0.0, 0.0, 0.0, 1.0)
    assert not vec.is_zero() and ClassificationVector(Fraction(0), (0,) * 6).is_zero()


def test_homogeneity_of_det_and_subs():
    rng = random.Random(23)
    for _ in range(200):
        s = random_generic_state(rng)
        k = GaussianRational(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2))
        scaled = s.scale(k)
        k2 = k.abs2()
        assert abs2(cayley_det(scaled)) == k2 ** 4 * abs2(cayley_det(s))
        assert sub_concurrences2(scaled) == tuple(k2 ** 2 * v for v in sub_concurrences2(s))
        # the normalized classification ignores scaling entirely
        assert classify(scaled) == classify(s)


def _permuted(state, perm):
    amps = [None] * 8
    for i in range(2):
        for j in range(2):
            for k in range(2):
                src = (i, j, k)
                dst = tuple(src[p] for p in perm)
                amps[4 * dst[0] + 2 * dst[1] + dst[2]] = state.amp(i, j, k)
    return TripartiteState(tuple(amps), state.scale2)


def test_det_symmetric_under_qubit_exchange():
    rng = random.Random(31)
    for _ in range(300):
        s = random_generic_state(rng)
        base = cayley_det(s)
        for perm in itertools.permutations(range(3)):
            assert cayley_det(_permuted(s, perm)) == base


def test_sub_concurrences_not_locally_invariant():
    # GHZ has all six sub-concurrences zero, but its image under the
    # catalog rotation on every qubit has all six equal to 1/4: equal
    # hyperdeterminant, different collapse behaviour.
    u = ghz_to_psi_unitary()
    rotated = apply_local_3(ghz_state(), u, u, u)
    vec_before = classify(ghz_state())
    vec_after = classify(rotated)
    assert vec_before.det_abs2 == vec_after.det_abs2 == Fraction(1, 16)
    assert vec_before.sub2 == (0,) * 6
    assert vec_after.sub2 == (Fraction(1, 16),) * 6


exact_states = st.builds(
    TripartiteState,
    st.tuples(*[wide_scalars] * 8).filter(any),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
)


@given(exact_states, st.permutations(range(3)))
def test_qubit_permutation_permutes_sub_entries_exactly(state, perm):
    """Qubit q of the permuted state is qubit perm[q] of the original.

    With a_ijk = amps[4i + 2j + k], |Det|^2 is unchanged and the sub entry
    (axis q, outcome o) of the permuted state is the entry (perm[q], o) of
    the original, in the order x0 x1 y0 y1 z0 z1.
    """
    amps = [None] * 8
    for bits in itertools.product((0, 1), repeat=3):
        old = [0, 0, 0]
        for q in range(3):
            old[perm[q]] = bits[q]
        amps[4 * bits[0] + 2 * bits[1] + bits[2]] = state.amps[4 * old[0] + 2 * old[1] + old[2]]
    permuted = TripartiteState(tuple(amps), state.scale2)
    for normalized in (True, False):
        before, after = classify(state, normalized), classify(permuted, normalized)
        assert after.det_abs2 == before.det_abs2
        assert after.sub2 == tuple(before.sub2[2 * perm[q] + o] for q in range(3) for o in (0, 1))


# -- the normalized vector kept on the state ----------------------------------


def _copy(state):
    """The same amplitudes in a new instance, which has kept nothing."""
    return TripartiteState(state.amps, state.scale2)


def _check_kept(state):
    """classify keeps its normalized vector; the unnormalized one is never kept."""
    before = classify(state, normalized=False)
    vec = classify(state)
    after = classify(state, normalized=False)
    assert classify(state) is vec and vec.computed_on_normalized
    assert vec == classify(_copy(state))
    unkept = classify(_copy(state), normalized=False)
    assert before == after == unkept and not after.computed_on_normalized
    assert sub_concurrences2(state) == unkept.sub2


@settings(deadline=None)
@given(exact_states)
def test_classify_keeps_the_normalized_vector(state):
    for s in (state, state.to_approx()):
        _check_kept(s)
        _check_kept(_copy(s))  # normalized first, unnormalized after


@settings(deadline=None)
@given(exact_states, st.randoms(use_true_random=False))
def test_states_built_from_pairs_classify_like_rebuilt_copies(state, rng):
    units = [random_rational_unitary2(rng) for _ in range(3)]
    for built in (parse_state(state_to_ket(state)), apply_local_3(state, *units)):
        assert classify(built) == classify(_copy(built))
        _check_kept(built)


@settings(deadline=None)
@given(exact_states)
def test_double_decision_after_classify_matches_a_fresh_copy(state):
    s = state.to_approx()
    vec = classify(s)
    for v in vec.values2():
        for eps in (math.nextafter(v, 0), v, math.nextafter(v, math.inf)):
            assert is_separable(s, eps) == is_separable(_copy(s), eps)
    assert classify(s) is vec


def test_classify_keeps_nothing_when_it_raises():
    s = TripartiteState.approx((1e100,) + (0,) * 6 + (1e100,))
    for _ in range(2):
        with pytest.raises(NonFinite):
            classify(s)
        with pytest.raises(NonFinite):
            is_separable(s)


# -- display roots taken on the ints -------------------------------------------


def _beyond_double_range(vec) -> bool:
    """Some nonzero ratio entry / divisor has a root that no double holds."""
    div2 = vec.det_abs2 or max(vec.sub2)
    return any(v and not 2 ** -2148 <= v / div2 < 2 ** 2047 for v in vec.values2())


_TINY = Fraction(1, 10**200)


@settings(deadline=None)
@given(exact_states)
@example(TripartiteState.exact((0, 1, 1, 0, 1, 0, 0, _TINY)))  # squared ratio overflows
@example(TripartiteState.exact((1, 0, 0, _TINY, 0, 0, 0, 1)))  # squared ratio underflows
def test_display_is_zero_only_for_zero_entries_and_matches_the_float_formula(state):
    vec = classify(state)
    try:
        display = display_normalize(vec)
    except NonFinite:
        assert _beyond_double_range(vec)
        return
    try:
        ref = reference_display(vec.values2())
    except OverflowError:
        ref = None
    for n, v in enumerate(vec.values2()):
        assert (display[n] == 0.0) == (v == 0)
        # Below 2^-511 the reference's quotient has left the normal double
        # range, and it reads 0.0 where it underflows.
        if ref is not None and ref[n] >= 2.0 ** -511:
            assert display[n] == ref[n]


def test_display_of_entries_beyond_the_double_quotient():
    big = 1 / _TINY
    # |Det| = 4/big next to the x0 sub-determinant 1: the squared ratio
    # overflows a double, its root (3 big^2 + 1) / (4 big) does not.
    s = TripartiteState.exact((0, 1, 1, 0, 1, 0, 0, _TINY))
    assert display_normalize(classify(s))[1] == pytest.approx(float((3 * big * big + 1) / (4 * big)))
    # x0 = 1/big next to |Det| = 1: the squared ratio underflows to 0.0.
    s = TripartiteState.exact((1, 0, 0, _TINY, 0, 0, 0, 1))
    assert display_normalize(classify(s)) == (1.0, pytest.approx(2e-200), 0, 0, 0, 0, 0)
    for tiny in (_TINY ** 4, big ** 4):
        with pytest.raises(NonFinite):
            display_normalize(classify(TripartiteState.exact((1, 0, 0, tiny, 0, 0, 0, 1))))
