"""Single-qubit collapse: probabilities, residual entanglement, errors."""

import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import (
    Axis,
    AXIS_OUTCOME_ORDER,
    BipartiteState,
    GaussianRational,
    ImpossibleOutcome,
    TripartiteState,
    classify,
    collapse,
    parse_state,
    state_to_ket,
    sub_concurrences2,
    submatrix,
)
from tritangle.catalog import ghz_state, psi_state, w_state
from tritangle.randstates import random_approx_tripartite, random_sparse_state
from tritangle.scalars import _OPS
from tritangle.states import _SLICES

from _util import exact_states, reference_collapse


def test_ghz_collapse_is_separable():
    r = collapse(ghz_state(), Axis.X, 0)
    assert r.prob == Fraction(1, 2)
    assert r.post_state.amps == tuple(map(GaussianRational, (1, 0, 0, 0)))
    assert r.concurrence2 == 0


def test_w_collapse_outcome0_maximally_entangled():
    r = collapse(w_state(), Axis.X, 0)
    assert r.prob == Fraction(2, 3)
    assert r.post_state.amps == tuple(map(GaussianRational, (0, 1, 1, 0)))
    assert r.concurrence2 == 1
    assert r.concurrence() == 1.0


def test_w_collapse_outcome1_separable():
    r = collapse(w_state(), Axis.X, 1)
    assert r.prob == Fraction(1, 3)
    assert r.concurrence2 == 0


def test_psi_collapse_x1():
    r = collapse(psi_state(), Axis.X, 1)
    assert r.prob == Fraction(1, 2)
    # residual proportional to |00> + |11>
    assert r.post_state.amps == tuple(
        GaussianRational(v) for v in (Fraction(1, 2), 0, 0, Fraction(1, 2))
    )
    assert r.concurrence2 == 1


def test_w_contrast_on_every_qubit():
    w = w_state()
    for axis in Axis:
        assert collapse(w, axis, 0).prob == Fraction(2, 3)
        assert collapse(w, axis, 0).concurrence2 == 1
        assert collapse(w, axis, 1).prob == Fraction(1, 3)
        assert collapse(w, axis, 1).concurrence2 == 0


def test_ghz_psi_contrast_all_six():
    for axis, outcome in AXIS_OUTCOME_ORDER:
        assert collapse(ghz_state(), axis, outcome).concurrence2 == 0
        assert collapse(psi_state(), axis, outcome).concurrence2 == 1


def test_probability_completeness():
    rng = random.Random(9)
    for _ in range(100):
        s = random_sparse_state(rng)
        for axis in Axis:
            total = Fraction(0)
            for outcome in (0, 1):
                try:
                    total += collapse(s, axis, outcome).prob
                except ImpossibleOutcome:
                    pass  # zero-probability branch contributes nothing
            assert total == 1


def test_prob_equals_norm_fraction():
    s = TripartiteState.exact((3, 0, 0, 0, 0, 0, 0, 4))
    r = collapse(s, Axis.X, 1)
    assert r.prob == Fraction(16, 25)
    assert r.prob == r.post_state.norm2() / s.norm2()


def test_collapse_pattern_matches_classification():
    rng = random.Random(29)
    for _ in range(100):
        s = random_sparse_state(rng)
        sub2 = sub_concurrences2(s)
        for slot, (axis, outcome) in enumerate(AXIS_OUTCOME_ORDER):
            try:
                post_c2 = collapse(s, axis, outcome).concurrence2
                separable_after = post_c2 == 0
            except ImpossibleOutcome:
                separable_after = True  # no residual pair at all
            assert separable_after == (sub2[slot] == 0)


def test_impossible_outcome():
    basis = TripartiteState.exact((1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ImpossibleOutcome):
        collapse(basis, Axis.X, 1)
    with pytest.raises(ValueError):
        collapse(basis, Axis.X, 2)


@pytest.mark.parametrize("outcome", [2, -1, 0.5, None, "0", 1.0, 0.0, Fraction(1), np.float64(0)])
def test_outcome_must_be_the_integer_0_or_1(outcome):
    """1.0 == 1, but a float outcome is refused as the other values are, not
    let through to fail as a tuple index."""
    message = re.escape(f"outcome must be 0 or 1, got {outcome}")
    for measure in (collapse, submatrix):
        with pytest.raises(ValueError, match=message):
            measure(w_state(), Axis.X, outcome)


def test_integer_outcomes_and_the_axis_check():
    s = w_state()
    for outcome in (True, np.int64(1)):
        assert collapse(s, Axis.Y, outcome) == collapse(s, Axis.Y, 1)
        assert submatrix(s, Axis.Y, outcome) == submatrix(s, Axis.Y, 1)
    assert collapse(s, Axis.Z, False) == collapse(s, Axis.Z, 0)
    for measure in (collapse, submatrix):
        with pytest.raises(AttributeError):
            measure(s, 0, 1)


def test_impossible_outcome_approx():
    basis = TripartiteState.approx((1.0, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ImpossibleOutcome):
        collapse(basis, Axis.Z, 1)
    r = collapse(basis, Axis.Z, 0)
    assert r.prob == 1.0
    # A probability equal to eps counts as zero.
    even = TripartiteState.approx((1.0, 0, 0, 0, 1.0, 0, 0, 0))
    with pytest.raises(ImpossibleOutcome):
        collapse(even, Axis.X, 1, eps=0.5)
    assert collapse(even, Axis.X, 1, eps=math.nextafter(0.5, 0)).prob == 0.5


def test_impossible_double_outcome_within_eps_names_its_probability():
    """A double at most eps need not be 0: the message says what it is."""
    even = TripartiteState.approx((1.0, 0, 0, 0, 1.0, 0, 0, 0))
    with pytest.raises(ImpossibleOutcome, match=r"^outcome 1 on qubit 1 has probability 0\.5, at most eps = 0\.5$"):
        collapse(even, Axis.X, 1, eps=0.5)
    tiny = TripartiteState.approx((1.0, 0, 0, 0, 0, 0, 0, 1e-6))
    with pytest.raises(ImpossibleOutcome) as err:
        collapse(tiny, Axis.Z, 1)
    assert str(err.value) == f"outcome 1 on qubit 3 has probability {1e-12 / (1 + 1e-12)!r}, at most eps = 1e-10"
    for state in (TripartiteState.approx((1.0,) + (0,) * 7), TripartiteState.exact((1,) + (0,) * 7)):
        with pytest.raises(ImpossibleOutcome, match=r"^outcome 1 on qubit 3 has probability 0$"):
            collapse(state, Axis.Z, 1, eps=0.5)


def test_a_zero_slice_is_refused_at_the_store_step():
    """No probability test guards ``submatrix``, nor a double ``collapse`` under
    a negative eps: the store step's nonzero check refuses the zero slice."""
    for basis in (TripartiteState.exact((1,) + (0,) * 7), TripartiteState.approx((1.0,) + (0,) * 7)):
        with pytest.raises(ValueError, match="the zero vector is not a state"):
            submatrix(basis, Axis.X, 1)
    with pytest.raises(ValueError, match="the zero vector is not a state"):
        collapse(basis, Axis.X, 1, eps=-1.0)


_exact_tripartite = st.one_of(
    exact_states(TripartiteState),
    exact_states(TripartiteState).map(lambda s: parse_state(state_to_ket(s))),  # from pairs
    st.randoms(use_true_random=False).map(random_sparse_state),  # zero slices are common
)


@settings(deadline=None, max_examples=150)
@given(_exact_tripartite, st.booleans())
def test_residual_is_the_slice_that_from_pairs_stores(state, to_approx):
    """collapse and submatrix store a slice of the checked state's pairs without
    checking them again; the residual equals the same slice through every
    check of ``_from_pairs``, and a zero slice still raises."""
    if to_approx:
        state = state.to_approx()
    ops = _OPS[state.backend]
    g, d = state._pairs
    for slot, (axis, outcome) in enumerate(AXIS_OUTCOME_ORDER):
        pair = _SLICES[slot](g)
        if not any(map(any, pair)):
            with pytest.raises(ImpossibleOutcome):
                collapse(state, axis, outcome)
            with pytest.raises(ValueError, match="the zero vector is not a state"):
                submatrix(state, axis, outcome)
            if state.backend == "approx":  # a negative eps keeps the zero slice
                with pytest.raises(ValueError, match="the zero vector is not a state"):
                    collapse(state, axis, outcome, eps=-1.0)
            continue
        expected = BipartiteState._from_pairs(ops, pair, d, state.scale2)
        for residual in (collapse(state, axis, outcome, eps=-1.0).post_state,
                         submatrix(state, axis, outcome)):
            assert residual._pairs == expected._pairs
            assert residual.scale2 == expected.scale2
            assert type(residual.scale2) is type(expected.scale2)
            assert residual.amps == expected.amps
            assert residual == expected and hash(residual) == hash(expected)


def _same_bits(a, b) -> bool:
    """Equal values of one type; for doubles, equal bits (``repr`` of a
    float round-trips)."""
    return type(a) is type(b) and repr(a) == repr(b)


def _check_collapses(state):
    """Every collapse of ``state`` equals ``reference_collapse``: the same
    probability and concurrence^2 to the bit for doubles, the same residual
    pairs, or the same error."""
    for axis, outcome in AXIS_OUTCOME_ORDER:
        for eps in (1e-12, -1.0):
            try:
                expected = reference_collapse(state, axis, outcome, eps)
            except (ImpossibleOutcome, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    collapse(state, axis, outcome, eps)
                continue
            got = collapse(state, axis, outcome, eps)
            assert _same_bits(got.prob, expected.prob)
            assert _same_bits(got.concurrence2, expected.concurrence2)
            assert repr(got.post_state._pairs) == repr(expected.post_state._pairs)
            assert _same_bits(got.post_state.scale2, expected.post_state.scale2)
            assert got == expected and got.__dict__ == expected.__dict__


_haar = st.integers(0, 2**32).map(lambda seed: random_approx_tripartite(np.random.default_rng(seed)))
_kept_states = st.one_of(
    _haar,
    _exact_tripartite,
    _exact_tripartite.map(lambda s: s.to_approx()),
)


@settings(deadline=None, max_examples=150)
@given(_kept_states)
@example(random_approx_tripartite(np.random.default_rng(0)))  # two slice weights round by order
def test_collapse_from_kept_values_matches_the_reference(state):
    """collapse reads the slice weight and determinant the state keeps
    (``_abs2``, ``_slice_dets``); in any order of classify and collapse, and
    on a pickled copy that kept them, it gives the reference's results."""
    blob = pickle.dumps(state)  # before any kept value is computed
    fresh = pickle.loads(blob)
    vec = classify(fresh)
    assert "_slice_dets" in fresh.__dict__
    _check_collapses(fresh)  # classify first
    assert "_abs2" in fresh.__dict__

    later = pickle.loads(blob)
    _check_collapses(later)  # collapse first
    assert classify(later) == vec

    back = pickle.loads(pickle.dumps(fresh))
    assert back.__dict__["_abs2"] == fresh._abs2
    assert back.__dict__["_slice_dets"] == fresh._slice_dets
    _check_collapses(back)
