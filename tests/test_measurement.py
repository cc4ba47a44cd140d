"""Single-qubit collapse: probabilities, residual entanglement, errors."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    Axis,
    AXIS_OUTCOME_ORDER,
    BipartiteState,
    GaussianRational,
    ImpossibleOutcome,
    TripartiteState,
    collapse,
    parse_state,
    state_to_ket,
    sub_concurrences2,
    submatrix,
)
from tritangle.catalog import ghz_state, psi_state, w_state
from tritangle.randstates import random_sparse_state
from tritangle.scalars import _OPS
from tritangle.states import _SLICES

from _util import exact_states


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
