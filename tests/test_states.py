"""State containers: norms, scaling, validation, JSON round trips."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    AXIS_OUTCOME_ORDER,
    SLICE_INDEX,
    Axis,
    BackendMismatch,
    BipartiteState,
    GaussianRational,
    NonFinite,
    TripartiteState,
    ZeroScale,
    cayley_det,
    cayley_det_schlafli,
    classify,
    collapse,
    concurrence,
    concurrence2,
    det2,
    extract_factors,
    is_separable,
    is_separable_bipartite,
    parse_state,
    random_rational_unitary2,
    rank1_oracle,
    state_from_json,
    state_to_json,
    state_to_ket,
    sub_concurrences2,
    submatrix,
)

from _util import _SLICE_INDEX, exact_states, reference_to_approx

GHZ_AMPS = (1, 0, 0, 0, 0, 0, 0, 1)
W_AMPS = (0, 1, 1, 0, 1, 0, 0, 0)


def test_norm2_ghz_normalized():
    s = TripartiteState.exact(GHZ_AMPS, scale2=Fraction(1, 2))
    assert s.norm2() == 1


def test_norm2_unnormalized_w():
    s = TripartiteState.exact(W_AMPS, scale2=1)
    assert s.norm2() == 3


def test_norm2_uniform_superposition():
    s = TripartiteState.exact((1,) * 8, scale2=Fraction(1, 8))
    assert s.norm2() == 1


def test_scale_examples():
    ghz = TripartiteState.exact(GHZ_AMPS, scale2=Fraction(1, 2))
    assert ghz.scale(2).norm2() == 4
    assert ghz.scale(GaussianRational(0, 1)).norm2() == 1  # unit modulus
    w = TripartiteState.exact(W_AMPS, scale2=1)
    assert w.scale(Fraction(1, 3)).norm2() == Fraction(1, 3)


def test_scale_by_zero_rejected():
    s = TripartiteState.exact(GHZ_AMPS, scale2=Fraction(1, 2))
    with pytest.raises(ZeroScale):
        s.scale(0)
    approx = s.to_approx()
    with pytest.raises(ZeroScale):
        approx.scale(0.0)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        TripartiteState.exact((0,) * 8)
    with pytest.raises(ValueError):
        BipartiteState.approx((0.0, 0.0, 0.0, 0.0))


def test_scale2_must_be_positive():
    with pytest.raises(ValueError):
        TripartiteState.exact(GHZ_AMPS, scale2=0)
    with pytest.raises(ValueError):
        TripartiteState.exact(GHZ_AMPS, scale2=-1)


def test_backend_consistency_enforced():
    exact = GaussianRational(1)
    with pytest.raises(BackendMismatch):
        TripartiteState((exact, 1j, exact, exact, exact, exact, exact, exact), Fraction(1))
    with pytest.raises(BackendMismatch):
        TripartiteState(tuple(GaussianRational(1) for _ in range(8)), 1.0)
    with pytest.raises(BackendMismatch):
        TripartiteState((1j,) + (0j,) * 7, Fraction(1))


def test_states_immutable():
    s = TripartiteState.exact(GHZ_AMPS, scale2=Fraction(1, 2))
    with pytest.raises(Exception):
        s.amps = ()
    with pytest.raises(AttributeError):
        s.amps[0].re = Fraction(2)


def test_amp_indexing():
    s = TripartiteState.exact(tuple(range(1, 9)))
    assert s.amp(0, 0, 0) == GaussianRational(1)
    assert s.amp(1, 0, 1) == GaussianRational(6)
    assert s.amp(1, 1, 1) == GaussianRational(8)
    b = BipartiteState.exact((1, 2, 3, 4))
    assert b.amp(1, 0) == GaussianRational(3)


def test_axis_vocabulary():
    assert Axis.X.qubit == 1 and Axis.Z.qubit == 3
    assert Axis.from_qubit(2) is Axis.Y
    with pytest.raises(ValueError):
        Axis.from_qubit(4)


def test_to_approx_is_one_way():
    s = TripartiteState.exact(GHZ_AMPS, scale2=Fraction(1, 2))
    a = s.to_approx()
    assert a.backend == "approx"
    assert a.amps[0] == 1.0 + 0j
    assert a.scale2 == 0.5
    assert s.backend == "exact"  # original untouched


#: Parts far apart in size, so that d is large and the doubles round.
_spread_fracs = st.builds(
    lambda n, k, den: Fraction(n, den) * Fraction(10) ** k,
    st.integers(-(10**20), 10**20), st.integers(-300, 300), st.integers(1, 10**20),
)
_spread_states = st.builds(
    TripartiteState,
    st.tuples(*[st.builds(GaussianRational, _spread_fracs, _spread_fracs)] * 8).filter(any),
    st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)),
)


def _bits(value):
    """The exact doubles of a double-backend value: parts and scale2 as hex."""
    values = value.entries if hasattr(value, "entries") else value.amps
    return [(z.real.hex(), z.imag.hex()) for z in values], value.scale2.hex()


@settings(deadline=None)
@given(
    st.one_of(exact_states(TripartiteState), exact_states(BipartiteState), _spread_states),
    st.integers(0, 2**32),
)
def test_to_approx_from_pairs_gives_the_old_doubles(state, seed):
    """``part / d`` on the kept pairs is ``float(Fraction(part, d))``, bit for bit."""
    unit = random_rational_unitary2(random.Random(seed))
    for value in (state, parse_state(state_to_ket(state)), unit, unit.dagger()):
        try:
            old = reference_to_approx(value)
        except NonFinite:
            with pytest.raises(NonFinite):
                value.to_approx()
            continue
        new = value.to_approx()
        assert type(new) is type(old) and _bits(new) == _bits(old)
        assert new == old and new._pairs == old._pairs


def test_to_approx_scale2_below_the_double_range_raises_nonfinite():
    s = TripartiteState.exact(GHZ_AMPS, Fraction(1, 10**400))
    with pytest.raises(NonFinite, match="double range"):
        s.to_approx()
    with pytest.raises(NonFinite, match="double range"):
        TripartiteState.exact(GHZ_AMPS, 10**400).to_approx()


def test_json_round_trip_exact():
    s = TripartiteState.exact(
        (GaussianRational(Fraction(1, 3), Fraction(-2, 7)), 0, 0, 0, 0, 0, 1, 2),
        scale2=Fraction(5, 9),
    )
    blob = json.dumps(state_to_json(s))
    back = state_from_json(json.loads(blob))
    assert back == s  # bit-exact


def test_json_round_trip_approx():
    s = BipartiteState.approx((0.25 + 1j, 0, 0.5, -1), scale2=0.125)
    back = state_from_json(state_to_json(s))
    assert back.amps == s.amps
    assert back.scale2 == s.scale2


def test_json_round_trip_bipartite_exact():
    s = BipartiteState.exact((1, 0, 0, 1), scale2=Fraction(1, 2))
    assert state_from_json(state_to_json(s)) == s


@pytest.mark.parametrize("backend", ["Exact", "float", "", None])
def test_json_unknown_backend_rejected(backend):
    obj = {"amps": [[1, 0], [0, 0], [0, 0], [1, 0]], "backend": backend}
    with pytest.raises(ValueError, match="unknown backend"):
        state_from_json(obj)


small_fracs = st.fractions(max_denominator=12)
small_scalars = st.builds(GaussianRational, small_fracs, small_fracs)


@given(
    st.lists(small_scalars, min_size=8, max_size=8).filter(lambda v: any(map(bool, v))),
    st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
    small_scalars.filter(bool),
)
def test_scaling_homogeneity_exact(amps, scale2, k):
    s = TripartiteState(tuple(amps), scale2)
    assert s.scale(k).norm2() == k.abs2() * s.norm2()


def test_slice_index_matches_the_index_definition():
    for slot, (axis, outcome) in enumerate(AXIS_OUTCOME_ORDER):
        assert SLICE_INDEX[slot] == _SLICE_INDEX[(axis.name.lower(), outcome)]


@pytest.mark.parametrize(
    "amps, scale2",
    [
        ((float("nan"),) + (0,) * 7, 1.0),
        ((1,) + (0,) * 6 + (complex(0, float("inf")),), 1.0),
        ((1,) + (0,) * 7, float("nan")),
        ((1,) + (0,) * 7, float("inf")),
    ],
)
def test_nonfinite_double_state_rejected(amps, scale2):
    with pytest.raises(NonFinite):
        TripartiteState.approx(amps, scale2)
    with pytest.raises(ValueError):
        BipartiteState.approx(amps[:3] + amps[-1:], scale2)


def test_integer_form_clears_denominators_once():
    s = TripartiteState.exact(
        ((Fraction(1, 2), Fraction(-1, 3)), 0, 0, 0, 0, 0, 0, Fraction(5, 4)), scale2="7/3"
    )
    g, d = s.integer_form
    assert d == 12
    assert g == ((6, -4),) + ((0, 0),) * 6 + ((15, 0),)
    assert s.integer_form is s.integer_form  # kept on the instance
    assert s == TripartiteState(s.amps, s.scale2)  # not part of equality
    assert s.norm2() == Fraction(7, 3) * (Fraction(1, 4) + Fraction(1, 9) + Fraction(25, 16))
    with pytest.raises(BackendMismatch):
        s.to_approx().integer_form


def test_double_overflow_raises_nonfinite():
    with pytest.raises(NonFinite):
        TripartiteState.exact((10**400,) + (0,) * 6 + (1,)).to_approx()
    with pytest.raises(NonFinite):  # norm2 = 1e320
        TripartiteState.approx((1e160,) + (0,) * 6 + (1,)).norm2()
    ghz = TripartiteState.approx((1e77,) + (0,) * 6 + (1e77,))
    assert ghz.norm2() == pytest.approx(2e154)
    with pytest.raises(NonFinite):  # |Det|^2 and norm2^4 overflow to NaN
        classify(ghz)
    assert rank1_oracle(ghz) is False  # its minors stay finite
    with pytest.raises(NonFinite):  # eps * norm2^2 overflows
        rank1_oracle(TripartiteState.approx((1e150,) + (0,) * 6 + (1e150,)))
    bell = BipartiteState.approx((1e80, 0, 0, 1e80))
    with pytest.raises(NonFinite):
        concurrence2(bell)
    tiny = TripartiteState.exact((Fraction(1, 10**45),) + (0,) * 6 + (Fraction(1, 10**45),))
    with pytest.raises(NonFinite, match="double range"):  # norm2^4 underflows to 0
        classify(tiny.to_approx())
    assert collapse(ghz, Axis.X, 0).prob == pytest.approx(0.5)


def test_overflowed_normalization_raises_instead_of_reading_zero():
    # |Det|^2 = 2^1022.4 is finite but norm2^4 = 2^1026.4 is not: the
    # quotient would read 0 and put a GHZ state in the Det = 0 classes.
    a = 2**127.8
    with pytest.raises(NonFinite, match="denominator"):
        classify(TripartiteState.approx((a,) + (0,) * 6 + (a,)))


def test_double_determinants_raise_nonfinite_on_overflow():
    ghz = TripartiteState.approx((1e100,) + (0,) * 6 + (1e100,))
    with pytest.raises(NonFinite):  # beta^2 = 1e400
        cayley_det(ghz)
    with pytest.raises(NonFinite):  # beta^2 = 1e400
        cayley_det_schlafli(ghz)
    with pytest.raises(NonFinite):  # c00 c11 = 1e400
        det2(BipartiteState.approx((1e200, 0, 0, 1e200)))
    c = (1 + 2j, 3 - 1j, 0.5j, 2.25 - 0.1j)
    assert det2(BipartiteState.approx(c)) == c[0] * c[3] - c[1] * c[2]
    assert cayley_det(ghz.scale(1e-90)) == cayley_det_schlafli(ghz.scale(1e-90)) == 1e40


_THREE_QUBIT_OPERATIONS = {
    "submatrix-x0": lambda s: submatrix(s, Axis.X, 0),
    "submatrix-z1": lambda s: submatrix(s, Axis.Z, 1),
    "classify": classify,
    "is_separable": is_separable,
    "extract_factors": extract_factors,
    "cayley_det": cayley_det,
    "cayley_det_schlafli": cayley_det_schlafli,
    "sub_concurrences2": sub_concurrences2,
    "collapse": lambda s: collapse(s, Axis.Y, 1),
    "rank1_oracle": rank1_oracle,
}
_TWO_QUBIT_OPERATIONS = {
    "det2": det2,
    "concurrence2": concurrence2,
    "concurrence": concurrence,
    "is_separable_bipartite": is_separable_bipartite,
}


@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize(
    "needed, name",
    [(3, name) for name in _THREE_QUBIT_OPERATIONS] + [(2, name) for name in _TWO_QUBIT_OPERATIONS],
)
def test_the_wrong_qubit_count_raises_one_value_error(needed, name, backend):
    """Each operation handed a state of the other qubit count raises the same
    ValueError, naming the count it needs, before it computes anything."""
    op = {**_THREE_QUBIT_OPERATIONS, **_TWO_QUBIT_OPERATIONS}[name]
    state = parse_state("|01> + |10>" if needed == 3 else "|000> + |111>")
    if backend == "approx":
        state = state.to_approx()
    other = 5 - needed
    with pytest.raises(ValueError) as exc:
        op(state)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"expected a {needed}-qubit state, got a {other}-qubit state"
