"""State containers: norms, scaling, validation, JSON round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
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
    concurrence2,
    det2,
    rank1_oracle,
    state_from_json,
    state_to_json,
)

from _util import _SLICE_INDEX

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


def test_double_determinants_raise_nonfinite_on_overflow():
    ghz = TripartiteState.approx((1e100,) + (0,) * 6 + (1e100,))
    with pytest.raises(NonFinite):  # p0^2 = 1e400
        cayley_det(ghz)
    with pytest.raises(NonFinite):  # beta^2 = 1e400
        cayley_det_schlafli(ghz)
    with pytest.raises(NonFinite):  # c00 c11 = 1e400
        det2(BipartiteState.approx((1e200, 0, 0, 1e200)))
    c = (1 + 2j, 3 - 1j, 0.5j, 2.25 - 0.1j)
    assert det2(BipartiteState.approx(c)) == c[0] * c[3] - c[1] * c[2]
    assert cayley_det(ghz.scale(1e-90)) == cayley_det_schlafli(ghz.scale(1e-90)) == 1e40
