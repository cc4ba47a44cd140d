"""Exact scalar arithmetic: closure, field identities, backend isolation."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritangle import GaussianRational, NonFinite
from tritangle.scalars import _OPS, abs2, as_approx, as_exact

fracs = st.fractions(max_denominator=40)
scalars = st.builds(GaussianRational, fracs, fracs)
nonzero_scalars = scalars.filter(bool)


def test_construction_and_parts():
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert z.re == Fraction(1, 2)
    assert z.im == -3
    assert str(z) == "1/2-3i"


def test_float_input_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.25)


@pytest.mark.parametrize("other", [0.5, 2.0j, complex(1, 1)])
def test_mixed_backend_arithmetic_rejected(other):
    z = GaussianRational(1, 1)
    for op in (lambda: z + other, lambda: z * other, lambda: z - other, lambda: z / other):
        with pytest.raises(TypeError):
            op()


@given(scalars, scalars, scalars)
def test_ring_identities(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert abs2(a * b) == abs2(a) * abs2(b)


@given(scalars, st.one_of(st.integers(-10**6, 10**6), fracs))
def test_real_factor_scales_both_parts(a, k):
    assert a * k == k * a == a * GaussianRational(k)
    assert type((a * k).re) is Fraction and type((a * k).im) is Fraction


def test_fraction_parts_are_kept():
    half = Fraction(1, 2)
    z = GaussianRational(half, 3)
    assert z.re is half and z.im == Fraction(3) and type(z.im) is Fraction


@given(scalars, nonzero_scalars)
def test_division_roundtrip(a, b):
    assert (a / b) * b == a


@given(scalars)
def test_abs2_nonnegative_rational(a):
    m = a.abs2()
    assert isinstance(m, Fraction)
    assert m >= 0
    assert (m == 0) == (not a)


def test_integers_and_fractions_mix_in():
    z = GaussianRational(1, 2)
    assert z + 1 == GaussianRational(2, 2)
    assert 2 * z == GaussianRational(2, 4)
    assert z - Fraction(1, 2) == GaussianRational(Fraction(1, 2), 2)
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)


def test_explicit_conversion():
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert z.to_complex() == complex(0.5, -3.0)
    assert as_approx(z) == complex(0.5, -3.0)
    assert as_exact((1, Fraction(1, 3))) == GaussianRational(1, Fraction(1, 3))


def test_hash_consistency():
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational(Fraction(2, 2), 2))
    d = {GaussianRational(1): "one"}
    assert d[GaussianRational(Fraction(3, 3))] == "one"


@pytest.mark.parametrize("real", [0, 3, -7, Fraction(3), Fraction(-5, 2), Fraction(10**40, 3)])
def test_real_values_hash_as_the_numbers_they_equal(real):
    z = GaussianRational(real)
    assert z == real and hash(z) == hash(real)
    assert len({z, real}) == 1 and len({real, z}) == 1
    assert {real: "real"}[z] == "real" and {z: "gauss"}[real] == "gauss"
    # A nonzero imaginary part keeps the pair hash.
    w = GaussianRational(real, 1)
    assert w != real and hash(w) == hash((Fraction(real), Fraction(1)))


def test_pickle_round_trip():
    for z in (GaussianRational(0), GaussianRational(Fraction(-1, 3), 10**30)):
        back = pickle.loads(pickle.dumps(z))
        assert back == z and type(back.re) is Fraction and type(back.im) is Fraction


@pytest.mark.parametrize(
    "num, den, message",
    [
        (1.0, 0.0, "double-backend entry has a zero denominator: "
         "the values underflow the double range"),
        (1.0, float("inf"), "double-backend entry denominator is inf: "
         "the values overflow the double range"),
        (float("inf"), float("inf"), "double-backend entry denominator is inf: "
         "the values overflow the double range"),
        (1e300, 1e-300, "double-backend entry is inf: the values overflow the double range"),
        (float("nan"), 2.0, "double-backend entry is nan: the values overflow the double range"),
    ],
    ids=["zero", "overflowed-denominator", "both-overflowed", "overflowed-result", "nan-result"],
)
def test_double_division_messages(num, den, message):
    with pytest.raises(NonFinite) as err:
        _OPS["approx"].div(num, den, "entry")
    assert str(err.value) == message
