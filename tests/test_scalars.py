"""Exact scalar arithmetic: closure, field identities, backend isolation."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tritangle import GaussianRational, NonFinite
from tritangle.scalars import _OPS, _fraction, _gaussian, abs2, as_approx, as_exact, over_lcm, to_double

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


def test_reflected_and_unary_operators():
    z = GaussianRational(2, 3)
    assert 1 - z == GaussianRational(-1, -3)
    assert Fraction(1, 2) - z == GaussianRational(Fraction(-3, 2), -3)
    assert +z is z
    assert 1 / GaussianRational(0, 2) == GaussianRational(0, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError, match="division by zero GaussianRational"):
        z / GaussianRational(0)
    with pytest.raises(TypeError):
        1.5 / z  # float's division declines, and so does __rtruediv__
    with pytest.raises(TypeError):
        1.5 - z


def test_to_complex_past_the_double_range_is_nonfinite():
    assert GaussianRational(Fraction(1, 2), -3).to_complex() == complex(0.5, -3)
    for z in (GaussianRational(10**400), GaussianRational(0, Fraction(-(10**400), 3))):
        with pytest.raises(NonFinite, match="beyond the double range"):
            z.to_complex()
    with pytest.raises(NonFinite):
        as_approx(GaussianRational(10**400))


def test_to_double_rounds_every_real_and_names_its_input():
    import numpy as np

    for x, d, expected in [
        (1, 3, 1 / 3), (-(10**400), 10**399 * 3, -10 / 3), (10**30 + 1, 1, 1e30), (True, 1, 1.0),
        (Fraction(2, 3), 1, 2 / 3), (Fraction(10**400 + 1, 10**400), 1, 1.0),
        (np.float32(0.1), 1, float(np.float32(0.1))), (np.int64(-7), 1, -7.0), (0.5, 1, 0.5),
    ]:
        value = to_double(x, "x", d)
        assert type(value) is float and value == expected
        if isinstance(x, (int, Fraction)):
            assert value == float(Fraction(x) / d)  # correctly rounded
    for x, d in [(10**400, 1), (-(10**400), 3), (Fraction(10**400, 3), 1), (10**400 * 7, 7)]:
        with pytest.raises(NonFinite, match=r"\Athe part 7 is beyond the double range\Z"):
            to_double(x, "the part 7", d)


def test_backend_coercions():
    assert as_exact((1, Fraction(1, 2))) == GaussianRational(1, Fraction(1, 2))
    for bad in (0.5, 1j, (1, 2, 3), "1", [1, 2]):
        with pytest.raises(TypeError, match="cannot build an exact scalar"):
            as_exact(bad)
    assert as_approx((1, Fraction(1, 2))) == complex(1, 0.5)
    assert as_approx((0.25, -2)) == complex(0.25, -2)


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


# -- quotients stored from one gcd --------------------------------------------

#: Zero, small and beyond 2^256, of either sign.
ints = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.integers(2**256, 2**320),
    st.integers(-(2**320), -(2**256)),
)
pos_ints = st.one_of(st.integers(1, 10**6), st.integers(2**256, 2**320))
#: An int numerator and positive denominator with a common factor drawn too.
quotients = st.builds(lambda n, d, k: (n * k, d * k), ints, pos_ints, pos_ints)


def assert_same_fraction(q, ref):
    assert type(q) is Fraction
    assert (q.numerator, q.denominator) == (ref.numerator, ref.denominator)
    assert q == ref and hash(q) == hash(ref)
    assert str(q) == str(ref) and repr(q) == repr(ref)
    back = pickle.loads(pickle.dumps(q))
    assert type(back) is Fraction and back == ref
    third = Fraction(1, 3)
    assert q + third == ref + third and q * 3 == ref * 3 and -q == -ref
    assert q - ref == 0 and (q <= ref) and not (q < ref)
    if ref:
        assert 1 / q == 1 / ref


def assert_same_gaussian(z, ref):
    assert type(z) is GaussianRational
    assert_same_fraction(z.re, ref.re)
    assert_same_fraction(z.im, ref.im)
    assert z == ref and hash(z) == hash(ref)
    assert str(z) == str(ref) and repr(z) == repr(ref)
    back = pickle.loads(pickle.dumps(z))
    assert type(back) is GaussianRational and back == ref
    w = GaussianRational(Fraction(2, 3), -1)
    assert z * w == ref * w and z + w == ref + w and z.conjugate() == ref.conjugate()
    if ref:
        assert w / z == w / ref


@given(quotients)
def test_stored_fraction_matches_the_constructor(q):
    num, den = q
    k = math.gcd(num, den)
    assert_same_fraction(_fraction(num // k, den // k), Fraction(num, den))


@given(quotients)
def test_exact_div_matches_the_constructor(q):
    assert_same_fraction(_OPS["exact"].div(*q), Fraction(*q))


@given(ints, ints, pos_ints, pos_ints)
def test_exact_scalar_matches_the_constructor(re, im, den, k):
    ref = GaussianRational(Fraction(re * k, den * k), Fraction(im * k, den * k))
    assert_same_gaussian(_OPS["exact"].scalar(re * k, im * k, den * k), ref)


@given(scalars, scalars)
def test_arithmetic_results_are_stored_fraction_pairs(a, b):
    """Each operator's result equals the one the checked constructor builds."""
    results = [
        (a + b, (a.re + b.re, a.im + b.im)),
        (a - b, (a.re - b.re, a.im - b.im)),
        (a * b, (a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)),
        (-a, (-a.re, -a.im)),
        (a.conjugate(), (a.re, -a.im)),
        (a * 3, (a.re * 3, a.im * 3)),
        (_gaussian(a.re, b.im), (a.re, b.im)),
    ]
    if b:
        n = b.abs2()
        results.append((a / b, ((a.re * b.re + a.im * b.im) / n, (a.im * b.re - a.re * b.im) / n)))
    for z, (re, im) in results:
        assert_same_gaussian(z, GaussianRational(re, im))


# -- slot reads and the vector zero test --------------------------------------

#: Wide signed Fractions: ints (d = 1) and quotients beyond 2^256.
wide_fracs = st.one_of(ints.map(Fraction), st.builds(Fraction, ints, pos_ints))
int_scalars = st.builds(GaussianRational, ints, ints)
wide_scalars = st.builds(GaussianRational, wide_fracs, wide_fracs)


@given(st.one_of(st.lists(int_scalars, min_size=1, max_size=8),
                 st.lists(wide_scalars, min_size=1, max_size=8)))
def test_exact_pairs_read_off_the_slots_match_over_lcm(values):
    ref = over_lcm([(v.re.as_integer_ratio(), v.im.as_integer_ratio()) for v in values])
    assert _OPS["exact"].pairs(values) == ref


reduce_parts = st.integers(-10**6, 10**6)


@given(st.lists(st.one_of(st.just((0, 0)), st.tuples(reduce_parts, reduce_parts)), min_size=1, max_size=8),
       st.integers(1, 10**6), st.integers(1, 60), st.booleans())
@example([(3, -5), (0, 0)], 1, 1, False)  # d = 1
@example([(0, 0)] * 4, 7, 3, False)  # zero pairs only
@example([(1, -2), (0, 0), (-3, 4)], 5, 6, True)  # a common factor that the last pair breaks
def test_exact_reduce_matches_the_pairs_of_its_quotients(g, d, k, break_last):
    """``reduce(g, d)`` equals ``pairs`` of the values (g_n[0] + i g_n[1]) / d,
    for pairs and d that share the factor k, or all of them but the last."""
    g, d = [(re * k, im * k) for re, im in g], d * k
    if break_last:
        g[-1] = (g[-1][0] + 1, g[-1][1])
    values = [GaussianRational(Fraction(re, d), Fraction(im, d)) for re, im in g]
    assert _OPS["exact"].reduce(tuple(g), d) == _OPS["exact"].pairs(values)


def test_exact_pairs_of_integer_parts_are_over_one():
    values = [GaussianRational(3, -4), GaussianRational(-(2**300)), GaussianRational(0, 7)]
    assert _OPS["exact"].pairs(values) == (((3, -4), (-(2**300), 0), (0, 7)), 1)


@given(wide_fracs)
def test_exact_ratio_reads_numerator_and_denominator(q):
    assert _OPS["exact"].ratio(q) == (q.numerator, q.denominator)


positive_fracs = wide_fracs.map(abs).filter(bool)


@given(positive_fracs, positive_fracs)
def test_exact_sqrt_ratio_matches_the_accessor_quotient(v, w):
    # Every quotient drawn here lies in the normal double range, where the
    # root of the correctly rounded int quotient is the documented value.
    num, den = v.numerator * w.denominator, v.denominator * w.numerator
    assert _OPS["exact"].sqrt_ratio(v, w) == math.sqrt(num / den)


def test_exact_sqrt_ratio_reads_int_entries_as_fractions():
    sqrt_ratio = _OPS["exact"].sqrt_ratio
    assert sqrt_ratio(1, 2) == sqrt_ratio(Fraction(1), Fraction(2)) == math.sqrt(0.5)
    assert sqrt_ratio(Fraction(1, 3), 3) == sqrt_ratio(1, Fraction(9)) == 1 / 3


signed_eps = st.one_of(st.sampled_from([0.0, 1e-10, -1e-10, -1.0, 0]),
                       st.floats(allow_nan=False))


@given(st.lists(st.one_of(st.just(Fraction(0)), st.just(0), wide_fracs.map(abs)), max_size=7),
       signed_eps)
def test_exact_all_zero_agrees_with_is_zero(values, eps):
    ops = _OPS["exact"]
    assert ops.all_zero(tuple(values), eps) == all(ops.is_zero(v, eps) for v in values)


@given(st.lists(st.one_of(st.sampled_from([0.0, 1e-10, 2e-10, 1e-300, math.inf, math.nan]),
                          st.floats(min_value=0)), max_size=7),
       signed_eps)
def test_double_all_zero_agrees_with_is_zero(values, eps):
    ops = _OPS["approx"]
    assert ops.all_zero(tuple(values), eps) == all(ops.is_zero(v, eps) for v in values)
