"""Local unitaries: validation, application, Haar sampling, invariances."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    BackendMismatch,
    BipartiteState,
    GaussianRational,
    TripartiteState,
    Unitary2,
    apply_local_2,
    apply_local_3,
    cayley_det,
    classify,
    concurrence,
    is_separable,
    is_separable_bipartite,
    random_rational_unitary2,
    random_unitary2,
)
from tritangle.catalog import ghz_state, ghz_to_psi_unitary, psi_state
from tritangle.randstates import (
    mixed_pool,
    random_approx_bipartite,
    random_approx_tripartite,
    random_exact_bipartite,
    random_product_state,
)
from tritangle.scalars import _OPS, abs2
from tritangle.states import SLICE_INDEX
from tritangle.unitary import _LINES, UNITARITY_TOL
from _util import (
    BIG,
    big_fracs,
    brute_apply_local,
    pos_fracs,
    reference_is_unitary,
    reference_mode_product,
    reference_rational_unitary2,
    same_physical_state,
    wide_scalars,
)


def test_unitary_validation_exact():
    u = ghz_to_psi_unitary()
    assert u.scale2 == Fraction(1, 2)
    with pytest.raises(ValueError):
        Unitary2.exact([[1, 1], [1, 1]], Fraction(1, 2))
    with pytest.raises(ValueError):
        Unitary2.exact([[1, 0], [0, 1]], Fraction(1, 2))  # wrong scale2


@pytest.mark.parametrize("backend", ["bogus", "Exact", "float", None])
def test_identity_rejects_unknown_backend_names(backend):
    with pytest.raises(ValueError, match="unknown backend .*; expected 'exact' or 'approx'"):
        Unitary2.identity(backend)
    assert Unitary2.identity("approx").backend == "approx"
    assert Unitary2.identity().backend == "exact"


def test_unitary_validation_approx():
    s = 2 ** -0.5
    Unitary2.approx([[s, s], [-s, s]])
    with pytest.raises(ValueError):
        Unitary2.approx([[s, s], [s, s]])


@pytest.mark.parametrize("seed", range(10))
def test_double_unitarity_decides_at_the_tolerance_edge(seed):
    # scale2 set so that the first diagonal residual, scale2 (|m00|^2 + |m10|^2) - 1,
    # is 0.1% under UNITARITY_TOL, then 0.1% over: rounding moves it by ~1e-16.
    g = random_unitary2(seed)._pairs[0]
    weights = [sum(Fraction(part) ** 2 for n in column for part in g[n]) for column in ((0, 2), (1, 3))]
    for margin, unitary in ((0.999, True), (1.001, False)):
        scale2 = (1.0 + margin * UNITARITY_TOL) / math.fsum(part * part for n in (0, 2) for part in g[n])
        residuals = [Fraction(scale2) * w - 1 for w in weights]
        assert abs(residuals[0] / Fraction(UNITARITY_TOL) - Fraction(margin)) < Fraction(1, 2000)
        assert max(residuals) < UNITARITY_TOL if unitary else residuals[0] > UNITARITY_TOL
        entries = tuple(complex(re, im) for re, im in g)
        assert reference_is_unitary(entries, scale2) is unitary
        assert _accepts(entries, scale2) is unitary


def test_local_application_takes_one_unitary_per_qubit():
    h = ghz_to_psi_unitary()
    ident = Unitary2.identity()
    two, three = BipartiteState.exact([1, 0, 0, 0]), TripartiteState.exact([1] + [0] * 7)
    with pytest.raises(ValueError, match="one unitary per qubit: got 3 for a 2-qubit state"):
        apply_local_3(two, ident, ident, h)
    with pytest.raises(ValueError, match="one unitary per qubit: got 2 for a 3-qubit state"):
        apply_local_2(three, h, h)
    assert apply_local_2(two, ident, h).norm2() == apply_local_3(three, ident, ident, h).norm2() == 1


def test_identity_application_is_identity():
    ghz = ghz_state()
    ident = Unitary2.identity()
    assert apply_local_3(ghz, ident, ident, ident) == ghz


def test_ghz_maps_to_psi():
    u = ghz_to_psi_unitary()
    image = apply_local_3(ghz_state(), u, u, u)
    assert same_physical_state(image, psi_state())
    assert image.norm2() == 1


def test_inverse_transform_recovers_ghz():
    u = ghz_to_psi_unitary()
    ud = u.dagger()
    image = apply_local_3(psi_state(), ud, ud, ud)
    assert same_physical_state(image, ghz_state())


def test_composition_with_dagger_exact():
    rng = random.Random(3)
    for _ in range(50):
        s = random_product_state(rng)
        u1, u2, u3 = (random_rational_unitary2(rng) for _ in range(3))
        back = apply_local_3(apply_local_3(s, u1, u2, u3), u1.dagger(), u2.dagger(), u3.dagger())
        assert same_physical_state(back, s)


def test_composition_with_dagger_approx():
    rng = np.random.default_rng(8)
    for _ in range(100):
        s = random_approx_tripartite(rng)
        us = [random_unitary2(rng) for _ in range(3)]
        back = apply_local_3(apply_local_3(s, *us), *(u.dagger() for u in us))
        assert max(abs(a - b) for a, b in zip(back.amps, s.amps)) <= 1e-12


def _apply(state, units):
    return (apply_local_3 if len(units) == 3 else apply_local_2)(state, *units)


fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
exact_scalars = st.builds(GaussianRational, fracs, fracs)


@st.composite
def wide_rational_unitaries(draw):
    """[[a, b], [-conj(b), conj(a)]] with scale2 = 1 / (|a|^2 + |b|^2)."""
    a, b = draw(st.tuples(wide_scalars, wide_scalars).filter(any))
    return Unitary2.exact([[a, b], [-b.conjugate(), a.conjugate()]], 1 / (a.abs2() + b.abs2()))


@st.composite
def exact_states_and_units(draw):
    """A 2- or 3-qubit exact state and one rational unitary per qubit.

    Each unitary is either a small one from ``random_rational_unitary2`` or
    one drawn by :func:`wide_rational_unitaries`.
    """
    n = draw(st.sampled_from((2, 3)))
    cls = TripartiteState if n == 3 else BipartiteState
    amps = draw(
        st.lists(st.one_of(exact_scalars, wide_scalars), min_size=2**n, max_size=2**n).filter(any)
    )
    scale2 = draw(st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    units = tuple(
        draw(wide_rational_unitaries()) if draw(st.booleans()) else random_rational_unitary2(rng)
        for _ in range(n)
    )
    return cls(tuple(amps), scale2), units


def _same_output(out, ref):
    """The same class, and ``repr``-identical pairs and scale2 to the bit-test
    loop's: equal ints, or doubles equal bit for bit."""
    return type(out) is type(ref) and repr((out._pairs, out.scale2)) == repr((ref._pairs, ref.scale2))


@settings(deadline=None)
@given(exact_states_and_units())
def test_local_unitary_equals_full_sum_exact(case):
    state, units = case
    out = _apply(state, units)
    assert out == brute_apply_local(state, units)
    assert _same_output(out, reference_mode_product(state, units))


@settings(deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2**32))
def test_local_unitary_matches_full_sum_haar(n, seed):
    rng = np.random.default_rng(seed)
    state = random_approx_tripartite(rng) if n == 3 else random_approx_bipartite(rng)
    units = tuple(random_unitary2(rng) for _ in range(n))
    out, ref = _apply(state, units), brute_apply_local(state, units)
    assert type(out) is type(ref) and out.scale2 == ref.scale2
    scale = max(abs(b) for b in ref.amps)
    assert max(abs(a - b) for a, b in zip(out.amps, ref.amps)) <= 1e-12 * scale
    assert _same_output(out, reference_mode_product(state, units))


def test_line_tables_are_the_slice_pairs():
    assert _LINES[8] == tuple(tuple(zip(SLICE_INDEX[2 * k], SLICE_INDEX[2 * k + 1])) for k in range(3))
    assert _LINES[4] == (((0, 2), (1, 3)), ((0, 1), (2, 3)))


def test_mode_product_matches_the_bit_test_loop_on_the_mixed_pool():
    rng = random.Random(27)
    for state in mixed_pool(27, 60):
        units = tuple(random_rational_unitary2(rng) for _ in range(3))
        assert _same_output(apply_local_3(state, *units), reference_mode_product(state, units))
        pair = random_exact_bipartite(rng)
        assert _same_output(apply_local_2(pair, *units[:2]), reference_mode_product(pair, units[:2]))


def test_a_unitary_stored_with_a_common_factor_is_checked_on_its_reduced_pairs():
    """2I over 2 is the identity; 2I over 1 is not unitary."""
    twice = ((2, 0), (0, 0), (0, 0), (2, 0))
    u = Unitary2._from_pairs(_OPS["exact"], twice, 2, Fraction(1))
    assert u._pairs == (((1, 0), (0, 0), (0, 0), (1, 0)), 1) and u == Unitary2.identity()
    with pytest.raises(ValueError, match="not unitary"):
        Unitary2._from_pairs(_OPS["exact"], twice, 1, Fraction(1))


def test_apply_local_2_identity_and_rotation():
    bell = BipartiteState.exact((1, 0, 0, 1), scale2=Fraction(1, 2))
    ident = Unitary2.identity()
    assert apply_local_2(bell, ident, ident) == bell

    ket00 = BipartiteState.exact((1, 0, 0, 0))
    rotated = apply_local_2(ket00, ghz_to_psi_unitary(), ident)
    # |0> -> (|0> + |1>)/sqrt(2) on the first slot under the row convention
    assert rotated.amps == tuple(map(GaussianRational, (1, 0, 1, 0)))
    assert rotated.scale2 == Fraction(1, 2)
    assert is_separable_bipartite(rotated)


def test_concurrence_preserved_random():
    rng = np.random.default_rng(12)
    for _ in range(300):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        c = BipartiteState.approx(tuple(v / np.linalg.norm(v)))
        out = apply_local_2(c, random_unitary2(rng), random_unitary2(rng))
        assert abs(concurrence(out) - concurrence(c)) <= 1e-9


def test_det_modulus_preserved_random():
    rng = np.random.default_rng(13)
    for _ in range(300):
        s = random_approx_tripartite(rng)
        out = apply_local_3(s, *(random_unitary2(rng) for _ in range(3)))
        before = abs(cayley_det(s)) * s.scale2 ** 2 / s.norm2() ** 2
        after = abs(cayley_det(out)) * out.scale2 ** 2 / out.norm2() ** 2
        assert abs(before - after) <= 1e-9


def test_separability_pattern_invariant():
    rng = random.Random(41)
    for _ in range(50):
        s = random_product_state(rng)
        assert classify(s).is_zero()
        out = apply_local_3(s, *(random_rational_unitary2(rng) for _ in range(3)))
        assert classify(out).is_zero()  # exact: still identically zero
        assert is_separable(out)


def test_haar_unitary_reproducible_and_unitary():
    a = random_unitary2(42)
    b = random_unitary2(42)
    assert a.entries == b.entries
    m = a.to_matrix()
    assert np.abs(m @ m.conj().T - np.eye(2)).max() <= 1e-12


def test_haar_unitary_det_modulus_one():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        u = random_unitary2(rng)
        m00, m01, m10, m11 = u.entries
        assert abs(abs(m00 * m11 - m01 * m10) - 1.0) <= 1e-12


def test_rational_unitary_exactly_unitary():
    rng = random.Random(55)
    for _ in range(200):
        u = random_rational_unitary2(rng)
        m00, m01, m10, m11 = u.entries
        target = 1 / u.scale2
        assert abs2(m00) + abs2(m10) == target
        assert abs2(m01) + abs2(m11) == target
        assert m00.conjugate() * m01 + m10.conjugate() * m11 == GaussianRational(0)


def test_rational_unitary_draw_on_ints_gives_the_old_value():
    for seed in range(40):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(25):
            u, expected = random_rational_unitary2(new), reference_rational_unitary2(old)
            assert "entries" not in u.__dict__  # built from its pairs
            assert u._pairs == expected._pairs
            assert u.entries == expected.entries and u.scale2 == expected.scale2
            assert new.getstate() == old.getstate()


def test_backend_mismatch_rejected():
    with pytest.raises(BackendMismatch):
        apply_local_3(
            ghz_state(),
            random_unitary2(1),
            Unitary2.identity("approx"),
            Unitary2.identity("approx"),
        )


@pytest.mark.parametrize(
    "rows, scale2",
    [
        ([[float("nan"), 0.0], [0.0, 1.0]], 1.0),
        ([[1.0, 0.0], [0.0, complex(float("inf"), 0)]], 1.0),
        ([[1.0, 0.0], [0.0, 1.0]], float("nan")),
    ],
)
def test_nonfinite_double_unitary_rejected(rows, scale2):
    with pytest.raises(ValueError, match="finite"):
        Unitary2.approx(rows, scale2)


# The unitarity check is one formula on the entries' pairs; the reference
# is the check written per backend on the scalars (tests/_util.py).


def _accepts(entries, scale2) -> bool:
    try:
        Unitary2(entries, scale2)
    except ValueError:
        return False
    return True


@st.composite
def changed_rational_unitaries(draw):
    """Entries and scale2 of a wide rational unitary, as drawn, with one
    part of one entry moved, or with a wrong scale2."""
    u = draw(wide_rational_unitaries())
    entries, scale2 = list(u.entries), u.scale2
    change = draw(st.sampled_from(("none", "part", "scale2")))
    if change == "part":
        n, delta = draw(st.integers(0, 3)), draw(big_fracs.filter(bool))
        entries[n] += delta if draw(st.booleans()) else GaussianRational(0, delta)
    elif change == "scale2":
        scale2 *= draw(pos_fracs.filter(lambda f: f != 1))
    return tuple(entries), scale2, change


@settings(deadline=None, max_examples=300)
@given(changed_rational_unitaries())
def test_exact_unitarity_check_matches_the_reference(case):
    entries, scale2, change = case
    accepted = _accepts(entries, scale2)
    assert accepted == reference_is_unitary(entries, scale2)
    if change == "none":
        assert accepted


def test_double_unitarity_check_matches_the_reference():
    """Haar unitaries with scale2 from 1e-8 to 1e8, one part moved by 1e-14
    to 1e-10 of the entries' size: the decisions straddle UNITARITY_TOL."""
    np_rng, rng = np.random.default_rng(2024), random.Random(2024)
    accepted = 0
    for _ in range(20_000):
        scale2 = 10.0 ** rng.uniform(-8, 8)
        entries = [z / math.sqrt(scale2) for z in random_unitary2(np_rng).entries]
        delta = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-14, -10) / math.sqrt(scale2)
        entries[rng.randrange(4)] += delta if rng.random() < 0.5 else complex(0, delta)
        decision = _accepts(tuple(entries), scale2)
        assert decision == reference_is_unitary(tuple(entries), scale2), (entries, scale2)
        accepted += decision
    assert 2_000 < accepted < 18_000


@pytest.mark.parametrize(
    "m00, scale2",
    [(1e200, 1.0), (1e100, 1.0), (1.0, 1e200)],
    ids=["entry-overflows", "square-overflows", "scale2-overflows"],
)
def test_double_unitarity_check_that_overflows_raises_value_error(m00, scale2):
    assert not reference_is_unitary((complex(m00), 0j, 0j, 1 + 0j), scale2)
    with pytest.raises(ValueError):
        Unitary2.approx([[m00, 0], [0, 1]], scale2)
