"""Two-qubit determinant, concurrence, and the product-state test."""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tritangle import (
    BipartiteState,
    GaussianRational,
    apply_local_2,
    concurrence,
    concurrence2,
    det2,
    is_separable_bipartite,
    random_unitary2,
)
from tritangle.randstates import (
    random_approx_bipartite,
    random_exact_bipartite,
    random_gaussian_rational,
)

BELL = BipartiteState.exact((1, 0, 0, 1), scale2=Fraction(1, 2))


def test_det2_bell_type():
    assert det2(BELL) == GaussianRational(1)
    assert BELL.scale2 * det2(BELL).re == Fraction(1, 2)  # scaled determinant


def test_det2_swap_type():
    s = BipartiteState.exact((0, 1, 1, 0), scale2=Fraction(1, 2))
    assert s.scale2 * det2(s).re == Fraction(-1, 2)


def test_det2_vanishes_on_products():
    rng = random.Random(11)
    for _ in range(200):
        x = [random_gaussian_rational(rng, 5) for _ in range(2)]
        y = [random_gaussian_rational(rng, 5) for _ in range(2)]
        if not ((x[0] or x[1]) and (y[0] or y[1])):
            continue
        c = BipartiteState((x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]), Fraction(1))
        assert det2(c) == GaussianRational(0)


def test_concurrence_bell_is_one():
    assert concurrence2(BELL) == 1
    assert concurrence(BELL) == 1.0


def test_concurrence_basis_ket_is_zero():
    s = BipartiteState.exact((1, 0, 0, 0))
    assert concurrence2(s) == 0


def test_concurrence_antisymmetric_pair_is_one():
    s = BipartiteState.exact((0, 1, 1, 0), scale2=Fraction(1, 2))
    assert concurrence2(s) == 1


def test_separability_examples():
    assert is_separable_bipartite(BipartiteState.exact((1, 0, 0, 0)))
    assert not is_separable_bipartite(BELL)
    uniform = BipartiteState.exact((1, 1, 1, 1), scale2=Fraction(1, 4))
    assert is_separable_bipartite(uniform)
    # |det|^2 / norm2^2 of the double Bell pair is 1/4 exactly; eps = 1/4 is zero.
    bell = BipartiteState.approx((1, 0, 0, 1))
    assert is_separable_bipartite(bell, 0.25)
    assert not is_separable_bipartite(bell, math.nextafter(0.25, 0))


small_fracs = st.fractions(max_denominator=10)
small_scalars = st.builds(GaussianRational, small_fracs, small_fracs)


@given(
    st.lists(small_scalars, min_size=4, max_size=4).filter(lambda v: any(map(bool, v))),
    small_scalars.filter(bool),
)
def test_concurrence_scaling_invariant(amps, k):
    c = BipartiteState(tuple(amps), Fraction(1))
    assert concurrence2(c.scale(k)) == concurrence2(c)


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        c = random_approx_bipartite(rng)
        u1, u2 = random_unitary2(rng), random_unitary2(rng)
        drift = abs(concurrence(apply_local_2(c, u1, u2)) - concurrence(c))
        assert drift <= 1e-9, f"trial {trial}: drift {drift}"


def test_concurrence_range_both_backends():
    rng = random.Random(5)
    rng_np = np.random.default_rng(5)
    for _ in range(10_000):
        c = random_exact_bipartite(rng)
        c2 = concurrence2(c)
        assert 0 <= c2 <= 1
    for _ in range(10_000):
        c = random_approx_bipartite(rng_np)
        value = concurrence(c)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_zero_concurrence_iff_separable():
    rng = random.Random(17)
    seen_separable = 0
    for trial in range(500):
        if trial % 2 == 0:
            c = random_exact_bipartite(rng)
        else:
            x = (random_gaussian_rational(rng, 4), random_gaussian_rational(rng, 4))
            y = (random_gaussian_rational(rng, 4), random_gaussian_rational(rng, 4))
            if not ((x[0] or x[1]) and (y[0] or y[1])):
                continue
            c = BipartiteState(
                (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]), Fraction(1)
            )
        separable = is_separable_bipartite(c)
        seen_separable += separable
        assert separable == (concurrence2(c) == 0)
    assert seen_separable > 100  # the product branch keeps the check non-vacuous
