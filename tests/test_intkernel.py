"""The exact integer kernel against independent references.

Exact states are classified, collapsed and measured for concurrence on
their integer form (Gaussian-integer numerators over one common
denominator).  ``classify`` and ``cayley_det`` read one kernel,
``hyperdet._entries_g``, which forms Det as the discriminant of the x-pencil
from two of the six slice determinants a state computes once and keeps
(``_slice_dets``).  These
properties compare every exact path that runs on the integer form with a
reference that does not: Cayley's expansion in the antipodal products
(``_util.reference_cayley_g``), the discriminants of the x-, y- and
z-pencils in Gaussian-rational arithmetic (the z-pencil is also
``cayley_det_schlafli``), the raw-index sub-determinants of
``_util.brute_subdet2``, Gaussian-rational flattening minors and 2x2
determinants, and the ``Factorization.amplitudes()`` rebuild.  Inputs have
large coprime denominators, mixed real and imaginary parts, sparse supports
and ``scale2 != 1``.

States built on ints (parsed, or rotated by local unitaries) keep their
integer form; it must equal what ``_OPS["exact"].pairs`` computes from
their amplitudes.

Every exact quotient a kernel returns is stored from one gcd, without the
``Fraction`` constructor; each must be a ``Fraction`` in lowest terms with a
positive denominator, equal to ``_util.reference_quotients``.

The double backend runs the same kernels on its own float pairs; the last
properties compare it with the exact backend on the same states.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tritangle import (
    AXIS_OUTCOME_ORDER,
    BipartiteState,
    GaussianRational,
    ImpossibleOutcome,
    NonFinite,
    NotSeparable,
    TripartiteState,
    apply_local_2,
    apply_local_3,
    cayley_det,
    cayley_det_schlafli,
    classify,
    collapse,
    concurrence2,
    det2,
    extract_factors,
    is_separable,
    is_separable_bipartite,
    parse_state,
    random_rational_unitary2,
    rank1_oracle,
    state_to_ket,
    sub_concurrences2,
    submatrix,
)
from tritangle.hyperdet import _entries_g
from tritangle.randstates import mixed_pool, random_approx_tripartite, random_product_state
from tritangle.scalars import _OPS

from _util import (
    _SLICE_INDEX,
    brute_apply_local,
    brute_subdet2,
    exact_states,
    perturbed,
    reference_cayley_g,
    reference_product_state,
    reference_quotients,
    same_physical_state,
    wide_scalars,
)

BIG = 10**6

big_fracs = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
# Real, imaginary or fully complex entries.
scalars = st.one_of(
    st.builds(GaussianRational, big_fracs),
    st.builds(lambda im: GaussianRational(0, im), big_fracs),
    st.builds(GaussianRational, big_fracs, big_fracs),
)
nonzero_scalars = scalars.filter(bool)
scale2s = st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG))


@st.composite
def sparse_states(draw):
    """1..8 nonzero amplitudes on a drawn support (one-nonzero included)."""
    support = draw(st.sets(st.integers(0, 7), min_size=1, max_size=8))
    amps = [GaussianRational(0)] * 8
    for n in support:
        amps[n] = draw(nonzero_scalars)
    return TripartiteState(tuple(amps), draw(scale2s))


@st.composite
def product_states(draw):
    def qubit():
        return draw(st.tuples(scalars, scalars).filter(lambda v: v[0] or v[1]))

    x, y, z = qubit(), qubit(), qubit()
    amps = tuple(x[i] * y[j] * z[k] for i in range(2) for j in range(2) for k in range(2))
    return TripartiteState(amps, draw(scale2s))


states = st.one_of(sparse_states(), product_states())


def reference_norm2(state):
    return state.scale2 * sum((a.abs2() for a in state.amps), Fraction(0))


def reference_rank1(state) -> bool:
    """All 18 flattening minors vanish, in Gaussian-rational arithmetic."""
    a = state.amps
    for axis in "xyz":
        top, bottom = _SLICE_INDEX[(axis, 0)], _SLICE_INDEX[(axis, 1)]
        for p in range(4):
            for q in range(p + 1, 4):
                if a[top[p]] * a[bottom[q]] - a[top[q]] * a[bottom[p]]:
                    return False
    return True


@settings(deadline=None)
@given(states)
def test_cayley_det_matches_schlafli(state):
    assert cayley_det(state) == cayley_det_schlafli(state)


# -- the hyperdeterminant kernel ----------------------------------------------

#: Numerators and denominators past 2^100, so that the lcm d is large and coprime.
huge_fracs = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
kernel_states = st.one_of(
    states,
    exact_states(TripartiteState),
    st.builds(
        TripartiteState,
        st.tuples(*[st.builds(GaussianRational, huge_fracs, huge_fracs)] * 8).filter(any),
    ),
)


def pencil_discriminant(amps, axis):
    """beta^2 - 4 alpha gamma of det(s A_0 + t A_1) = alpha s^2 + beta s t + gamma t^2,
    with A_0 and A_1 the two slices of ``axis``, in GaussianRational arithmetic."""
    c00, c01, c10, c11 = (amps[n] for n in _SLICE_INDEX[(axis, 0)])
    e00, e01, e10, e11 = (amps[n] for n in _SLICE_INDEX[(axis, 1)])
    alpha, gamma = c00 * c11 - c01 * c10, e00 * e11 - e01 * e10
    beta = c00 * e11 + e00 * c11 - c01 * e10 - e01 * c10
    return beta * beta - 4 * alpha * gamma


@settings(deadline=None)
@given(kernel_states)
def test_kernel_det_is_cayleys_expansion_on_ints(state):
    g, d = state._pairs
    dets = state._slice_dets
    re, im = _entries_g(g, dets)
    assert (re, im) == reference_cayley_g(g)
    assert cayley_det(state) == GaussianRational(Fraction(re, d**4), Fraction(im, d**4))
    a = state.amps
    for (axis, outcome), (r, i) in zip(AXIS_OUTCOME_ORDER, dets):
        i00, i01, i10, i11 = _SLICE_INDEX[(axis.name.lower(), outcome)]
        det = a[i00] * a[i11] - a[i01] * a[i10]
        assert GaussianRational(Fraction(r, d * d), Fraction(i, d * d)) == det


@settings(deadline=None)
@given(kernel_states)
def test_x_y_and_z_pencil_discriminants_agree(state):
    x, y, z = (pencil_discriminant(state.amps, axis) for axis in "xyz")
    assert x == y == z == cayley_det(state)


haar_states = st.integers(0, 2**32).map(lambda seed: random_approx_tripartite(
    np.random.default_rng(seed)))


@settings(deadline=None)
@given(st.one_of(kernel_states.map(lambda s: s.to_approx()), haar_states))
def test_double_kernel_matches_cayleys_expansion(state):
    """Det within 1e-12 of (sum |g_n|^2)^2, the scale ``classify`` divides it by.

    Where that scale squared leaves the double range, ``classify`` raises.
    """
    g = state._pairs[0]
    n2 = state._weight * state._weight
    dets = state._slice_dets
    re, im = _entries_g(g, dets)
    ref_re, ref_im = reference_cayley_g(g)
    assert abs(complex(re, im) - complex(ref_re, ref_im)) <= 1e-12 * n2
    if n2 * n2 and math.isfinite(n2 * n2):
        assert classify(state).sub2 == tuple((r * r + i * i) / n2 for r, i in dets)
    else:
        with pytest.raises(NonFinite):
            classify(state)


@settings(deadline=None)
@given(states)
def test_normalized_classification_matches_references(state):
    assert state.norm2() == reference_norm2(state)
    vec = classify(state)
    n2 = reference_norm2(state)
    s2 = state.scale2
    assert vec.det_abs2 == cayley_det_schlafli(state).abs2() * s2**4 / n2**4
    assert vec.sub2 == tuple(
        brute_subdet2(state, axis.name.lower(), outcome) for axis, outcome in AXIS_OUTCOME_ORDER
    )
    assert all(isinstance(v, Fraction) for v in vec.values2())


@settings(deadline=None)
@given(states)
def test_unnormalized_classification_matches_references(state):
    s2 = state.scale2
    n2 = reference_norm2(state)
    assert cayley_det(state).abs2() * s2**4 == cayley_det_schlafli(state).abs2() * s2**4
    # brute_subdet2 divides by norm2^2; undo that to get the raw entry.
    assert sub_concurrences2(state) == tuple(
        brute_subdet2(state, axis.name.lower(), outcome) * n2 * n2
        for axis, outcome in AXIS_OUTCOME_ORDER
    )


@settings(deadline=None)
@given(states)
def test_decision_oracle_and_factors_agree(state):
    separable = is_separable(state)
    assert separable == reference_rank1(state) == rank1_oracle(state)
    if separable:
        fact = extract_factors(state)
        assert fact.amplitudes() == state.amps
    else:
        with pytest.raises(NotSeparable):
            extract_factors(state)


@settings(deadline=None)
@given(product_states())
def test_products_factor_exactly(state):
    assert is_separable(state) and rank1_oracle(state)
    assert extract_factors(state).amplitudes() == state.amps


@settings(deadline=None)
@given(states)
def test_collapse_probabilities_match_slice_weights(state):
    n2 = reference_norm2(state)
    for axis, outcome in AXIS_OUTCOME_ORDER:
        index = _SLICE_INDEX[(axis.name.lower(), outcome)]
        weight = state.scale2 * sum((state.amps[n].abs2() for n in index), Fraction(0))
        if weight == 0:
            continue
        result = collapse(state, axis, outcome)
        assert result.prob == weight / n2
        assert result.post_state.amps == tuple(state.amps[n] for n in index)


@settings(deadline=None)
@given(states.filter(lambda s: s.scale2 != 1))
def test_collapse_concurrence_matches_sub_determinants(state):
    """C^2 of each residual pair is 4 |sub-det|^2 / prob^2 (unit-norm terms)."""
    for axis, outcome in AXIS_OUTCOME_ORDER:
        index = _SLICE_INDEX[(axis.name.lower(), outcome)]
        if not any(state.amps[n] for n in index):
            with pytest.raises(ImpossibleOutcome):
                collapse(state, axis, outcome)
            continue
        result = collapse(state, axis, outcome)
        assert result.concurrence2 * result.prob**2 == 4 * brute_subdet2(
            state, axis.name.lower(), outcome
        )


@st.composite
def pair_states(draw):
    """Four drawn amplitudes, or the product of two drawn one-qubit factors."""
    if draw(st.booleans()):
        amps = draw(st.lists(scalars, min_size=4, max_size=4))
    else:
        (x0, x1), (y0, y1) = draw(st.tuples(scalars, scalars)), draw(st.tuples(scalars, scalars))
        amps = [x0 * y0, x0 * y1, x1 * y0, x1 * y1]
    assume(any(amps))
    return BipartiteState(tuple(amps), draw(scale2s))


@settings(deadline=None)
@given(pair_states())
def test_pair_concurrence_matches_gaussian_rational_formula(state):
    """4 scale2^2 |det|^2 / norm2^2 in GaussianRational arithmetic."""
    det = det2(state)
    n2 = reference_norm2(state)
    assert concurrence2(state) == 4 * state.scale2**2 * det.abs2() / n2**2
    assert is_separable_bipartite(state) == (not det)


# -- quotients in lowest terms ------------------------------------------------


def kernel_quotients(state):
    """The exact quotients the kernels return for ``state``, in the order of
    ``_util.reference_quotients``."""
    out = [part for a in state.amps for part in (a.re, a.im)]
    out.append(state.norm2())
    out += classify(state).values2() + (cayley_det(state).abs2() * state.scale2**4,)
    out += sub_concurrences2(state)
    for axis, outcome in AXIS_OUTCOME_ORDER:
        try:
            result = collapse(state, axis, outcome)
        except ImpossibleOutcome:
            continue
        out += [result.prob, result.concurrence2]
    try:
        fact = extract_factors(state)
    except NotSeparable:
        return out
    return out + [part for z in fact.fy + fact.fz for part in (z.re, z.im)]


def assert_reduced_quotients(state):
    found, expected = kernel_quotients(state), reference_quotients(state)
    assert len(found) == len(expected)
    for q, ref in zip(found, expected):
        assert type(q) is Fraction
        num, den = q.numerator, q.denominator
        assert den > 0 and math.gcd(num, den) == 1, (num, den)
        assert (num, den) == (ref.numerator, ref.denominator)


def test_pool_quotients_are_reduced_fractions():
    rng = random.Random(19)
    for s in mixed_pool(seed=101, count=2000):
        for state in (s, perturbed(s, rng)):
            assert_reduced_quotients(state)


@settings(deadline=None)
@given(states)
def test_quotients_are_reduced_fractions(state):
    assert_reduced_quotients(state)


@settings(deadline=None)
@given(states, st.randoms(use_true_random=False))
def test_rotated_scale2_is_the_reduced_product(state, rng):
    units = [random_rational_unitary2(rng) for _ in range(3)]
    scale2 = apply_local_3(state, *units).scale2
    assert type(scale2) is Fraction and math.gcd(scale2.numerator, scale2.denominator) == 1
    assert scale2 == state.scale2 * units[0].scale2 * units[1].scale2 * units[2].scale2


# -- integer forms kept by states built on ints ------------------------------


def kept_integer_form(state):
    """The integer form a state stored when it was built; fails if it kept none."""
    assert "_pairs" in vars(state), "the state was built without keeping its integer form"
    return state.integer_form


@settings(deadline=None)
@given(
    exact_states(TripartiteState), exact_states(BipartiteState), st.randoms(use_true_random=False)
)
def test_states_built_on_ints_keep_their_least_integer_form(s3, s2, rng):
    u3 = [random_rational_unitary2(rng) for _ in range(3)]
    u2 = [random_rational_unitary2(rng) for _ in range(2)]
    for built, source in (
        (parse_state(state_to_ket(s3)), s3),
        (parse_state(state_to_ket(s2)), s2),
        (apply_local_3(s3, *u3), brute_apply_local(s3, u3)),
        (apply_local_2(s2, *u2), brute_apply_local(s2, u2)),
    ):
        assert kept_integer_form(built) == _OPS["exact"].pairs(built.amps)
        assert same_physical_state(built, source)


@given(st.integers(0, 2**32))
def test_random_product_state_is_the_outer_product_of_its_draws(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    state = random_product_state(rng)
    assert state == reference_product_state(ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    assert kept_integer_form(state) == _OPS["exact"].pairs(state.amps)


# -- the double backend against the exact backend ----------------------------

wide_states = st.builds(
    TripartiteState, st.tuples(*[wide_scalars] * 8).filter(any), scale2s.filter(lambda s: s != 1)
)


def close(double, exact, scale=1.0) -> bool:
    """|double - exact| within 1e-9 of ``scale``, the natural size of the quantity."""
    return abs(double - exact) <= 1e-9 * scale


@settings(deadline=None)
@given(wide_states, st.randoms(use_true_random=False))
def test_double_backend_matches_exact_backend(state, rng):
    approx = state.to_approx()
    n2 = float(state.norm2())
    raw = n2 / float(state.scale2)  # sum |a_n|^2 of the raw amplitudes
    assert close(approx.norm2(), state.norm2(), n2)
    assert close(cayley_det(approx), cayley_det(state).to_complex(), raw * raw)
    vec, vec_f = classify(state), classify(approx)
    assert close(vec_f.det_abs2, vec.det_abs2)
    assert all(close(f, e) for f, e in zip(vec_f.sub2, vec.sub2))
    s2 = state.scale2
    assert close(abs(cayley_det(approx)) ** 2 * float(s2) ** 4, cayley_det(state).abs2() * s2**4, n2**4)
    assert all(
        close(f, e, n2**2) for f, e in zip(sub_concurrences2(approx), sub_concurrences2(state))
    )
    for axis, outcome in AXIS_OUTCOME_ORDER:
        if not any(state.amps[n] for n in _SLICE_INDEX[(axis.name.lower(), outcome)]):
            with pytest.raises(ImpossibleOutcome):
                collapse(approx, axis, outcome)
            continue
        assert close(concurrence2(submatrix(approx, axis, outcome)),
                     concurrence2(submatrix(state, axis, outcome)))
        exact = collapse(state, axis, outcome)
        try:
            double = collapse(approx, axis, outcome)
        except ImpossibleOutcome:  # at most eps in doubles, yet not exactly zero
            assert 0 < exact.prob <= 2e-10
            continue
        assert close(double.prob, exact.prob) and close(double.concurrence2, exact.concurrence2)
    units = [random_rational_unitary2(rng) for _ in range(3)]
    rotated = apply_local_3(state, *units)
    rotated_f = apply_local_3(approx, *(u.to_approx() for u in units))
    assert close(rotated_f.scale2, rotated.scale2, float(rotated.scale2))
    size = max(abs(a.to_complex()) for a in rotated.amps)
    assert all(close(f, e.to_complex(), size) for f, e in zip(rotated_f.amps, rotated.amps))


@settings(deadline=None)
@given(st.tuples(*[st.tuples(wide_scalars, wide_scalars).filter(any)] * 3), scale2s)
def test_double_backend_finds_planted_products(factors, scale2):
    (x0, x1), (y0, y1), (z0, z1) = factors
    amps = tuple(x * y * z for x in (x0, x1) for y in (y0, y1) for z in (z0, z1))
    state = TripartiteState(amps, scale2)
    approx = state.to_approx()
    assert rank1_oracle(state) and rank1_oracle(approx)
    assert is_separable(approx)
