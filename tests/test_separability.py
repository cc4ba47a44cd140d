"""Separability decision, factor extraction, rank-1 oracle, witnesses."""

import math
import random
from fractions import Fraction

import pytest

from tritangle import (
    Axis,
    ClassificationVector,
    GaussianRational,
    NotSeparable,
    ResidualNonzero,
    TripartiteState,
    antipodal_pair_states,
    cayley_det,
    classify,
    collapse,
    extract_factors,
    is_separable,
    parse_state,
    rank1_oracle,
    sub_concurrences2,
)
from tritangle import separability
from tritangle.catalog import ghz_state, w_state
from tritangle.randstates import (
    mixed_pool,
    random_product_state,
    random_tripartite,
)
from tritangle.scalars import _ZERO
from tritangle.separability import _COLUMN_PAIRS, _MINORS, _extract_exact
from tritangle.states import SLICE_INDEX

from _util import (
    perturbed,
    random_fraction,
    reference_extract_exact,
    reference_first_nonzero_minor,
)


def test_products_are_separable():
    rng = random.Random(1)
    for _ in range(200):
        assert is_separable(random_product_state(rng))


def test_w_not_separable():
    w = w_state()
    assert not is_separable(w)
    assert cayley_det(w) == GaussianRational(0)  # Det alone cannot tell
    assert sub_concurrences2(w)[0] != 0  # but the x0 slot can


def test_ghz_not_separable():
    ghz = ghz_state()
    assert not is_separable(ghz)
    assert sub_concurrences2(ghz) == (0,) * 6  # the six slots cannot tell
    assert classify(ghz).det_abs2 != 0  # but Det can


def test_extract_factors_basis_ket():
    f = extract_factors(TripartiteState.exact((1, 0, 0, 0, 0, 0, 0, 0)))
    one, zero = GaussianRational(1), GaussianRational(0)
    assert f.fx == (one, zero)
    assert f.fy == (one, zero)
    assert f.fz == (one, zero)


def test_extract_factors_signed_product():
    # (|0> + |1>) (x) (|0> - |1>) (x) |1>
    amps = (0, 1, 0, -1, 0, 1, 0, -1)
    f = extract_factors(TripartiteState.exact(amps))
    assert f.fx == (GaussianRational(1), GaussianRational(1))
    assert f.fy == (GaussianRational(1), GaussianRational(-1))
    assert f.fz == (GaussianRational(0), GaussianRational(1))
    assert f.amplitudes() == tuple(map(GaussianRational, amps))


def test_extract_factors_random_products_zero_residual():
    rng = random.Random(2)
    for _ in range(1000):
        s = random_product_state(rng)
        f = extract_factors(s)
        assert f.amplitudes() == s.amps  # exact reconstruction


def test_extract_factors_requires_separability():
    with pytest.raises(NotSeparable):
        extract_factors(ghz_state())
    with pytest.raises(NotSeparable):
        extract_factors(w_state())


def test_extract_factors_approx():
    rng = random.Random(77)
    for _ in range(50):
        s = random_product_state(rng).to_approx()
        f = extract_factors(s)
        rebuilt = f.amplitudes()
        biggest = max(abs(a) for a in s.amps)
        assert max(abs(r - a) for r, a in zip(rebuilt, s.amps)) <= 1e-9 * max(1.0, biggest)


def test_rank1_oracle_products_true():
    rng = random.Random(3)
    for _ in range(200):
        assert rank1_oracle(random_product_state(rng))


def test_rank1_oracle_ghz_false():
    # x-flattening of GHZ is [[1,0,0,0],[0,0,0,1]]: the (0,3) minor is 1
    assert not rank1_oracle(ghz_state())
    # In doubles its normalized |minor|^2 is 1/4 exactly; eps = 1/4 is zero.
    ghz = ghz_state().to_approx()
    assert rank1_oracle(ghz, 0.25) and not rank1_oracle(ghz, math.nextafter(0.25, 0))


@pytest.mark.parametrize("eps", [1e-10, 1.0])
def test_exact_decision_ignores_eps(eps):
    """Exact zero tests compare with zero whatever eps is: entries far below
    eps still decide entangled, and an outcome of tiny probability is possible."""
    tiny = parse_state("|000> + 1/1000000|111>")
    assert 0 < classify(tiny).det_abs2 < 1e-20
    assert not is_separable(tiny, eps) and not rank1_oracle(tiny, eps)
    assert collapse(tiny, Axis.X, 1, eps).prob == Fraction(1, 10**12 + 1)


def test_rank1_oracle_w_false():
    # x-flattening [[0,1,1,0],[1,0,0,0]]: the (0,1) minor is 0*0 - 1*1 = -1
    assert not rank1_oracle(w_state())


def test_antipodal_pair_family():
    states = antipodal_pair_states()
    assert len(states) == 4
    for s in states:
        vec = classify(s)
        assert vec.sub2 == (0,) * 6
        assert vec.det_abs2 > 0
        assert not is_separable(s)
        assert not rank1_oracle(s)
    assert states[0] == ghz_state()  # same amplitudes, same scale2


def test_antipodal_direction_in_doubles():
    """|000> + delta|111> with delta = 1/1000: |Det|^2 = delta^4 normalized
    passes eps = 1e-10 in doubles while the residual is delta.  Pinned as the
    thresholds stand today; a float decision certified against the rebuild
    tolerance (ROADMAP item 2) changes these facts on purpose."""
    exact = parse_state("1000|000> + |111>")
    assert not is_separable(exact) and not rank1_oracle(exact)
    approx = exact.to_approx()
    assert classify(approx).det_abs2 == pytest.approx(1e-12, rel=1e-5)
    assert is_separable(approx)
    # Its normalized |minor|^2, about 1e-6, is far above eps.
    assert not rank1_oracle(approx) and rank1_oracle(approx, 1e-5)
    with pytest.raises(ResidualNonzero):
        extract_factors(approx)


def test_anchor_entries_are_one_and_factors_rebuild_the_criterion_5_pool():
    one = GaussianRational(1)
    seen = 0
    for s in mixed_pool(seed=20_240_817, count=10_000):
        if not is_separable(s):
            continue
        fact = extract_factors(s)
        star = next(n for n in range(8) if s.amps[n])
        for entry in (fact.fy[(star >> 1) & 1], fact.fz[star & 1]):
            assert entry == one and repr(entry) == repr(one) and hash(entry) == hash(one)
        assert fact.amplitudes() == s.amps
        seen += 1
    assert seen > 2000


def test_factorized_z_pencil_algebra():
    """States built as (A.x)(B.y) z0 + (A'.x)(B'.y) z1 with proportional
    primed constants are fully separable, and the proportionality is
    recoverable from the vanishing cross-determinants."""
    rng = random.Random(13)
    for _ in range(200):
        def nz():
            while True:
                v = random_fraction(rng, 6, 3)
                if v:
                    return Fraction(v)

        a0, a1, b0, b1, a0p, b0p = (nz() for _ in range(6))
        # force the two cross-determinant pairs to vanish without naming a
        # common ratio explicitly
        a1p = a0p * a1 / a0
        b1p = b0p * b1 / b0
        A = (a0, a1)
        Ap = (a0p, a1p)
        B = (b0, b1)
        Bp = (b0p, b1p)
        amps = [GaussianRational(0)] * 8
        for i in range(2):
            for j in range(2):
                amps[4 * i + 2 * j + 0] = GaussianRational(A[i] * B[j])
                amps[4 * i + 2 * j + 1] = GaussianRational(Ap[i] * Bp[j])
        s = TripartiteState(tuple(amps), Fraction(1))
        # the four cross determinants in the remaining slots vanish
        assert sub_concurrences2(s) == (0,) * 6
        # the primed/unprimed ratios agree, as the vanishing demands
        assert a0p / a0 == a1p / a1
        assert b0p / b0 == b1p / b1
        assert is_separable(s)
        assert extract_factors(s).amplitudes() == s.amps


def test_decision_matches_oracle_on_mixed_pool():
    separable_seen = entangled_seen = 0
    for s in mixed_pool(seed=101, count=2000):
        lhs = is_separable(s)
        assert lhs == rank1_oracle(s)
        if lhs:
            separable_seen += 1
            assert extract_factors(s).amplitudes() == s.amps
        else:
            entangled_seen += 1
    assert separable_seen > 400 and entangled_seen > 400


def test_kind_selector_rejects_unknown():
    with pytest.raises(ValueError):
        random_tripartite(random.Random(0), "bogus")


def test_exact_rebuild_check_rejects_what_the_eight_position_check_rejects():
    # Called directly, past is_separable: the four positions on the lines
    # through the anchor are identities, so the other four decide alone.
    rng = random.Random(18)
    counts = {"factored": 0, "rejected": 0}
    for s in mixed_pool(seed=101, count=2000):
        for state in (s, perturbed(s, rng)):
            try:
                expected = reference_extract_exact(state)
            except ResidualNonzero:
                with pytest.raises(ResidualNonzero):
                    _extract_exact(state)
                counts["rejected"] += 1
                continue
            assert _extract_exact(state) == expected
            counts["factored"] += 1
    assert min(counts.values()) > 400, counts


def test_minor_table_lists_the_flattening_minors_in_order():
    built = []
    for axis in range(3):
        top, bottom = SLICE_INDEX[2 * axis], SLICE_INDEX[2 * axis + 1]
        built += [(top[p], top[q], bottom[p], bottom[q]) for p, q in _COLUMN_PAIRS]
    assert _MINORS == tuple(built) and len(set(_MINORS)) == 18


def test_rank1_oracle_stops_at_the_first_nonzero_minor(monkeypatch):
    seen = []
    det2 = separability.gauss_det2

    def recording(*cells):
        seen.append(cells)
        return det2(*cells)

    monkeypatch.setattr(separability, "gauss_det2", recording)
    rng = random.Random(19)
    pool = list(mixed_pool(seed=20_240_817, count=10_000))
    stops = set()
    for state in pool + [perturbed(s, rng) for s in pool[:2000]]:
        seen.clear()
        first = reference_first_nonzero_minor(state)
        assert rank1_oracle(state) is (first is None)
        if first is None:
            assert len(seen) == 18
        else:
            k, cells = first
            assert len(seen) == k + 1 and seen[-1] == cells
            stops.add(k)
    assert len(stops) > 6, stops


def test_separable_states_classify_to_seven_exact_zeros():
    # A zero entry is the one shared zero: it compares, hashes and prints
    # as Fraction(0, 1) does.
    zero = Fraction(0, 1)
    zero_vec = ClassificationVector(zero, (zero,) * 6)
    separable_seen = zeros_seen = 0
    for s in mixed_pool(seed=101, count=2000):
        vec = classify(s)
        for v in vec.values2():
            assert type(v) is Fraction
            if not v:
                assert v is _ZERO and v == zero and hash(v) == hash(zero) and str(v) == "0"
                zeros_seen += 1
        if rank1_oracle(s):
            separable_seen += 1
            assert vec.values2() == (zero,) * 7
            assert vec == zero_vec and hash(vec) == hash(zero_vec)
    assert separable_seen > 400 and zeros_seen > 7 * separable_seen
