"""States and unitaries built from their integer pairs, whose values are built on read.

``parse_state``, ``apply_local_3``/``_2``, the residuals of ``collapse``,
``submatrix``, ``state_from_json``, every exact ``randstates`` generator and
the Haar states store a state as its reduced pairs and ``scale2``; ``random_rational_unitary2``,
``random_unitary2``, ``Unitary2.dagger`` and the ``--u1`` JSON reader do the
same for a unitary (``_PairValues._from_pairs``, or its store step
``_from_checked_pairs`` for a residual).  Each must be indistinguishable from
the same value built from its amplitudes or entries by the constructor; every
comparison below starts from a value whose amplitudes or entries were not yet
read.  The values kept on first read (``states._kept``) are computed once and
stored in the instance ``__dict__``.
"""

import hashlib
import json
import pickle
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritangle import (
    AXIS_OUTCOME_ORDER,
    Axis,
    BipartiteState,
    ClassificationVector,
    GaussianRational,
    ImpossibleOutcome,
    NonFinite,
    TripartiteState,
    apply_local_2,
    apply_local_3,
    cayley_det,
    cayley_det_schlafli,
    classify,
    collapse,
    parse_state,
    rank1_oracle,
    state_from_json,
    state_to_json,
    state_to_ket,
    sub_concurrences2,
    submatrix,
)
from tritangle.cli import _unitary_from_json
from tritangle.randstates import (
    mixed_pool,
    random_antipodal_state,
    random_approx_bipartite,
    random_approx_tripartite,
    random_exact_bipartite,
    random_generic_state,
    random_product_state,
    random_qubit_vector,
    random_rotated_product_state,
    random_sparse_state,
)
from tritangle.scalars import _OPS, _ExactOps, is_fraction, ratio_str
from tritangle.states import _kept
from tritangle.unitary import Unitary2, random_rational_unitary2, random_unitary2

from _util import (
    brute_apply_local,
    exact_states,
    reference_approx_state,
    reference_gaussian_rational,
    reference_product_state,
    reference_rational_unitary2,
    reference_unitary2,
)


def _lazy_builds(state, rng):
    """Zero-argument builders, each giving a fresh state or unitary made from pairs."""
    units = [random_rational_unitary2(rng) for _ in range(3)]
    seed = rng.getrandbits(32)
    haar = random_unitary2(seed)
    builds = [
        lambda: parse_state(state_to_ket(state)),
        lambda: apply_local_3(state, *units),
        lambda: apply_local_3(state.to_approx(), *(u.to_approx() for u in units)),
        lambda: state_from_json(state_to_json(state)),
        lambda: state_from_json(state_to_json(state.to_approx())),
        lambda: random_rational_unitary2(random.Random(seed)),
        lambda: units[0].dagger(),
        lambda: random_unitary2(seed),
        lambda: haar.dagger(),
        lambda: _unitary_from_json(_unitary_json(units[1])),
        lambda: _unitary_from_json(_unitary_json(haar)),
    ]
    for s, us in ((state, units), (state.to_approx(), [u.to_approx() for u in units])):
        for axis, outcome in AXIS_OUTCOME_ORDER:
            try:
                post = collapse(s, axis, outcome).post_state
            except ImpossibleOutcome:
                continue
            builds.append(lambda s=s, a=axis, o=outcome: collapse(s, a, o).post_state)
            builds.append(lambda s=s, a=axis, o=outcome: submatrix(s, a, o))
            builds.append(lambda p=post, us=us: apply_local_2(p, us[0], us[1]))
    return builds


def _unitary_json(u):
    """``--u1`` JSON of a unitary: exact entries as "re,im" text, doubles as [re, im]."""
    if u.backend == "exact":
        cells, root = [f"{e.re},{e.im}" for e in u.entries], str(1 / u.scale2)
    else:
        cells, root = [[e.real, e.imag] for e in u.entries], 1 / u.scale2
    return json.dumps({"matrix": [cells[:2], cells[2:]], "sqrt_scale2": root})


def _outcome(make):
    try:
        return make()
    except ValueError as exc:
        return type(exc)


def _check_like_eager(build):
    """Each property of a fresh lazily built state or unitary equals the eager one's."""
    probe = build()
    name = probe._FIELD  # "amps" or "entries"
    assert name not in probe.__dict__
    eager = type(probe)(getattr(probe, name), probe.scale2)
    assert name in probe.__dict__  # built on the first read, then kept

    assert getattr(build(), name) == getattr(eager, name)
    assert build() == eager and eager == build()
    assert hash(build()) == hash(eager)
    assert repr(build()) == repr(eager)
    assert build().backend == eager.backend
    assert build().to_approx() == eager.to_approx()
    if isinstance(eager, Unitary2):
        assert build().dagger() == eager.dagger()
    else:
        assert build().norm2() == eager.norm2()
        if eager.backend == "exact":
            assert build().integer_form == eager.integer_form
        assert state_to_json(build()) == state_to_json(eager)
    back = pickle.loads(pickle.dumps(build()))
    assert back == eager and getattr(back, name) == getattr(eager, name)
    lazy = build()
    assert type(eager)(getattr(lazy, name), lazy.scale2) == eager
    # A unitary rejects a doubled scale2 on both.
    doubled = eager.scale2 * 2
    assert _outcome(lambda: type(eager)(getattr(build(), name), doubled)) == _outcome(
        lambda: type(eager)(getattr(eager, name), doubled)
    )


@settings(deadline=None, max_examples=40)
@given(exact_states(TripartiteState), st.randoms(use_true_random=False))
def test_states_built_from_pairs_equal_eager_states(state, rng):
    for build in _lazy_builds(state, rng):
        _check_like_eager(build)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32))
def test_random_product_states_equal_eager_states(seed):
    _check_like_eager(lambda: random_product_state(random.Random(seed)))


def test_pairs_are_the_stored_value():
    s = parse_state("(2|000> - 4/3i|011> + 6|111>)/sqrt(5)")
    assert s.__dict__ == {"scale2": Fraction(1, 5), "_ops": _ExactOps, "_pairs": (
        ((6, 0), (0, 0), (0, 0), (0, -4), (0, 0), (0, 0), (0, 0), (18, 0)), 3)}
    assert s.backend == "exact"
    assert s.amps[3] == GaussianRational(0, Fraction(-4, 3))
    eager = TripartiteState(s.amps, s.scale2)
    assert eager.__dict__ == dict(s.__dict__, amps=s.amps)  # the pairs stored at construction
    assert eager.amps is s.amps  # the tuple it was handed
    u = random_rational_unitary2(random.Random(3))
    assert Unitary2(u.entries, u.scale2).__dict__["_pairs"] == u._pairs


def _state(backend, text="(|000> + |111>)/sqrt(2)"):
    s = parse_state(text)
    return s if backend == "exact" else s.to_approx()


def _unitary(backend):
    if backend == "exact":
        return random_rational_unitary2(random.Random(8))
    return random_unitary2(np.random.default_rng(8))


#: path -> build(backend): a value built along that path in the named backend.
_PATHS = {
    "constructor": lambda b: TripartiteState(_state(b).amps, _state(b).scale2),
    ".exact/.approx": lambda b: getattr(TripartiteState, b)([1, 0, 0, 0, 0, 0, 0, 1], 2),
    "Unitary2.exact/.approx": lambda b: getattr(Unitary2, b)([[0, 1], [1, 0]]),
    "Unitary2.identity": Unitary2.identity,
    "parser/to_approx": _state,
    "JSON reader": lambda b: state_from_json(state_to_json(_state(b))),
    "random unitary": _unitary,
    "dagger": lambda b: _unitary(b).dagger(),
    "collapse residual": lambda b: collapse(_state(b), Axis.X, 0).post_state,
    "submatrix": lambda b: submatrix(_state(b), Axis.Y, 1),
    "apply_local_3": lambda b: apply_local_3(_state(b), *[_unitary(b)] * 3),
    "apply_local_2": lambda b: apply_local_2(_state(b, "(|00> + 2i|11>)/sqrt(5)"), *[_unitary(b)] * 2),
    "classify": lambda b: classify(_state(b)),
    "vector(int det_abs2)": lambda b: ClassificationVector(0, classify(_state(b)).sub2),
    "ClassificationVector()": lambda b: ClassificationVector(classify(_state(b)).det_abs2, ()),
}


@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize("path", _PATHS)
def test_the_carried_backend_survives_every_path(path, backend):
    value = _PATHS[path](backend)
    assert value.backend == backend and value._ops is _OPS[backend]
    back = pickle.loads(pickle.dumps(value))
    assert back.backend == backend and back._ops is value._ops


def test_an_exact_state_and_its_double_copy_differ_but_hash_alike():
    """Cross-backend value semantics: equal fields are compared as they are, so
    an exact state never equals its double copy; with dyadic real values both
    hash their fields alike."""
    for text in ("(|000> + |111>)/sqrt(2)", "|000> - 3/4|011>", "(|00> + |11>)/sqrt(2)"):
        s = parse_state(text)
        assert s != s.to_approx() and s.to_approx() != s
        assert hash(s) == hash(s.to_approx())


#: Each kept value: its class, its name and a fresh instance that has not computed it.
_KEPT = [
    (TripartiteState, "amps", lambda: parse_state("(2|000> - 4/3i|011> + 6|111>)/sqrt(5)")),
    (TripartiteState, "_weight", lambda: parse_state("2|000> - 4/3i|011>")),
    (TripartiteState, "_slice_dets", lambda: parse_state("(2|000> - 4/3i|011> + 6|111>)/sqrt(5)")),
    (BipartiteState, "amps", lambda: parse_state("|00> + 1/2|11>")),
    (Unitary2, "entries", lambda: random_rational_unitary2(random.Random(3))),
]


@pytest.mark.parametrize("cls, name, fresh", _KEPT, ids=[f"{c.__name__}.{n}" for c, n, _ in _KEPT])
def test_kept_value_is_computed_once_and_stored_under_its_name(cls, name, fresh, monkeypatch):
    kept = getattr(cls, name)
    assert isinstance(kept, _kept) and kept.name == name  # class access: the descriptor
    assert kept.__doc__ == kept.func.__doc__
    calls = []

    def counted(instance):
        calls.append(instance)
        return func(instance)

    func = kept.func
    monkeypatch.setattr(kept, "func", counted)
    value = fresh()
    assert calls == []  # not computed at construction
    first = getattr(value, name)
    assert value.__dict__[name] is first
    assert getattr(value, name) is first and getattr(value, name) is first
    assert calls == [value]
    assert first == func(fresh())


def test_a_state_that_kept_its_values_behaves_like_a_fresh_copy():
    def fresh():
        return apply_local_3(parse_state("(|000> + 2i|011> - 3/2|111>)/sqrt(7)"),
                             *[random_rational_unitary2(random.Random(5))] * 3)

    read = fresh()
    read.amps, read._weight, read.norm2()
    assert {"amps", "_pairs", "_weight"} <= set(read.__dict__)
    for other in (fresh(), TripartiteState(read.amps, read.scale2)):
        assert read == other and other == read and hash(read) == hash(other)
        assert repr(read) == repr(other)
    back = pickle.loads(pickle.dumps(read))
    assert back == fresh() and back.__dict__ == read.__dict__
    assert pickle.loads(pickle.dumps(fresh())) == back
    # classify keeps its vector beside the kept values, and a fresh copy agrees.
    vec = classify(read)
    assert read.__dict__["_classification"] is vec and classify(read) is vec
    assert "_slice_dets" in read.__dict__
    assert vec == classify(fresh()) and read.amps == fresh().amps


def _kernel_states():
    """Fresh states of both backends: entangled, separable and one with zero slices."""
    exact = [
        parse_state("(2|000> - 4/3i|011> + 6|111>)/sqrt(5)"),
        parse_state("(|001> + |010> + |100>)/sqrt(3)"),
        parse_state("(|000> + |001>)/sqrt(2)"),
        random_product_state(random.Random(4)),
        random_generic_state(random.Random(5)),
    ]
    return exact + [s.to_approx() for s in exact] + [random_approx_tripartite(np.random.default_rng(11))]


def test_slice_determinants_are_computed_once_per_state(monkeypatch):
    kept = TripartiteState._slice_dets
    func, calls = kept.func, []
    monkeypatch.setattr(kept, "func", lambda state: calls.append(state) or func(state))
    for state in _kernel_states():
        calls.clear()
        classify(state)
        sub_concurrences2(state)
        cayley_det(state)
        for axis, outcome in AXIS_OUTCOME_ORDER:
            try:
                collapse(state, axis, outcome)
            except ImpossibleOutcome:
                pass
        assert calls == [state]


def test_the_oracles_read_no_kept_kernel_value(monkeypatch):
    """rank1_oracle and cayley_det_schlafli share no arithmetic with classify
    and collapse: they give their values with the kept slice determinants
    made unreadable."""
    expected = [(rank1_oracle(s), cayley_det_schlafli(s)) for s in _kernel_states()]

    def unreadable(state):
        raise LookupError("a kept kernel value was read")

    monkeypatch.setattr(TripartiteState._slice_dets, "func", unreadable)
    for state, (oracle, det) in zip(_kernel_states(), expected):
        assert rank1_oracle(state) == oracle
        assert cayley_det_schlafli(state) == det
        with pytest.raises(LookupError):  # the kernel path does read them
            cayley_det(state)


def test_threads_that_race_on_a_first_read_see_equal_values():
    # No lock: threads that race on a first read each compute an equal value.
    states = [parse_state(f"({n}|000> + 2i|011> - 3/2|111>)/sqrt(7)") for n in range(1, 41)]
    start, seen = threading.Barrier(4, timeout=30), []

    def read():
        start.wait()
        seen.append([(s.amps, s._weight) for s in states])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 4
    assert all(values == seen[0] for values in seen)
    assert seen[0] == [(s.__dict__["amps"], s.__dict__["_weight"]) for s in states]


_NAN = float("nan")


@pytest.mark.parametrize(
    "g, d, scale2, error",
    [
        (((0, 0),) * 8, 1, Fraction(1), ValueError),  # the zero vector
        (((1, 0),) * 8, 1, Fraction(0), ValueError),
        (((1, 0),) * 8, 1, Fraction(-1, 2), ValueError),
        (((1, 0),) * 8, 1, 1, TypeError),  # BackendMismatch: an int scale2
        (((1, 0),) * 8, 1, 0.5, TypeError),
        (((1, 0),) * 7, 1, Fraction(1), ValueError),  # one pair per amplitude
        (((1, 0),) * 9, 1, Fraction(1), ValueError),
        # Double pairs, handed to the constructor as complex values.
        (((0.0, 0.0),) * 8, 1, 1.0, ValueError),  # the zero vector
        (((_NAN, 0.0),) + ((1.0, 0.0),) * 7, 1, 1.0, NonFinite),
        (((1.0, 0.0),) * 8, 1, float("inf"), NonFinite),
        (((_NAN, 1.0),) * 8, 1, 0.0, NonFinite),  # NaN is reported before scale2 = 0
        # A double value that is no number, handed to the constructor as it is.
        ((("a", 0.0),) * 8, 1, 1.0, TypeError),
        (((None, 0.0),) * 8, 1, 1.0, TypeError),
        (((_NAN, 0.0), ("a", 0.0)) + ((1.0, 0.0),) * 6, 1, 1.0, NonFinite),  # in value order
    ],
)
def test_from_pairs_checks_the_constructor_invariants(g, d, scale2, error):
    # Int pairs are exact, any other are doubles.
    if isinstance(g[0][0], int):
        ops, values = _OPS["exact"], tuple(GaussianRational(re, im) for re, im in g)
    else:
        ops, values = _OPS["approx"], tuple(complex(re, im) if isinstance(re, float) else re for re, im in g)
    with pytest.raises(error) as from_pairs:
        TripartiteState._from_pairs(ops, g, d, scale2)
    with pytest.raises(error) as constructed:
        TripartiteState(values, scale2)
    assert type(constructed.value) is type(from_pairs.value)
    assert str(constructed.value) == str(from_pairs.value)


def test_double_from_pairs_rejects_nonfinite_parts():
    for g in (((float("inf"), 0.0),) + ((1.0, 0.0),) * 3, ((float("nan"), 1.0),) * 4):
        with pytest.raises(NonFinite):
            BipartiteState._from_pairs(_OPS["approx"], g, 1, 1.0)
    with pytest.raises(NonFinite):
        BipartiteState._from_pairs(_OPS["approx"], ((1.0, 0.0),) * 4, 1, float("inf"))


_BIG = 10**600 + 7


@pytest.mark.parametrize(
    "num, den",
    [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 3), (-6, 4), (6, 4), (-1, 3),
     (_BIG, 1), (-_BIG, 3), (3 * _BIG, 9), (_BIG, _BIG + 2), (-(10**600), 10**601)],
)
def test_ratio_str_is_str_of_fraction(num, den):
    assert ratio_str(num, den) == str(Fraction(num, den))


def test_state_to_json_from_ints_writes_the_fraction_strings():
    parts = (0, Fraction(-3, 4), 5, Fraction(-7), Fraction(_BIG, 3), Fraction(-1, _BIG), 1, 2)
    amps = tuple(GaussianRational(parts[n], parts[7 - n]) for n in range(8))
    for state in (TripartiteState(amps, Fraction(2, 3)), apply_local_3(
            TripartiteState(amps, Fraction(2, 3)), *[random_rational_unitary2(random.Random(1))] * 3)):
        record = state_to_json(state)
        assert record["amps"] == [[str(a.re), str(a.im)] for a in state.amps]
        assert record["scale2"] == str(state.scale2)


def test_is_fraction_agrees_with_isinstance():
    np = pytest.importorskip("numpy")

    class Sub(Fraction):
        pass

    for value in (Fraction(1, 3), Sub(2, 5), 0.5, 1, True, 1 + 2j, np.float64(0.5), "1/2"):
        assert is_fraction(value) == isinstance(value, Fraction)


def _old_qubit_vector(rng):
    while True:
        v = (reference_gaussian_rational(rng, 4), reference_gaussian_rational(rng, 4))
        if v[0] or v[1]:
            return v


def _old_nonzero(rng):
    while True:
        g = reference_gaussian_rational(rng, 4)
        if g:
            return g


def _old_vector(cls, rng):
    while True:
        amps = tuple(reference_gaussian_rational(rng) for _ in range(cls.N_VALUES))
        if any(amps):
            return cls(amps, Fraction(1))


def _old_sparse(rng):
    support = rng.sample(range(8), rng.randint(1, 8))
    amps = [GaussianRational(0)] * 8
    for idx in support:
        amps[idx] = _old_nonzero(rng)
    return TripartiteState(tuple(amps), Fraction(1))


def _old_antipodal(rng):
    idx = rng.randrange(8)
    amps = [GaussianRational(0)] * 8
    amps[idx] = _old_nonzero(rng)
    amps[7 - idx] = _old_nonzero(rng)
    return TripartiteState(tuple(amps), Fraction(1))


def _old_rotated_product(rng):
    state = reference_product_state(rng)
    return brute_apply_local(state, [reference_rational_unitary2(rng) for _ in range(3)])


#: Each exact generator and the GaussianRational construction it replaced.
_OLD_GENERATORS = [
    (random_product_state, reference_product_state),
    (random_generic_state, lambda rng: _old_vector(TripartiteState, rng)),
    (random_sparse_state, _old_sparse),
    (random_antipodal_state, _old_antipodal),
    (random_rotated_product_state, _old_rotated_product),
    (random_exact_bipartite, lambda rng: _old_vector(BipartiteState, rng)),
]


def test_pool_draws_on_ints_give_the_old_values():
    for seed in range(20):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert random_qubit_vector(new) == _old_qubit_vector(old)
        assert new.random() == old.random()  # the same number of draws
        for generate, old_generate in _OLD_GENERATORS:
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(10):
                state, expected = generate(new), old_generate(old)
                assert "amps" not in state.__dict__  # built from its pairs
                assert state.amps == expected.amps and state.scale2 == expected.scale2
                assert state.integer_form == expected.integer_form
            assert new.random() == old.random()


#: Each Haar sampler, the construction it replaced and the field of the
#: entries or amplitudes, which a value stored from its pairs builds on read.
_OLD_HAAR = [
    (random_unitary2, reference_unitary2, "entries"),
    (random_approx_tripartite, lambda rng: reference_approx_state(TripartiteState, rng), "amps"),
    (random_approx_bipartite, lambda rng: reference_approx_state(BipartiteState, rng), "amps"),
]


def test_haar_draws_give_the_old_values():
    for seed in (0, 7, 424242):
        for generate, old_generate, field in _OLD_HAAR:
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(500):
                value, expected = generate(new), old_generate(old)
                assert field not in value.__dict__  # stored from its pairs
                assert repr(getattr(value, field)) == repr(getattr(expected, field))
                assert repr(value.scale2) == repr(expected.scale2)
                assert new.random() == old.random()  # the same number of draws
        # An int seed: a new generator each call.
        for n in range(500):
            value, expected = random_unitary2(seed + n), reference_unitary2(seed + n)
            assert repr(value.entries) == repr(expected.entries)
            assert repr(value.scale2) == repr(expected.scale2)


def test_int_values_of_a_double_value_are_stored_as_doubles():
    for value, floats in [
        (TripartiteState((1,) * 8, 1.0), TripartiteState((1.0,) * 8, 1.0)),
        (TripartiteState((True, -3) + (0,) * 6, 1.0), TripartiteState((1.0, -3.0) + (0.0,) * 6, 1.0)),
        (Unitary2((0, 1, -1, 0), 1.0), Unitary2((0.0, 1.0, -1.0, 0.0), 1.0)),
        # A numpy integer would wrap: 2^40 squared is 2^80.
        (TripartiteState(np.array([2**40] + [0] * 7), 1.0), TripartiteState((2.0**40,) + (0.0,) * 7, 1.0)),
    ]:
        assert value._ops is floats._ops and value._pairs == floats._pairs
        assert all(type(part) is float for pair in value._pairs[0] for part in pair)


def test_an_int_value_beyond_the_double_range_is_non_finite():
    for values in ((10**400,) + (0,) * 7, (1,) * 7 + (-(10**400),)):
        with pytest.raises(NonFinite, match="an int value is beyond the double range"):
            TripartiteState(values, 1.0)


#: sha256 of the kets of the first 300 states of ``mixed_pool(20240817)``,
#: as drawn through ``Fraction`` and ``GaussianRational`` before the draws
#: moved to ints.
POOL_DIGEST = "93e2486c8644c71f4f3ed8583fdb8d0f6cdd727b074ff39066b1e1a77d9c7673"


def test_mixed_pool_is_unchanged():
    kets = "\n".join(state_to_ket(s) for s in mixed_pool(20240817, 300))
    assert hashlib.sha256(kets.encode()).hexdigest() == POOL_DIGEST
