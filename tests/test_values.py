"""The immutable value classes: construction, equality, hash, repr, pickling.

Each case builds a value twice, independently, so that equal values are
distinct objects.  The expected reprs are the text these values printed when
they were frozen dataclasses; the CLI and the benchmark digests print them.
"""

import pickle
from fractions import Fraction

import pytest

from tritangle import (
    Axis,
    BackendMismatch,
    BipartiteState,
    EmptyState,
    GaussianRational,
    MixedArity,
    TripartiteState,
    Unitary2,
    classify,
    collapse,
    parse_state,
)
from tritangle.catalog import (
    CLUSTER_EXPR,
    TABLE_ROWS,
    TableRow,
    ghz_to_psi_unitary,
    product_state_example,
)
from tritangle.hyperdet import ClassificationVector
from tritangle.ketparser import KetExpr, parse
from tritangle.measurement import CollapseResult
from tritangle.separability import Factorization, extract_factors

G = "GaussianRational"
#: name -> (build, field names, repr)
CASES = {
    "tripartite-from-pairs": (
        lambda: parse_state("(|000> + |111>)/sqrt(2)"),
        ("amps", "scale2"),
        f"TripartiteState(amps=({G}(1, 0), {G}(0, 0), {G}(0, 0), {G}(0, 0), {G}(0, 0), "
        f"{G}(0, 0), {G}(0, 0), {G}(1, 0)), scale2=Fraction(1, 2))",
    ),
    "tripartite-exact": (
        lambda: TripartiteState.exact(
            (1, 0, 0, (0, 1), 0, 0, 0, Fraction(-1, 2)), Fraction(2, 3)
        ),
        ("amps", "scale2"),
        f"TripartiteState(amps=({G}(1, 0), {G}(0, 0), {G}(0, 0), {G}(0, 1), {G}(0, 0), "
        f"{G}(0, 0), {G}(0, 0), {G}(-1/2, 0)), scale2=Fraction(2, 3))",
    ),
    "tripartite-approx": (
        lambda: TripartiteState.approx((0.5, 0, 0, 0, 0, 0, 0, 1j), 2.0),
        ("amps", "scale2"),
        "TripartiteState(amps=((0.5+0j), 0j, 0j, 0j, 0j, 0j, 0j, 1j), scale2=2.0)",
    ),
    "bipartite-exact": (
        lambda: BipartiteState.exact((1, 0, 0, 1), Fraction(1, 2)),
        ("amps", "scale2"),
        f"BipartiteState(amps=({G}(1, 0), {G}(0, 0), {G}(0, 0), {G}(1, 0)), "
        "scale2=Fraction(1, 2))",
    ),
    "bipartite-approx": (
        lambda: BipartiteState.approx((1.0, 0, 0, 0.25), 1.0),
        ("amps", "scale2"),
        "BipartiteState(amps=((1+0j), 0j, 0j, (0.25+0j)), scale2=1.0)",
    ),
    "unitary-exact": (
        ghz_to_psi_unitary,
        ("entries", "scale2"),
        f"Unitary2(entries=({G}(1, 0), {G}(1, 0), {G}(-1, 0), {G}(1, 0)), "
        "scale2=Fraction(1, 2))",
    ),
    "unitary-approx": (
        lambda: Unitary2.approx([[0, 1], [1, 0]]),
        ("entries", "scale2"),
        "Unitary2(entries=(0j, (1+0j), (1+0j), 0j), scale2=1.0)",
    ),
    "vector-exact": (
        lambda: classify(parse_state("|001> + 2|010> + |100> + |111>")),
        ("det_abs2", "sub2"),
        "ClassificationVector(det_abs2=Fraction(64, 2401), sub2=(Fraction(4, 49), "
        "Fraction(1, 49), Fraction(1, 49), Fraction(4, 49), Fraction(4, 49), "
        "Fraction(1, 49)))",
    ),
    "vector-approx": (
        lambda: classify(parse_state("|001> + 2|010> + |100>").to_approx()),
        ("det_abs2", "sub2"),
        "ClassificationVector(det_abs2=0.0, sub2=(0.1111111111111111, 0.0, "
        "0.027777777777777776, 0.0, 0.1111111111111111, 0.0))",
    ),
    "factorization": (
        lambda: extract_factors(product_state_example()),
        ("fx", "fy", "fz"),
        f"Factorization(fx=({G}(3, 0), {G}(6, 0)), fy=({G}(1, 0), {G}(-1/3, 0)), "
        f"fz=({G}(1, 0), {G}(1, 0)))",
    ),
    "collapse": (
        lambda: collapse(parse_state("1/2(|000> + |011> + |101> + |110>)"), Axis.X, 0),
        ("prob", "post_state", "concurrence2"),
        f"CollapseResult(prob=Fraction(1, 2), post_state=BipartiteState(amps=({G}(1/2, 0), "
        f"{G}(0, 0), {G}(0, 0), {G}(1/2, 0)), scale2=Fraction(1, 1)), "
        "concurrence2=Fraction(1, 1))",
    ),
    "ketexpr": (
        lambda: parse("(1/2|000> - i|111> + 3/4i|011>)/sqrt(5)"),
        ("terms", "global_divisor"),
        f"KetExpr(terms=(({G}(1/2, 0), '000'), ({G}(0, -1), '111'), ({G}(0, 3/4), '011')), "
        "global_divisor=5)",
    ),
    "tablerow": (
        lambda: TableRow("cluster", CLUSTER_EXPR, (1, 1, 0, 1, 1, 0, 1)),
        ("name", "expression", "quoted"),
        "TableRow(name='cluster', expression='(|000>+|001>+|100>+|101>+|010>-|011>-|110>"
        "+|111>)/sqrt(8)', quoted=(1, 1, 0, 1, 1, 0, 1))",
    ),
}
CLASSES = {TripartiteState, BipartiteState, Unitary2, ClassificationVector, Factorization,
           CollapseResult, KetExpr, TableRow}
ids = pytest.mark.parametrize("case", list(CASES))


def test_every_value_class_has_a_case():
    assert {type(build()) for build, _, _ in CASES.values()} == CLASSES
    assert CASES["tablerow"][0]() == TABLE_ROWS[3]


@ids
def test_repr_is_the_dataclass_text(case):
    build, _, text = CASES[case]
    assert repr(build()) == text
    assert str(build()) == text


@ids
def test_equal_values_hash_alike(case):
    build = CASES[case][0]
    a, b = build(), build()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1


@ids
def test_equal_only_to_its_own_class(case):
    build, names, _ = CASES[case]
    value = build()
    fields = tuple(getattr(value, name) for name in names)
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    assert value != object()


def test_a_unitary_never_equals_a_bipartite_state_with_its_values():
    u = Unitary2.identity()
    s = BipartiteState(u.entries, u.scale2)
    assert u.entries == s.amps and u.scale2 == s.scale2
    assert u != s and s != u


@ids
def test_fields_cannot_be_set_or_deleted(case):
    build, names, _ = CASES[case]
    value = build()
    before = repr(value)
    for name in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@ids
def test_pickle_round_trip(case):
    build = CASES[case][0]
    value = build()
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)


@ids
def test_positional_and_keyword_construction(case):
    build, names, _ = CASES[case]
    value = build()
    fields = [getattr(value, name) for name in names]
    cls = type(value)
    assert cls(*fields) == value
    assert cls(**dict(zip(names, fields))) == value
    assert cls(*fields[:1], **dict(zip(names[1:], fields[1:]))) == value


def test_defaults():
    amps = TripartiteState.exact((1,) * 8).amps
    assert TripartiteState(amps).scale2 == Fraction(1)
    assert BipartiteState(amps[:4]).scale2 == Fraction(1)
    assert Unitary2(Unitary2.identity().entries).scale2 == Fraction(1)
    assert ClassificationVector(0, (0,) * 6).backend == "exact"  # ints are exact entries
    assert KetExpr(((GaussianRational(1), "000"),)).global_divisor == 1
    # The exact default scale2 refuses double values, keyword or not.
    with pytest.raises(BackendMismatch):
        TripartiteState(amps=(1j,) * 8)


def test_constructor_checks_still_run():
    one = GaussianRational(1)
    with pytest.raises(EmptyState):
        KetExpr(())
    with pytest.raises(MixedArity):
        KetExpr(terms=((one, "000"), (one, "01")))
    with pytest.raises(ValueError, match="positive integer"):
        KetExpr(((one, "000"),), 0)
    with pytest.raises(BackendMismatch):
        TripartiteState((one,) * 7 + (1j,), Fraction(1))
    with pytest.raises(BackendMismatch):
        BipartiteState(amps=(one,) * 4, scale2=1.0)
    with pytest.raises(ValueError, match="zero vector"):
        TripartiteState((GaussianRational(0),) * 8)
    with pytest.raises(ValueError, match="zero vector"):
        BipartiteState(amps=(0j,) * 4, scale2=1.0)
    with pytest.raises(ValueError, match="expected 8 values"):
        TripartiteState((one,) * 4)
    with pytest.raises(ValueError, match="not unitary"):
        Unitary2((one, one, one, one), Fraction(1, 2))
    with pytest.raises(ValueError, match="not unitary"):
        Unitary2(entries=(0.7 + 0j, 0.7 + 0j, 0.7 + 0j, 0.7 + 0j), scale2=1.0)


def _ghz_amps():
    one, zero = GaussianRational(1), GaussianRational(0)
    return [one] + [zero] * 6 + [one]


@pytest.mark.parametrize(
    "build, fields",
    [
        (lambda seq: TripartiteState(seq(_ghz_amps()), Fraction(1, 2)), ("amps",)),
        (lambda seq: BipartiteState(seq(_ghz_amps()[:2] * 2), Fraction(1, 2)), ("amps",)),
        (lambda seq: TripartiteState(seq([0.5, 0, 0, 0, 0, 0, 0, 1j]), 2.0), ("amps",)),
        (lambda seq: Unitary2(seq(Unitary2.identity().entries)), ("entries",)),
        (lambda seq: ClassificationVector(Fraction(0), seq([Fraction(0)] * 6)), ("sub2",)),
        (lambda seq: Factorization(seq([1, 0]), seq([1, 0]), seq([1, 0])), ("fx", "fy", "fz")),
        (lambda seq: TableRow("W", "|001>", seq([0, 1, 1, 1, 0, 0, 0])), ("quoted",)),
    ],
    ids=["tripartite-exact", "bipartite-exact", "tripartite-approx", "unitary",
         "classification", "factorization", "table-row"],
)
@pytest.mark.parametrize("seq", [list, lambda v: iter(list(v))], ids=["list", "iterator"])
def test_constructors_store_a_tuple(build, fields, seq):
    value = build(seq)
    same = build(tuple)
    assert all(type(getattr(value, name)) is tuple for name in fields)
    assert value == same and hash(value) == hash(same)


def test_a_double_state_from_a_numpy_array_equals_one_from_a_tuple():
    import numpy as np

    amps = (0.5, 0, 0, 0, 0, 0, 0, 1j)
    state = TripartiteState(np.array(amps), 2.0)
    assert state == TripartiteState.approx(amps, 2.0)
    assert hash(state) == hash(TripartiteState.approx(amps, 2.0))


def test_changing_the_list_after_classify_changes_neither_amps_nor_classification():
    amps = _ghz_amps()
    state = TripartiteState(amps, Fraction(1, 2))
    before = classify(state)
    amps[7] = GaussianRational(0)
    assert state.amps == tuple(_ghz_amps())
    assert classify(state) == before == classify(TripartiteState(tuple(_ghz_amps()), Fraction(1, 2)))


def test_ket_expr_rejects_what_render_and_to_state_cannot_read():
    one = GaussianRational(1)
    with pytest.raises(TypeError, match="global divisor must be an int"):
        KetExpr(((one, "000"),), 2.5)
    with pytest.raises(TypeError, match="global divisor must be an int"):
        KetExpr(((one, "000"),), True)
    for label in ("0a0", "0000", "0", "", b"000", 0):
        with pytest.raises(ValueError, match="a label must be 2 or 3 characters"):
            KetExpr(((one, label),))
    for coeff in (1, Fraction(1), 1.0, 1j):
        with pytest.raises(TypeError, match="a coefficient must be a GaussianRational"):
            KetExpr(((coeff, "000"),))
    with pytest.raises(EmptyState, match="every coefficient is zero"):
        KetExpr(((GaussianRational(0), "000"), (GaussianRational(0), "111")), 2)
    # A list of terms is stored as a tuple.
    assert KetExpr([(one, "000")]) == KetExpr(((one, "000"),))
