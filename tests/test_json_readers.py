"""The JSON readers on int pairs against the readers they replaced.

``state_from_json`` and the command line's ``--u1`` reader read each
rational part once into ``(num, den)`` and build their value from its pairs.
The readers they replaced (``_util.reference_state_from_json`` and
``_util.reference_unitary_from_json``) built ``GaussianRational``s through
``Fraction(str(x))`` and called the constructor.  On every drawn input both
must give an equal state or unitary, or raise the same exception type, and
``cli.main`` must exit with the same code through either.
"""

import contextlib
import io
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import NonFinite, cli, random_rational_unitary2, random_unitary2, state_to_json
from tritangle.randstates import random_exact_bipartite, random_tripartite
from tritangle.states import _json_float, _json_part, state_from_json

from _util import reference_state_from_json, reference_unitary_from_json

#: Rational text as ``Fraction`` reads it or rejects it.
TEXTS = [" 3/4 ", "0.5", "1e3", "-2", "+1/2", "3/-4", "1/0", "0/5", "x", "", " ", "inf",
         "nan", "1_000", "\t5\n", "1.5e-3", "3/4i", "0x10", " 7"]
#: Text cells: one part, "re,im", and two commas.
TEXT_CELLS = TEXTS + ["1,2", " 1/2 , -3/4 ", "0,1", "1,", ",1", "1,2,3", "1/0,1", "a,b", ","]

parts = st.one_of(
    st.integers(-10**30, 10**30),
    st.floats(),  # NaN and the infinities included
    st.sampled_from(TEXTS),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-99, 99), st.integers(-3, 9)),
    st.sampled_from([True, False, None, [1], [1, 2], [[1, 2]], {"re": 1}]),
)
cells = st.one_of(
    st.sampled_from(TEXT_CELLS), parts, st.lists(parts, max_size=3)
)
odd_roots = st.one_of(
    st.sampled_from([0, -1, 0.0, -1.0, "1/0", True, None, "2", 2.0, "-4", " 9/4 ",
                     float("inf"), float("nan"), [2]]),
    parts,
)


def _exact_cell(e, style):
    if style == "text":
        return f"{e.re},{e.im}" if e.im else str(e.re)
    if style == "int" and e.re.denominator == e.im.denominator == 1:
        return [int(e.re), int(e.im)] if e.im else int(e.re)
    if style == "float":
        return [float(e.re), float(e.im)]
    return [str(e.re), str(e.im)]


@st.composite
def unitary_texts(draw):
    """``--u1`` JSON of an exact or Haar unitary in one of the accepted
    layouts, then perhaps with one cell, the root or the shape changed."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        u = random_rational_unitary2(random.Random(seed))
        style = draw(st.sampled_from(["text", "int", "float", "str"]))
        matrix = [_exact_cell(e, style) for e in u.entries]
        root = 1 / u.scale2
        root = draw(st.sampled_from([str(root), float(root)] + (
            [int(root)] if root.denominator == 1 else [])))
    else:
        matrix = [[z.real, z.imag] for z in random_unitary2(seed).entries]
        root = 1.0
    matrix = [matrix[:2], matrix[2:]]
    change = draw(st.sampled_from(["none", "cell", "root", "both", "shape", "bare"]))
    if change in ("cell", "both"):
        matrix[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(cells)
    if change in ("root", "both"):
        root = draw(odd_roots)
    if change == "shape":
        matrix[draw(st.integers(0, 1))].append(draw(cells))
    obj = {"matrix": matrix, "sqrt_scale2": root}
    if draw(st.booleans()) and root == 1:
        obj = matrix if draw(st.booleans()) else {"matrix": matrix}
    if change == "bare":
        obj = draw(st.one_of(parts, st.just({"sqrt_scale2": 2})))
    return json.dumps(obj)


@st.composite
def state_objs(draw):
    """State JSON of an exact state or its doubles, then perhaps with one
    amplitude, scale2, the backend or the count changed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    state = random_tripartite(rng) if draw(st.booleans()) else random_exact_bipartite(rng)
    if draw(st.booleans()):
        state = state.to_approx()
    obj = state_to_json(state)
    change = draw(st.sampled_from(["none", "amp", "scale2", "backend", "drop", "count"]))
    if change == "amp":
        n = draw(st.integers(0, len(obj["amps"]) - 1))
        obj["amps"][n] = draw(st.one_of(st.lists(parts, min_size=2, max_size=2), cells))
    elif change == "scale2":
        obj["scale2"] = draw(odd_roots)
    elif change == "backend":
        obj["backend"] = draw(st.sampled_from(["exact", "approx", "float", None]))
    elif change == "drop":
        del obj[draw(st.sampled_from(["scale2", "backend"]))]
    elif change == "count":
        del obj["amps"][-1]
    return obj


def _outcome(read, arg):
    try:
        return read(arg)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


def _same(new, old):
    """The same value, or the same exception type."""
    assert type(new) is type(old), (new, old)
    if isinstance(new, type):
        assert new is old, (new, old)
    else:
        assert new == old and new.backend == old.backend


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a traceback, compared by type
            return type(exc)


@settings(deadline=None, max_examples=400)
@given(unitary_texts(), st.booleans())
@example('{"matrix": [[" 3/4 ", "0.5"], ["1e3", "1,2"]], "sqrt_scale2": 2}', False)
@example('{"matrix": [["1,2,3", 0], [0, 1]]}', False)
@example('{"matrix": [["1/0", 0], [0, 1]]}', False)
@example('{"matrix": [[true, 0], [0, 1]]}', False)
@example('{"matrix": [[true, 0], [0, 1.0]]}', True)
@example('{"matrix": [[null, 0], [0, 1]]}', False)
@example('{"matrix": [[[[1], 0], 0], [0, 1]]}', False)
@example('{"matrix": [[1, 0], [0, 1]], "sqrt_scale2": 0}', False)
@example('{"matrix": [[1, 0], [0, 1]], "sqrt_scale2": -1}', False)
@example('{"matrix": [[1, 0], [0, 1]], "sqrt_scale2": 0.0}', True)
@example('{"matrix": [["1", "1"], ["-1", "1"]], "sqrt_scale2": 2}', True)
@example('{"matrix": [[Infinity, 0], [0, 1]]}', True)
@example('{"matrix": [["inf", 0], [0, 1.0]]}', True)
def test_unitary_reader_matches_the_scalar_reader(text, float_mode):
    _same(_outcome(cli._unitary_from_json, text), _outcome(reference_unitary_from_json, text))
    argv = ["transform", "--json", "|000>", f"--u1={text}"] + (["--float"] if float_mode else [])
    code = _exit_code(argv)
    with mock.patch.object(cli, "_unitary_from_json", reference_unitary_from_json):
        assert code == _exit_code(argv)


_NAN_ZERO = {"amps": [["nan", 0]] + [[0, 0]] * 6 + [[1, 0]], "scale2": 0, "backend": "approx"}


@settings(deadline=None, max_examples=400)
@given(state_objs())
@example(_NAN_ZERO)
@example({"amps": [[" 3/4 ", "0.5"], ["1e3", 0], ["1/0", 0], [0, 0]]})
@example({"amps": [[True, 0], [None, 0], [[1], 0], [0, 1]], "backend": "approx"})
@example({"amps": [[1, 0], [0, 0], [0, 0], [0, 0]], "scale2": "1/0"})
@example({"amps": [[1, 0], [0, 0], [0, 0], [0, 0]], "scale2": -1})
@example({"amps": [[1, 0], [0, 0], [0, 0], [0, 0]], "scale2": 0.0, "backend": "approx"})
@example({"amps": [[0, 0]] * 8})
@example("abc")  # the shapes below are not a state object with an amplitude list
@example(5)
@example([1, 2])
@example({"amps": 5})
@example({"amps": None})
@example({"amps": dict.fromkeys(["10", "01", "00", "11"], 0)})
@example({})
def test_state_reader_matches_the_scalar_reader(tmp_path_factory, obj):
    _same(_outcome(state_from_json, obj), _outcome(reference_state_from_json, obj))
    path = tmp_path_factory.getbasetemp() / "state.json"
    path.write_text(json.dumps(obj))
    argv = ["classify", "--json", "--json-state", str(path)]
    code = _exit_code(argv)
    with mock.patch.object(cli, "state_from_json", reference_state_from_json):
        assert code == _exit_code(argv)


def test_nan_with_zero_scale2_reports_the_nan():
    """Non-finite values come before a scale2 that is not positive, on both paths."""
    assert _outcome(state_from_json, _NAN_ZERO) is NonFinite
    assert _outcome(reference_state_from_json, _NAN_ZERO) is NonFinite


@pytest.mark.parametrize(
    "literal, below",
    [("1e-400", True), ("-2.5E-999", True), ("0.001e-322", True), ("5e-324", False),
     ("0.0", False), ("-0.0", False), ("0e5", False), ("0.000E-400", False),
     ("-0.0e-999", False), ("1.5", False), ("1e400", False)],
)
def test_float_literals_read_as_json_reads_them(literal, below):
    # The hook differs from json.loads only in the type of a nonzero literal
    # below the double range, so an exact reader, on str(value), is unchanged.
    hooked, plain = json.loads(literal, parse_float=_json_float), json.loads(literal)
    assert str(hooked) == str(plain) and math.copysign(1, hooked) == math.copysign(1, plain)
    assert (type(hooked) is not float) == below
    if below:
        with pytest.raises(NonFinite, match=f"the JSON number {literal} is below the double range"):
            _json_part(hooked, False)
    else:
        assert str(_json_part(hooked, False)) == str(plain)
    if math.isfinite(plain):
        assert _json_part(hooked, True) == _json_part(plain, True)
