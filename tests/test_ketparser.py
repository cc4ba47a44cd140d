"""Ket-expression parsing: grammar coverage, errors, round trips, fuzz."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tritangle import (
    BipartiteState,
    EmptyState,
    GaussianRational,
    KetExpr,
    KetSyntaxError,
    MixedArity,
    TripartiteState,
    TritangleError,
    UnsupportedIrrational,
    parse,
    parse_state,
    render,
    state_to_ket,
    to_state,
)
from tritangle.ketparser import _read
from tritangle.scalars import _OPS

from _util import (
    BIG,
    TermParser,
    exact_states,
    reference_ket,
    reference_parse,
    reference_parse_state,
    reference_parse_terms,
    reference_render,
    same_physical_state,
    wide_scalars,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_ghz_expression():
    s = parse_state("(|000> + |111>)/sqrt(2)")
    assert isinstance(s, TripartiteState)
    assert s.amps == (gr(1), gr(0), gr(0), gr(0), gr(0), gr(0), gr(0), gr(1))
    assert s.scale2 == Fraction(1, 2)
    assert s.norm2() == 1


def test_psi_expression_group_coefficient():
    s = parse_state("1/2(|100>+|010>+|001>+|111>)")
    expected = (0, Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert s.amps == tuple(gr(v) for v in expected)
    assert s.norm2() == 1


def test_w_expression_sqrt_prefactor():
    s = parse_state("1/sqrt(3)(|001>+|100>+|010>)")
    assert s.amps == tuple(gr(v) for v in (0, 1, 1, 0, 1, 0, 0, 0))
    assert s.scale2 == Fraction(1, 3)


def test_cluster_expression_eight_signed_terms():
    e = parse("(|000>+|001>+|100>+|101>+|010>-|011>-|110>+|111>)/sqrt(8)")
    assert len(e.terms) == 8
    assert e.global_divisor == 8
    s = to_state(e)
    assert s.amp(0, 1, 1) == gr(-1)
    assert s.amp(1, 1, 1) == gr(1)
    assert s.norm2() == 1


def test_complex_coefficients():
    s = parse_state("i/2|01> - 1/2|10>")
    assert isinstance(s, BipartiteState)
    assert s.amps == (gr(0), gr(0, Fraction(1, 2)), gr(Fraction(-1, 2)), gr(0))


def test_coefficient_forms():
    assert parse_state("2*|00>").amps[0] == gr(2)
    assert parse_state("3i|01>").amps[1] == gr(0, 3)
    assert parse_state("1/2i|01>").amps[1] == gr(0, Fraction(1, 2))
    assert parse_state("i|01>").amps[1] == gr(0, 1)
    assert parse_state("-|00>+|11>").amps[0] == gr(-1)
    assert parse_state("3/4|10>").amps[2] == gr(Fraction(3, 4))


def test_duplicate_kets_merge():
    s = parse_state("|00>+|00>")
    assert s.amps[0] == gr(2)


def test_all_terms_cancel():
    with pytest.raises(EmptyState):
        parse("(|00> - |00>)")


def test_mixed_arity_rejected():
    with pytest.raises(MixedArity):
        parse("|00> + |000>")


def test_per_term_sqrt_shared():
    s = parse_state("1/sqrt(2)|00> + 1/sqrt(2)|11>")
    assert s.amps == (gr(1), gr(0), gr(0), gr(1))
    assert s.scale2 == Fraction(1, 2)


def test_per_term_sqrt_compatible_radicals():
    # sqrt(8)/sqrt(2) is the perfect square 4, so both fold over sqrt(8)
    s = parse_state("1/sqrt(2)|00> + 1/sqrt(8)|11>")
    assert s.amps == (gr(2), gr(0), gr(0), gr(1))
    assert s.scale2 == Fraction(1, 8)


def test_incompatible_radicals_rejected():
    with pytest.raises(UnsupportedIrrational):
        parse("1/sqrt(2)|00> + 1/2|11>")
    with pytest.raises(UnsupportedIrrational):
        parse("1/sqrt(2)|00> + 1/sqrt(3)|11>")


def test_syntax_errors_carry_offsets():
    with pytest.raises(KetSyntaxError) as err:
        parse("|00")
    assert err.value.offset == 3
    with pytest.raises(KetSyntaxError) as err:
        parse("|00> + @")
    assert err.value.offset == 7
    with pytest.raises(KetSyntaxError) as err:
        parse("(|00>+|11>)/2")
    assert err.value.offset == 12
    assert "sqrt" in err.value.expected


@pytest.mark.parametrize(
    "template, offset",
    [("{}|000>", 0), ("1/{}|01>", 2), ("|00> - {}i|11>", 7), ("(|000>+|111>)/sqrt({})", 19)],
    ids=["numerator", "denominator", "imaginary", "sqrt"],
)
def test_literal_past_the_int_digit_limit_is_a_syntax_error(template, offset):
    text = template.format("1" * 5000)
    for parser in (parse, parse_state):
        with pytest.raises(KetSyntaxError) as err:
            parser(text)
        assert err.value.offset == offset


def test_more_syntax_errors():
    for bad in ("", ")", "|0000>", "|02>", "1/0|00>", "sqrt(2)", "foo", "(|00>", "|00>)"):
        with pytest.raises(KetSyntaxError):
            parse(bad)


def test_group_divisor_must_be_positive():
    with pytest.raises(KetSyntaxError):
        parse("(|00>+|11>)/sqrt(0)")


def test_render_round_trip_catalog():
    from tritangle.catalog import TABLE_ROWS

    for row in TABLE_ROWS:
        expr = parse(row.expression)
        again = parse(render(expr))
        assert to_state(again) == to_state(expr)


@st.composite
def ket_exprs(draw):
    arity = draw(st.sampled_from((2, 3)))
    basis = [format(v, f"0{arity}b") for v in range(1 << arity)]
    n_terms = draw(st.integers(1, 1 << arity))
    labels = draw(st.permutations(basis))[:n_terms]
    fracs = st.fractions(max_denominator=9)
    terms = []
    for bits in labels:
        c = GaussianRational(draw(fracs), draw(fracs))
        if not c:
            c = GaussianRational(1)
        terms.append((c, bits))
    divisor = draw(st.sampled_from((1, 2, 3, 5, 8)))
    from tritangle import KetExpr

    return KetExpr(tuple(terms), divisor)


@given(ket_exprs())
def test_render_round_trip_generated(expr):
    assert render(expr) == reference_render(expr.terms, expr.global_divisor)
    reparsed = parse(render(expr))
    assert to_state(reparsed) == to_state(expr)


def test_state_to_ket_round_trip():
    from tritangle.catalog import ghz_state, w_state

    for s in (ghz_state(), w_state()):
        assert parse_state(state_to_ket(s)) == s


def test_state_to_ket_non_square_scale2():
    from _util import same_physical_state

    # prefactor sqrt(2/3): numerator is not a perfect square
    s = TripartiteState.exact((1, 0, 0, -2, 0, 0, 0, 5), scale2=Fraction(2, 3))
    text = state_to_ket(s)
    assert same_physical_state(parse_state(text), s)


@settings(deadline=None)
@given(
    st.sampled_from((TripartiteState, BipartiteState)),
    st.data(),
    st.builds(Fraction, st.integers(2, BIG), st.integers(1, BIG)),
)
def test_state_to_ket_round_trip_non_square_scale2(cls, data, scale2):
    """sqrt(num) of scale2 = num/den is not rational, so it is folded as a
    multiplier num over the divisor num * den."""
    assume(math.isqrt(scale2.numerator) ** 2 != scale2.numerator)
    n = cls.N_VALUES
    amps = data.draw(st.lists(wide_scalars, min_size=n, max_size=n).filter(any))
    state = cls(tuple(amps), scale2)
    assert same_physical_state(parse_state(state_to_ket(state)), state)


def test_fuzz_random_bytes_never_crash():
    rng = random.Random(1234)
    alphabet = "0123456789+-*/()|<>iqrtsx \t\x00é"
    for _ in range(20_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        try:
            parse(text)
        except TritangleError:
            pass


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_fuzz_hypothesis_text(text):
    try:
        parse(text)
    except TritangleError:
        pass


# -- the int renderer against the Fraction formula ----------------------------


@settings(deadline=None)
@given(st.one_of(exact_states(TripartiteState), exact_states(BipartiteState)))
def test_rendered_text_matches_fraction_reference(state):
    text = state_to_ket(state)
    assert text == reference_ket(state)
    expr = parse(text)
    assert render(expr) == reference_render(expr.terms, expr.global_divisor)


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("1/2i|00>", "1/2i|00>"),
        ("2i/3|000>-|111>", "2/3i|000> - |111>"),
        ("-4/6|00>+2/4i|11>", "-2/3|00> + 1/2i|11>"),
        ("2/3i(3/4|000> - 1/2i|011> + 6|101>)/sqrt(5)", "(1/2i|000> + 1/3|011> + 4i|101>)/sqrt(5)"),
        ("3/sqrt(2)(1/2|01> - 5/6i|10>)/sqrt(3)", "(3/2|01> - 5/2i|10>)/sqrt(6)"),
        ("1/4|00> + 1/6|00> - 1/3i|11>", "5/12|00> - 1/3i|11>"),
    ],
)
def test_hand_written_coefficients(text, rendered):
    expr = parse(text)
    assert render(expr) == rendered == reference_render(expr.terms, expr.global_divisor)
    state = parse_state(text)
    assert state == to_state(expr)
    assert state.integer_form == _OPS["exact"].pairs(state.amps)
    assert state_to_ket(state) == reference_ket(state)
    assert same_physical_state(parse_state(state_to_ket(state)), state)


@pytest.mark.parametrize(
    "text", ["1/2|00> - 2/4|00>", "(i|011> - i|011>)/sqrt(2)", "2/3(1/2i|01> - 3/6i|01>)"]
)
def test_terms_that_cancel_are_empty(text):
    with pytest.raises(EmptyState):
        parse(text)
    with pytest.raises(EmptyState):
        parse_state(text)


# -- the one-pass reader against the token parser -------------------------------

_BLANKS = st.sampled_from(("", "", " ", "\t", "\n", "\x1c", "  ", "\u2003", "\u00a0", "\u3000"))
# Characters outside ASCII: the tokenizer's isalpha() takes 'ä' into a word,
# and '٣', '²', '１' and 'Ⅰ' are digits or numerals that neither reader takes.
_MUTATION_CHARS = "0123456789+-*/()|<>isqrtx \t\x1cä٣²１Ⅰ\u2003"


@st.composite
def _coeff_tokens(draw):
    """One coefficient as tokens: INT, i, INT/POSINT, i/INT, 3i/4, 2/3i, with or
    without a trailing /sqrt(n); a zero denominator or 'i' on both sides now
    and then."""
    ints = st.sampled_from(("0", "1", "2", "3", "12", "007", "45"))
    num = draw(st.one_of(st.none(), ints))
    i_before = draw(st.booleans()) or num is None
    tokens = ([num] if num else []) + (["i"] if i_before else [])
    if draw(st.booleans()):
        tokens += ["/", draw(ints)]
        if draw(st.integers(0, 3)) == 0:
            tokens += ["i"]
    if draw(st.booleans()):
        tokens += ["/", "sqrt", "(", draw(ints), ")"]
    return tokens


@st.composite
def _sum_tokens(draw, arity):
    tokens = []
    for n in range(draw(st.integers(1, 5))):
        if n or draw(st.booleans()):
            tokens.append(draw(st.sampled_from("+-")))
        if draw(st.booleans()):
            tokens += draw(_coeff_tokens())
            if draw(st.booleans()):
                tokens.append("*")
        bits = draw(st.sampled_from([format(v, f"0{arity}b") for v in range(1 << arity)]))
        tokens += ["|", *bits, ">"]
    return tokens


@st.composite
def grammar_texts(draw):
    """Expressions from the README grammar with blanks between any two tokens
    (also between the bits of a ket), then at most one random one-character
    insertion, deletion or replacement."""
    tokens = draw(_sum_tokens(draw(st.sampled_from((2, 3)))))
    if draw(st.booleans()):
        head = []
        if draw(st.booleans()):
            head = draw(_coeff_tokens()) + (["*"] if draw(st.booleans()) else [])
        tail = ["/", "sqrt", "(", draw(st.sampled_from(("1", "5", "8", "0"))), ")"]
        tokens = head + ["(", *tokens, ")"] + (tail if draw(st.booleans()) else [])
    text = draw(_BLANKS)
    for tok in tokens:
        text += tok + draw(_BLANKS)
    mutation = draw(st.sampled_from(("none", "none", "insert", "delete", "replace")))
    if mutation != "none" and text:
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from(_MUTATION_CHARS))
        keep = text[at + 1:] if mutation != "insert" else text[at:]
        text = text[:at] + ("" if mutation == "delete" else char) + keep
    return text


def _token_parse(text):
    try:
        return TermParser(text).parse_expr()
    except KetSyntaxError:
        return None


def _outcome(read, text):
    """What ``read(text)`` gives: a state as its class, integer form and
    scale2, an error as its class, message, offset and expected tokens,
    anything else as is."""
    try:
        value = read(text)
    except TritangleError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None), getattr(exc, "expected", None)
    if isinstance(value, (TripartiteState, BipartiteState)):
        return type(value), value.integer_form, value.scale2
    return value


@settings(max_examples=1500, deadline=None)
@given(grammar_texts())
def test_scanner_reads_what_the_token_parser_reads(text):
    """``parse_state`` and ``parse`` give what the token parser's raw terms
    give when checked, folded, merged and built in passes, or the same error.
    The one-pass reader takes exactly the texts the token parser accepts,
    and gives the same sums or raises the same error."""
    assert _outcome(parse_state, text) == _outcome(reference_parse_state, text)
    assert _outcome(parse, text) == _outcome(reference_parse, text)
    accepted = _token_parse(text) is not None
    assert _outcome(_read, text) == (_outcome(reference_parse_terms, text) if accepted else None)


@pytest.mark.parametrize(
    "text",
    [
        "i/2i|00>",  # 'i' on both sides of the denominator
        "i/2i(|00>)",
        "|00>|11>",  # no sign before the second term
        "-(|00>)",  # no sign before a group
        "+1/2(|00> + |11>)",
        "*|00>",
        "/2|00>",
        "1/0|00>",
        "1/sqrt(0)|00>",
        "(|00>)/sqrt(0)",
        "|0 2>",
        "|0000>",
        "ii|00>",
        "2 sqrtx(2)|00>",
        "1/2ä|00>",  # a letter outside ASCII is a word to the token parser
        "1/２|00>",  # a digit outside ASCII is no INT
        "{}|000>".format("1" * 5000),  # past the int digit limit
        "(|000>+|111>)/sqrt({})".format("1" * 5000),
    ],
)
def test_scanner_passes_on_what_it_does_not_take(text):
    assert _read(text) is None


@pytest.mark.parametrize("text", ["1/2\u2003|00>", "(|000>\u00a0+\u30002/4|111>)/sqrt(2)"])
def test_scanner_takes_blanks_outside_ascii(text):
    read = _read(text)
    assert read is not None and read == reference_parse_terms(text)


@settings(deadline=None)
@given(st.one_of(exact_states(TripartiteState), exact_states(BipartiteState)))
def test_rendered_text_takes_the_scanner(state):
    text = state_to_ket(state)
    read = _read(text)
    assert read is not None and read == reference_parse_terms(text)


# -- which error a text that breaks two rules raises -----------------------------

_DIGITS = "1" * 5000


@pytest.mark.parametrize(
    "text, error, offset",
    [
        # A syntax error anywhere comes first.
        ("|00> + |000> + @", KetSyntaxError, 15),
        ("|00> + |000> +", KetSyntaxError, 14),
        (f"|00> + |000> + {_DIGITS}|11>", KetSyntaxError, 15),
        ("1/sqrt(2)|00> + 1/2|11> )", KetSyntaxError, 24),
        ("|00> - |00> + ", KetSyntaxError, 14),
        ("(|00> + |000>)/sqrt(0)", KetSyntaxError, 20),
        ("|00> + |000>\u2003+ 2 sqrtx(2)|11>", KetSyntaxError, 17),
        # Then a mixed arity, at the first term of another arity.
        ("1/sqrt(2)|00> + 1/2|111>", MixedArity, 19),
        ("|00> + |000> + |111>", MixedArity, 7),
        ("|00> - |00> + |111> - |111>", MixedArity, 14),
        ("0(|00> + |111>)", MixedArity, 9),
        ("|000>\u2003+ 1/sqrt(2)|11> + 1/2|01>", MixedArity, 17),
        # Then radicals that share no square-root divisor.
        ("1/sqrt(2)|00> - 1/sqrt(2)|00> + 1/2|11> - 1/2|11>", UnsupportedIrrational, None),
        ("0(1/sqrt(2)|00> + 1/sqrt(3)|11>)", UnsupportedIrrational, None),
        ("1/sqrt(2)|00>\u2003+ 1/sqrt(3)|00> - 1/sqrt(3)|00>", UnsupportedIrrational, None),
        # Last, sums that all cancel.
        ("1/sqrt(2)|00> - 1/sqrt(8)|00> - 1/sqrt(8)|00>", EmptyState, None),
        ("0(|00> + |11>)/sqrt(3)", EmptyState, None),
    ],
)
def test_a_text_that_breaks_two_rules_raises_the_first(text, error, offset):
    expected = _outcome(reference_parse, text)
    assert expected[0] is error and expected[2] == offset
    assert _outcome(parse, text) == _outcome(parse_state, text) == expected


@pytest.mark.parametrize(
    "text, needed",
    [
        ("1/sqrt(2)|00> + 1/sqrt(3)|11>", 3),  # the first term already fails
        ("1/sqrt(8)|00> + 1/sqrt(18)|01> + 1/sqrt(3)|10>", 24),
        ("1/sqrt(8)|00> + 1/sqrt(18)|01> + 1/sqrt(72)|10> + 1/sqrt(3)|11>", 24),
        ("1/sqrt(2)(|00> + 1/sqrt(3)|11>)/sqrt(5)", 3),
    ],
)
def test_radicals_that_do_not_fold_name_the_first_term_that_fails(text, needed):
    with pytest.raises(UnsupportedIrrational, match=rf"needed sqrt\({needed}\) to be") as err:
        parse_state(text)
    assert str(err.value) == _outcome(reference_parse, text)[1]


@pytest.mark.parametrize(
    "text, rendered",
    [
        ("1/sqrt(2)|000> + 1/sqrt(8)|111>", "(2|000> + |111>)/sqrt(8)"),
        ("1/sqrt(8)|00> + 1/sqrt(18)|11>", "(3|00> + 2|11>)/sqrt(72)"),
        ("1/sqrt(18)|00> + 1/sqrt(8)|11> - 1/sqrt(72)|01>", "(2|00> - |01> + 3|11>)/sqrt(72)"),
        ("1/sqrt(2)(|00> + 1/sqrt(4)|11>)/sqrt(3)", "(2|00> + |11>)/sqrt(24)"),
    ],
)
def test_radicals_fold_over_their_lcm(text, rendered):
    assert _read(text) == reference_parse_terms(text)
    assert state_to_ket(parse_state(text)) == rendered
    assert parse(text) == reference_parse(text)


def test_expression_arity():
    assert parse("|00> + i|11>").arity == 2
    assert parse("(|000> - |111>)/sqrt(2)").arity == 3


def test_double_states_do_not_render_to_kets():
    state = parse_state("(|000> + |111>)/sqrt(2)").to_approx()
    with pytest.raises(ValueError, match="only exact states render to ket notation"):
        state_to_ket(state)


def test_one_radical_takes_no_square_root(monkeypatch):
    """Text with one square-root divisor on every term, as ``state_to_ket``
    writes it, is summed without ``math.isqrt``."""
    def refuse(n):
        raise AssertionError(f"isqrt({n}) taken")

    monkeypatch.setattr(math, "isqrt", refuse)
    assert _read("1/sqrt(2)|00> - i/sqrt(2)|11> + 1/sqrt(2)|00>")[2] == 2
    assert parse_state("(3|000> + 2i|111>)/sqrt(13)").scale2 == Fraction(1, 13)
    with pytest.raises(AssertionError, match=r"isqrt\(4\) taken"):
        _read("1/sqrt(2)|00> + 1/sqrt(8)|11>")


def test_parse_keeps_first_appearance_order():
    assert render(parse("|111> + 1/2|000>")) == "|111> + 1/2|000>"
    assert [bits for _, bits in parse("|10> + |01> + |10>").terms] == ["10", "01"]
