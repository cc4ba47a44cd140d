"""Parser for human-written ket expressions with exact semantics.

Grammar (whitespace-insensitive; single-token lookahead):

    expr       := group [ '/' root ]  |  sum
    group      := [ coeff [ '*' ] ] '(' sum ')'
    sum        := [ '+' | '-' ] term { ('+' | '-') term }
    term       := [ coeff [ '*' ] ] ket
    coeff      := ( INT [ 'i' ] | 'i' ) [ '/' ( root | POSINT [ 'i' ] [ '/' root ] ) ]
                  ('i' at most once: 3i/4, 3/4i and i/4 are all allowed)
    root       := 'sqrt' '(' POSINT ')'
    ket        := '|' BIT BIT [ BIT ] '>'

Examples: ``(|000> + |111>)/sqrt(2)``, ``1/2(|100>+|010>+|001>+|111>)``,
``i/2|01> - 1/2|10>``, ``1/sqrt(3)(|001>+|100>+|010>)``.

Coefficients are exact complex rationals.  Per-term ``1/sqrt(n)`` factors
and a trailing group divisor are folded into one common square-root
divisor; when the radicals cannot share one (their ratios are not perfect
squares, e.g. mixing 1/sqrt(2) with 1/2), parsing fails with
:class:`UnsupportedIrrational` rather than approximating.

Two readers share the grammar.  Valid text is read by ``_scan``: a few
compiled ``re`` patterns, one match per term plus the group head and tail.
Text it does not take whole (any error, and any non-ASCII character) goes to
the token parser in :mod:`tritangle.tokenparser`, ``_tokenize`` and the
recursive-descent ``_Parser``, which reads it again and raises
:class:`KetSyntaxError` with the character offset and the expected tokens.
That module is imported only then, so reading valid text never loads it.
The token parser is also the reference the scanner is tested against: on
ASCII text both return the same raw terms, or both reject it.

Parsing and rendering run on ints: a coefficient is ``((re, im), den)``, the
terms of each basis string are summed over the lcm of their ``den``, and
:func:`parse_state` keeps the sums as the state's integer form.  Text is
written from int fractions reduced by ``math.gcd``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import EmptyState, MixedArity, UnsupportedIrrational
from .scalars import _OPS, gauss_mul, ratio_str
from .states import BipartiteState, TripartiteState, _setattr, _Value

_EXACT = _OPS["exact"]


class KetExpr(_Value):
    """Parsed expression: exact term coefficients plus one sqrt divisor.

    ``terms`` maps each distinct basis string to its summed coefficient;
    the represented state is  (1/sqrt(global_divisor)) * sum  coeff|bits>.
    """

    _FIELDS = ("terms", "global_divisor")

    def __init__(self, terms: tuple, global_divisor: int = 1):
        _setattr(self, "terms", terms)  # ((GaussianRational, bits str), ...)
        _setattr(self, "global_divisor", global_divisor)
        if not terms:
            raise EmptyState("expression has no terms")
        arities = {len(bits) for _, bits in terms}
        if len(arities) != 1:
            raise MixedArity("kets of different arity in one expression", 0)
        if global_divisor < 1:
            raise ValueError("global divisor must be a positive integer")

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])


# -- the scanner: valid text in one regex match per term ----------------------
#
# The patterns follow tokenparser._tokenize's lexing: ASCII digits, whitespace
# between any two tokens (also between the bits of a ket), and a letter run is
# one word: no pattern puts a letter next to 'i' or 'sqrt', so text _tokenize
# rejects as an unknown word never matches.  Whitespace is read only after a
# token that matched, so no two '\s*' meet and a long blank run costs linear
# time.  The grammar needs one token of lookahead, so a match never depends on
# backtracking into a shorter reading.  Rules a pattern does not state (digit
# limit, zero divisors, 'i' on both sides of a denominator, the sign between
# terms, no sign before a group) are checked on the groups.

_ROOT = r"sqrt\s*\(\s*([0-9]+)\s*\)\s*"
# Six groups: numerator, 'i', root  |  denominator, 'i', root (see the grammar).
_COEFF = (
    r"(?=[0-9i])(?:([0-9]+)\s*)?(?:(i)\s*)?"
    rf"(?:/\s*(?:{_ROOT}|([0-9]+)\s*(?:(i)\s*)?(?:/\s*{_ROOT})?))?"
)
# sign, coeff, '*', then a ket (the '|' offset is group 8, the bits groups
# 9-11) or '(' (group 12), which opens a group.
_PIECE = re.compile(
    rf"\s*(?:([+-])\s*)?(?:{_COEFF}(?:\*\s*)?)?"
    r"(?:()\|\s*([01])\s*([01])\s*(?:([01])\s*)?>|(\())"
)
_GROUP_TAIL = re.compile(rf"\s*\)\s*(?:/\s*{_ROOT})?\Z")
_END = re.compile(r"\s*\Z")


def _scan_coeff(sign, num, i_before, root, den, i_after, den_root):
    """``(((re, im), den), radical)`` of a matched coefficient times its sign,
    as ``parse_term`` reads it, or None where the parser rejects it."""
    if i_before and i_after:
        return None
    try:
        value = 1 if num is None else int(num)
        den = 1 if den is None else int(den)
        radical = int(root or den_root or 1)
    except ValueError:  # past sys.get_int_max_str_digits()
        return None
    if not den or not radical:
        return None
    if sign == "-":
        value = -value
    return ((0, value) if i_before or i_after else (value, 0), den), radical


def _scan(text: str):
    """The raw terms ``tokenparser._Parser(text).parse_expr()`` returns, read
    with the compiled patterns above; None for any text they do not take whole.

    Never raises: text it passes on goes to the token parser, which reads it
    again and reports the error with its offset and expected set.
    """
    if not text.isascii():
        return None
    group = None
    m = _PIECE.match(text)
    if m and m[12]:  # '(' opens a group; no sign comes before its coefficient
        group = None if m[1] else _scan_coeff(None, *m.groups()[1:7])
        if group is None:
            return None
        m = _PIECE.match(text, m.end())
    terms = []
    while m and not m[12]:
        sign, num, i_before, root, den, i_after, den_root, _, b0, b1, b2, _ = m.groups()
        coeff = _scan_coeff(sign, num, i_before, root, den, i_after, den_root)
        if coeff is None or (terms and sign is None):
            return None
        terms.append((*coeff, b0 + b1 + b2 if b2 else b0 + b1, m.start(8)))
        pos = m.end()
        m = _PIECE.match(text, pos)
    if not terms:
        return None
    if group is None:
        return terms if _END.match(text, pos) else None
    tail = _GROUP_TAIL.match(text, pos)
    if tail is None:
        return None
    try:
        divisor = int(tail[1] or 1)
    except ValueError:
        return None
    if not divisor:
        return None
    (g_pair, g_den), group_radical = group
    return [
        ((gauss_mul(pair, g_pair), den * g_den), r * group_radical * divisor, bits, off)
        for (pair, den), r, bits, off in terms
    ]


def _fold_radicals(raw_terms):
    """Rewrite coeff/sqrt(r) terms as (coeff, bits) over one common sqrt divisor."""
    divisor = math.lcm(*(r for _, r, _, _ in raw_terms))
    folded = []
    for ((re, im), den), radical, bits, _ in raw_terms:
        ratio = divisor // radical
        root = math.isqrt(ratio)
        if root * root != ratio:
            raise UnsupportedIrrational(
                "term prefactors cannot be written over one common "
                f"square-root divisor (needed sqrt({ratio}) to be an integer)"
            )
        folded.append((((re * root, im * root), den), bits))
    return folded, divisor


def _merge(terms):
    """Sum the (((re, im), den), bits) terms of each basis string over d, the
    lcm of their den: ``({bits: (re, im)}, d)`` in order of first appearance,
    without the sums that cancel.  Raises :class:`EmptyState` if all do."""
    d = math.lcm(*(den for (_, den), _ in terms))
    sums: dict = {}
    for ((re, im), den), bits in terms:
        k = d // den
        r0, i0 = sums.get(bits, (0, 0))
        sums[bits] = (r0 + re * k, i0 + im * k)
    sums = {bits: pair for bits, pair in sums.items() if any(pair)}
    if not sums:
        raise EmptyState("all coefficients cancel to zero")
    return sums, d


def _parse_terms(text: str):
    """Parse into ``(sums, d, divisor)``, see :func:`_merge`."""
    raw_terms = _scan(text)
    if raw_terms is None:  # an error: the token parser reads it again to report it
        from .tokenparser import _Parser

        raw_terms = _Parser(text).parse_expr()
    arity = len(raw_terms[0][2])
    for _, _, bits, off in raw_terms:
        if len(bits) != arity:
            raise MixedArity(f"|{bits}> mixes {len(bits)}-qubit and {arity}-qubit kets", off)
    folded, divisor = _fold_radicals(raw_terms)
    return (*_merge(folded), divisor)


def _build_state(sums, d, divisor):
    """The exact state  sum (sums[bits] / d)|bits>  /  sqrt(divisor), built on ints."""
    n = len(next(iter(sums)))
    g = [(0, 0)] * (1 << n)
    for bits, pair in sums.items():
        g[int(bits, 2)] = pair
    cls = TripartiteState if n == 3 else BipartiteState
    return cls._from_pairs(_EXACT, tuple(g), d, Fraction(1, divisor))


def parse(text: str) -> KetExpr:
    """Parse an expression into a :class:`KetExpr`.

    Raises :class:`KetSyntaxError` (with character offset),
    :class:`MixedArity`, :class:`EmptyState` or
    :class:`UnsupportedIrrational`; never anything else, for any input
    string.
    """
    sums, d, divisor = _parse_terms(text)
    terms = tuple((_EXACT.scalar(re, im, d), bits) for bits, (re, im) in sums.items())
    return KetExpr(terms, divisor)


def to_state(expr: KetExpr):
    """Build the exact state a :class:`KetExpr` denotes."""
    g, d = _EXACT.pairs([coeff for coeff, _ in expr.terms])
    terms = [((pair, d), bits) for pair, (_, bits) in zip(g, expr.terms)]
    return _build_state(*_merge(terms), expr.global_divisor)


def parse_state(text: str):
    """Parse and build in one step."""
    return _build_state(*_parse_terms(text))


def _render(terms, divisor: int) -> str:
    """Text of  sum (x + i y)|bits> / sqrt(divisor)  from ``(bits, (x, y))`` terms,
    x and y as (int numerator, positive int denominator)."""
    body = ""
    for bits, parts in terms:
        for (num, den), unit in zip(parts, ("", "i")):
            if num:
                mag = ratio_str(abs(num), den)
                text = f"{'' if mag == '1' else mag}{unit}|{bits}>"
                if body:
                    body += f" - {text}" if num < 0 else f" + {text}"
                else:
                    body = f"-{text}" if num < 0 else text
    return f"({body})/sqrt({divisor})" if divisor > 1 else body


def render(expr: KetExpr) -> str:
    """Canonical text for an expression; reparses to the same state."""
    return _render(
        ((bits, (c.re.as_integer_ratio(), c.im.as_integer_ratio())) for c, bits in expr.terms),
        expr.global_divisor,
    )


def state_to_ket(state) -> str:
    """Render an exact state back into ket notation; reparses identically."""
    if state.backend != "exact":
        raise ValueError("only exact states render to ket notation")
    width = "03b" if isinstance(state, TripartiteState) else "02b"
    num, den = state.scale2.numerator, state.scale2.denominator
    # scale2 = num/den means a global prefactor sqrt(num)/sqrt(den).  Fold
    # sqrt(num) into the coefficients: either as its integer root, or by
    # writing a*num over the divisor sqrt(num*den).
    root = math.isqrt(num)
    mult, divisor = (root, den) if root * root == num else (num, den * num)
    g, d = state.integer_form
    terms = ((format(i, width), ((re * mult, d), (im * mult, d))) for i, (re, im) in enumerate(g))
    return _render(terms, divisor)
