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

One reader takes every valid text: ``_scan`` matches ``_PIECE`` once per term
and returns the terms with the group head; ``_sum_terms`` then checks the arity
of every term, folds the radicals over their lcm and adds each term once into
int sums per basis string over the lcm d of the denominators.  Text the
patterns do not take whole is malformed; it goes to
:mod:`tritangle.tokenparser`, imported only then, which builds nothing and
only raises :class:`KetSyntaxError` with the offset and the expected tokens.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain

from .errors import EmptyState, MixedArity, UnsupportedIrrational
from .scalars import GaussianRational, _ExactOps, gauss_mul
from .states import BipartiteState, TripartiteState, _clip, _setattr, _Value

_ONE = (1, 0, 1, 1)  # no group: the coefficient 1 and no divisor
_UNIT = Fraction(1)
#: Amplitude index of each basis string; ``|bits>`` and ``i|bits>`` per amplitude.
_INDEX = {format(i, f"0{n}b"): i for n in (2, 3) for i in range(1 << n)}
_LABELS = {1 << n: tuple(f"{u}|{i:0{n}b}>" for i in range(1 << n) for u in ("", "i"))
           for n in (2, 3)}


class KetExpr(_Value):
    """Parsed expression: exact term coefficients plus one sqrt divisor.

    ``terms`` maps each distinct basis string to its summed coefficient;
    the represented state is  (1/sqrt(global_divisor)) * sum  coeff|bits>.
    The constructor takes what :func:`render` and :func:`to_state` read: a
    ``GaussianRational`` coefficient (else TypeError) and a label of 2 or 3
    characters ``0``/``1`` (else ValueError) in every term, one arity, not
    every coefficient zero, and an int divisor (else TypeError) of at least 1.
    """

    _FIELDS = ("terms", "global_divisor")

    def __init__(self, terms: tuple, global_divisor: int = 1):
        terms = tuple(terms)
        _setattr(self, "terms", terms)  # ((GaussianRational, bits str), ...)
        _setattr(self, "global_divisor", global_divisor)
        if not terms:
            raise EmptyState("expression has no terms")
        for coeff, bits in terms:
            if not isinstance(coeff, GaussianRational):
                raise TypeError(f"a coefficient must be a GaussianRational, not {type(coeff).__name__}")
            if not (isinstance(bits, str) and bits in _INDEX):
                raise ValueError(f"a label must be 2 or 3 characters 0 or 1, got {_clip(repr(bits))}")
        arities = {len(bits) for _, bits in terms}
        if len(arities) != 1:
            raise MixedArity("kets of different arity in one expression", 0)
        if not any(coeff for coeff, _ in terms):
            raise EmptyState("every coefficient is zero")
        if global_divisor.__class__ is not int:
            raise TypeError(f"global divisor must be an int, not {type(global_divisor).__name__}")
        if global_divisor < 1:
            raise ValueError("global divisor must be a positive integer")

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])


# -- the reader: one regex match per term -------------------------------------
# The patterns follow tokenparser._tokenize's lexing: ASCII digits ('[0-9]'),
# whitespace between any two tokens (also between the bits of a ket; '\s' is
# str.isspace on every code point, U+2003 included), and a letter run is one
# word: no pattern puts a letter next to 'i' or 'sqrt', so text _tokenize
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


def _scan(text: str):
    """``(terms, head)`` of text the patterns take whole, else None: each term
    ``(re, im, den, radical, bits, off)`` in order, its coefficient times its
    sign read as ``parse_term`` reads it, and the group coefficient with the
    divisor it puts on every term, ``(re, im, den, radical)``.  Never raises:
    the token parser reports the text it passes on."""
    terms = []
    group = None
    pos = 0
    m = _PIECE.match(text)
    while m:
        sign, num, i_before, root, den, i_after, den_root, _, b0, b1, b2, opener = m.groups()
        if (sign is None and terms) or (i_before and i_after):
            return None
        try:
            value, den, radical = int(num or 1), int(den or 1), int(root or den_root or 1)
        except ValueError:  # past sys.get_int_max_str_digits()
            return None
        if not den or not radical:
            return None
        value = -value if sign == "-" else value
        re, im = (0, value) if i_before or i_after else (value, 0)
        if not opener:
            terms.append((re, im, den, radical, b0 + b1 + b2 if b2 else b0 + b1, m.start(8)))
        elif sign or group or terms:  # '(' opens the text, with no sign before it
            return None
        else:
            group = re, im, den, radical
        pos = m.end()
        m = _PIECE.match(text, pos)
    if not terms:
        return None
    if group is None:
        return (terms, _ONE) if _END.match(text, pos) else None
    tail = _GROUP_TAIL.match(text, pos)
    if tail is None:
        return None
    try:
        divisor = int(tail[1] or 1)
    except ValueError:
        return None
    return (terms, (*group[:3], group[3] * divisor)) if divisor else None


def _sum_terms(terms, head: tuple):
    """``(sums, d, divisor)`` of the terms ``(re, im, den, radical, bits, off)``
    times the group ``head``, checked in the reference's order: the arity of
    every term (:class:`MixedArity` at the first of another), then the fold of
    each radical over their lcm (:class:`UnsupportedIrrational` at the first
    that does not fold), then one Gaussian-integer sum per basis string, in
    order of first appearance, over the lcm d of the den, without the sums
    that cancel (:class:`EmptyState` if all do)."""
    arity = len(terms[0][4])
    d = radical = 1
    for _, _, den, r, bits, off in terms:
        if len(bits) != arity:
            raise MixedArity(f"|{bits}> mixes {len(bits)}-qubit and {arity}-qubit kets", off)
        d, radical = math.lcm(d, den), math.lcm(radical, r)
    sums = {}
    for re, im, den, r, bits, _ in terms:
        k = d // den
        if r != radical:  # a square root only where the radicals differ
            ratio = radical // r
            root = math.isqrt(ratio)
            if root * root != ratio:
                raise UnsupportedIrrational(
                    "term prefactors cannot be written over one common "
                    f"square-root divisor (needed sqrt({ratio}) to be an integer)"
                )
            k *= root
        old = sums.get(bits)
        sums[bits] = (re * k, im * k) if old is None else (old[0] + re * k, old[1] + im * k)
    g_re, g_im, g_den, factor = head
    if (g_re, g_im) != (1, 0):
        sums = {b: gauss_mul(pair, (g_re, g_im)) for b, pair in sums.items()}
    if (0, 0) in sums.values():
        sums = {b: pair for b, pair in sums.items() if pair != (0, 0)}
        if not sums:
            raise EmptyState("all coefficients cancel to zero")
    return sums, d * g_den, radical * factor


def _read(text: str):
    """``(sums, d, divisor)`` of text the patterns take whole; None for other text."""
    found = _scan(text)
    return None if found is None else _sum_terms(*found)


def _sums(text: str):
    """``(sums, d, divisor)`` of valid text, see :func:`_sum_terms`; on text
    the patterns do not take, the token parser raises where it fails."""
    found = _read(text)
    if found is None:
        from .tokenparser import _Parser

        _Parser(text).parse_expr()
    return found


def _state(sums, d, divisor):
    """The exact state  sum (sums[bits] / d)|bits>  /  sqrt(divisor), built on ints."""
    g = [(0, 0)] * (1 << len(next(iter(sums))))
    for bits, pair in sums.items():
        g[_INDEX[bits]] = pair
    cls = TripartiteState if len(g) == 8 else BipartiteState
    return cls._from_pairs(_ExactOps, tuple(g), d, _UNIT if divisor == 1 else Fraction(1, divisor))


def parse(text: str) -> KetExpr:
    """Parse an expression into a :class:`KetExpr`.

    Raises the first of :class:`KetSyntaxError` (with character offset),
    :class:`MixedArity`, :class:`UnsupportedIrrational` and
    :class:`EmptyState` that applies; never anything else, for any string.
    """
    sums, d, divisor = _sums(text)
    terms = tuple((_ExactOps.scalar(re, im, d), bits) for bits, (re, im) in sums.items())
    return KetExpr(terms, divisor)


def to_state(expr: KetExpr):
    """Build the exact state a :class:`KetExpr` denotes."""
    g, d = _ExactOps.pairs([coeff for coeff, _ in expr.terms])
    terms = [(re, im, d, 1, bits, 0) for (re, im), (_, bits) in zip(g, expr.terms)]
    return _state(*_sum_terms(terms, (1, 0, 1, expr.global_divisor)))


def parse_state(text: str):
    """Parse and build in one step."""
    return _state(*_sums(text))


def _render(g, d, labels, divisor: int, mult: int = 1) -> str:
    """Text of  sum (g_n * mult / d)|bits_n>  /  sqrt(divisor), each nonzero
    part reduced by its gcd with d and written before its label, ``labels[2n]``
    (``|bits_n>``) or ``labels[2n + 1]`` (``i|bits_n>``)."""
    gcd = math.gcd
    out = []
    for num, label in zip(chain.from_iterable(g), labels):
        if num:
            num *= mult
            out.append(" - " if num < 0 else " + ")
            k = gcd(num, d)
            num, den = abs(num) // k, d // k
            out.append(f"{num}/{den}{label}" if den > 1 else f"{num}{label}" if num > 1 else label)
    out[:1] = ["-"] if out and out[0] == " - " else []  # the sign of the first part
    body = "".join(out)
    return f"({body})/sqrt({divisor})" if divisor > 1 else body


def render(expr: KetExpr) -> str:
    """Canonical text for an expression; reparses to the same state."""
    g, d = _ExactOps.pairs([coeff for coeff, _ in expr.terms])
    labels = [f"{unit}|{bits}>" for _, bits in expr.terms for unit in ("", "i")]
    return _render(g, d, labels, expr.global_divisor)


def state_to_ket(state) -> str:
    """Render an exact state back into ket notation; reparses identically."""
    if state.backend != "exact":
        raise ValueError("only exact states render to ket notation")
    num, den = state.scale2._numerator, state.scale2._denominator
    # scale2 = num/den means a global prefactor sqrt(num)/sqrt(den).  Fold
    # sqrt(num) into the coefficients: either as its integer root, or by
    # writing a*num over the divisor sqrt(num*den).
    root = math.isqrt(num)
    mult, divisor = (root, den) if root * root == num else (num, den * num)
    g, d = state.integer_form
    return _render(g, d, _LABELS[len(g)], divisor, mult)
