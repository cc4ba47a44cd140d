"""Parser for human-written ket expressions with exact semantics.

Grammar (whitespace-insensitive; single-token lookahead):

    expr       := group [ '/' 'sqrt' '(' POSINT ')' ]  |  sum
    group      := [ coeff ] '(' sum ')'
    sum        := [ '+' | '-' ] term { ('+' | '-') term }
    term       := [ coeff [ '*' ] ] ket
    coeff      := [ INT [ '/' POSINT ] ] [ 'i' ] [ '/' 'sqrt' '(' POSINT ')' ]
                  (at least one of INT / 'i' present; 'i' may also follow
                  the denominator, as in 1/2i)
    ket        := '|' BIT BIT [ BIT ] '>'

Examples: ``(|000> + |111>)/sqrt(2)``, ``1/2(|100>+|010>+|001>+|111>)``,
``i/2|01> - 1/2|10>``, ``1/sqrt(3)(|001>+|100>+|010>)``.

Coefficients are exact complex rationals.  Per-term ``1/sqrt(n)`` factors
and a trailing group divisor are folded into one common square-root
divisor; when the radicals cannot share one (their ratios are not perfect
squares, e.g. mixing 1/sqrt(2) with 1/2), parsing fails with
:class:`UnsupportedIrrational` rather than approximating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyState, KetSyntaxError, MixedArity, UnsupportedIrrational
from .scalars import GaussianRational
from .states import BipartiteState, TripartiteState

_PUNCT = "()+-/*|>"


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        if "0" <= ch <= "9":
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and text[pos].isalpha():
                pos += 1
            word = text[start:pos]
            if word not in ("i", "sqrt"):
                raise KetSyntaxError(f"unknown word {word!r}", start, ("i", "sqrt"))
            tokens.append((word, word, start))
            continue
        raise KetSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


@dataclass(frozen=True)
class KetExpr:
    """Parsed expression: exact term coefficients plus one sqrt divisor.

    ``terms`` maps each distinct basis string to its summed coefficient;
    the represented state is  (1/sqrt(global_divisor)) * sum  coeff|bits>.
    """

    terms: tuple  # ((GaussianRational, bits str), ...)
    global_divisor: int = 1

    def __post_init__(self):
        if not self.terms:
            raise EmptyState("expression has no terms")
        arities = {len(bits) for _, bits in self.terms}
        if len(arities) != 1:
            raise MixedArity("kets of different arity in one expression", 0)
        if self.global_divisor < 1:
            raise ValueError("global divisor must be a positive integer")

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise KetSyntaxError(
                f"unexpected {tok[1]!r}" if tok[0] != "end" else "unexpected end of input",
                tok[2],
                (what or kind,),
            )
        return self.advance()

    def parse_posint(self, what) -> int:
        tok = self.expect("int", what)
        value = int(tok[1])
        if value <= 0:
            raise KetSyntaxError(f"{what} must be positive", tok[2], (what,))
        return value

    def parse_sqrt_arg(self) -> int:
        self.expect("sqrt", "sqrt")
        self.expect("(", "(")
        value = self.parse_posint("sqrt argument")
        self.expect(")", ")")
        return value

    def parse_coeff(self):
        """Return (complex rational value, radical n) meaning value/sqrt(n)."""
        numer = None
        imag = False
        if self.peek() == "int":
            numer = int(self.advance()[1])
        if self.peek() == "i":
            self.advance()
            imag = True
        if numer is None and not imag:
            tok = self.tokens[self.pos]
            raise KetSyntaxError("expected a coefficient", tok[2], ("int", "i"))
        value = Fraction(numer if numer is not None else 1)
        radical = 1
        if self.peek() == "/":
            self.advance()
            if self.peek() == "sqrt":
                radical = self.parse_sqrt_arg()
            else:
                value /= self.parse_posint("denominator")
                if self.peek() == "i" and not imag:
                    self.advance()
                    imag = True
                if self.peek() == "/":
                    self.advance()
                    radical = self.parse_sqrt_arg()
        coeff = GaussianRational(0, value) if imag else GaussianRational(value)
        return coeff, radical

    def parse_ket(self):
        pipe = self.expect("|", "|")
        bits = ""
        while self.peek() == "int":
            bits += self.advance()[1]
        self.expect(">", ">")
        if not all(b in "01" for b in bits):
            raise KetSyntaxError(f"basis labels must be bits, got |{bits}>", pipe[2])
        if len(bits) not in (2, 3):
            raise KetSyntaxError(
                f"kets must have 2 or 3 qubits, got |{bits}>", pipe[2]
            )
        return bits, pipe[2]

    def parse_term(self):
        """One signed summand: optional coefficient, optional '*', a ket."""
        coeff = GaussianRational(1)
        radical = 1
        if self.peek() in ("int", "i"):
            coeff, radical = self.parse_coeff()
            if self.peek() == "*":
                self.advance()
        bits, off = self.parse_ket()
        return coeff, radical, bits, off

    def parse_rest_of_sum(self, terms):
        while self.peek() in ("+", "-"):
            negate = self.advance()[0] == "-"
            coeff, radical, bits, off = self.parse_term()
            terms.append((-coeff if negate else coeff, radical, bits, off))
        return terms

    def parse_sum(self):
        negate = False
        if self.peek() in ("+", "-"):
            negate = self.advance()[0] == "-"
        coeff, radical, bits, off = self.parse_term()
        return self.parse_rest_of_sum([(-coeff if negate else coeff, radical, bits, off)])

    def parse_expr(self):
        """Top level: a parenthesized group with optional prefactor and
        trailing /sqrt(n), or a plain sum of terms."""
        had_coeff = False
        group_coeff = GaussianRational(1)
        group_radical = 1
        if self.peek() in ("int", "i"):
            group_coeff, group_radical = self.parse_coeff()
            had_coeff = True
            if self.peek() == "*":
                self.advance()
        if self.peek() == "(":
            self.advance()
            terms = self.parse_sum()
            self.expect(")", ")")
            divisor = 1
            if self.peek() == "/":
                self.advance()
                divisor = self.parse_sqrt_arg()
            terms = [
                (c * group_coeff if had_coeff else c, r * group_radical * divisor, bits, off)
                for c, r, bits, off in terms
            ]
        elif had_coeff:
            # The coefficient belongs to the first term of a plain sum.
            bits, off = self.parse_ket()
            terms = self.parse_rest_of_sum(
                [(group_coeff, group_radical, bits, off)]
            )
        else:
            terms = self.parse_sum()
        self.expect("end", "end of input")
        return terms


def _fold_radicals(raw_terms):
    """Rewrite coeff/sqrt(r) terms over one common sqrt divisor."""
    divisor = math.lcm(*(r for _, r, _, _ in raw_terms))
    folded = []
    for coeff, radical, bits, off in raw_terms:
        ratio = divisor // radical
        root = math.isqrt(ratio)
        if root * root != ratio:
            raise UnsupportedIrrational(
                "term prefactors cannot be written over one common "
                f"square-root divisor (needed sqrt({ratio}) to be an integer)"
            )
        folded.append((coeff * root if root != 1 else coeff, bits, off))
    return folded, divisor


def parse(text: str) -> KetExpr:
    """Parse an expression into a :class:`KetExpr`.

    Raises :class:`KetSyntaxError` (with character offset),
    :class:`MixedArity`, :class:`EmptyState` or
    :class:`UnsupportedIrrational`; never anything else, for any input
    string.
    """
    raw_terms = _Parser(text).parse_expr()
    arity = len(raw_terms[0][2])
    for _, _, bits, off in raw_terms:
        if len(bits) != arity:
            raise MixedArity(
                f"|{bits}> mixes {len(bits)}-qubit and {arity}-qubit kets", off
            )
    folded, divisor = _fold_radicals(raw_terms)
    merged: dict = {}
    for coeff, bits, _ in folded:
        merged[bits] = merged[bits] + coeff if bits in merged else coeff
    terms = tuple((c, bits) for bits, c in merged.items() if c)
    if not terms:
        raise EmptyState("all coefficients cancel to zero")
    return KetExpr(terms, divisor)


def to_state(expr: KetExpr):
    """Build the exact state a :class:`KetExpr` denotes."""
    n = expr.arity
    amps = [GaussianRational(0)] * (1 << n)
    for coeff, bits in expr.terms:
        idx = int(bits, 2)
        amps[idx] = amps[idx] + coeff if amps[idx] else coeff
    if not any(bool(a) for a in amps):
        raise EmptyState("all coefficients cancel to zero")
    cls = TripartiteState if n == 3 else BipartiteState
    return cls(tuple(amps), Fraction(1, expr.global_divisor))


def parse_state(text: str):
    """Parse and build in one step."""
    return to_state(parse(text))


def _coeff_text(mag: Fraction, imag: bool) -> str:
    if imag:
        return "i" if mag == 1 else f"{mag}i"
    return "" if mag == 1 else str(mag)


def render(expr: KetExpr) -> str:
    """Canonical text for an expression; reparses to the same state."""
    pieces = []
    for coeff, bits in expr.terms:
        for part, imag in ((coeff.re, False), (coeff.im, True)):
            if part == 0:
                continue
            sign = "-" if part < 0 else "+"
            pieces.append((sign, f"{_coeff_text(abs(part), imag)}|{bits}>"))
    body = ""
    for idx, (sign, text) in enumerate(pieces):
        if idx == 0:
            body = (sign if sign == "-" else "") + text
        else:
            body += f" {sign} {text}"
    if expr.global_divisor > 1:
        return f"({body})/sqrt({expr.global_divisor})"
    return body


def state_to_ket(state) -> str:
    """Render an exact state back into ket notation; reparses identically."""
    if state.backend != "exact":
        raise ValueError("only exact states render to ket notation")
    n = 3 if isinstance(state, TripartiteState) else 2
    num, den = state.scale2.numerator, state.scale2.denominator
    # scale2 = num/den means a global prefactor sqrt(num)/sqrt(den).  Fold
    # sqrt(num) into the coefficients: either as its integer root, or by
    # writing a*num over the divisor sqrt(num*den).
    root = math.isqrt(num)
    if root * root == num:
        mult, divisor = root, den
    else:
        mult, divisor = num, den * num
    terms = tuple(
        (a * mult if mult != 1 else a, format(idx, f"0{n}b"))
        for idx, a in enumerate(state.amps)
        if bool(a)
    )
    return render(KetExpr(terms, divisor))
