"""The token parser for ket expressions: ``_tokenize`` and the
recursive-descent ``_Parser`` over the grammar in :mod:`tritangle.ketparser`.

:func:`tritangle.ketparser.parse_state` reads valid text with compiled
patterns and imports this module only for text those reject, to raise
:class:`KetSyntaxError` with the character offset and the expected tokens.
Valid text it reads (non-ASCII blanks) returns raw terms, which the reader
sums as it sums its own.  The tests check the reader against this parser:
on ASCII text the reader takes exactly the texts this parser accepts.
"""

from __future__ import annotations

from .errors import KetSyntaxError
from .scalars import gauss_mul

_PUNCT = "()+-/*|>"
_ONE = (((1, 0), 1), 1)  # the coefficient 1, as parse_coeff returns it


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

    @staticmethod
    def int_value(tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise KetSyntaxError(
                f"integer of {len(tok[1])} digits exceeds the int conversion limit", tok[2]
            ) from None

    def parse_posint(self, what) -> int:
        tok = self.expect("int", what)
        value = self.int_value(tok)
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
        """Return (((re, im), den), radical n) meaning (re + i im) / den / sqrt(n)."""
        numer = None
        imag = False
        if self.peek() == "int":
            numer = self.int_value(self.advance())
        if self.peek() == "i":
            self.advance()
            imag = True
        if numer is None and not imag:
            tok = self.tokens[self.pos]
            raise KetSyntaxError("expected a coefficient", tok[2], ("int", "i"))
        numer = 1 if numer is None else numer
        den = radical = 1
        if self.peek() == "/":
            self.advance()
            if self.peek() == "sqrt":
                radical = self.parse_sqrt_arg()
            else:
                den = self.parse_posint("denominator")
                if self.peek() == "i" and not imag:
                    self.advance()
                    imag = True
                if self.peek() == "/":
                    self.advance()
                    radical = self.parse_sqrt_arg()
        return ((0, numer) if imag else (numer, 0), den), radical

    def parse_ket(self):
        pipe = self.expect("|", "|")
        bits = ""
        while self.peek() == "int":
            bits += self.advance()[1]
        self.expect(">", ">")
        if not all(b in "01" for b in bits):
            raise KetSyntaxError(f"basis labels must be bits, got |{bits}>", pipe[2])
        if len(bits) not in (2, 3):
            raise KetSyntaxError(f"kets must have 2 or 3 qubits, got |{bits}>", pipe[2])
        return bits, pipe[2]

    def parse_term(self, sign=1):
        """One summand times ``sign``: optional coefficient, optional '*', a ket."""
        ((re, im), den), radical = _ONE
        if self.peek() in ("int", "i"):
            ((re, im), den), radical = self.parse_coeff()
            if self.peek() == "*":
                self.advance()
        bits, off = self.parse_ket()
        return ((sign * re, sign * im), den), radical, bits, off

    def parse_rest_of_sum(self, terms):
        while self.peek() in ("+", "-"):
            terms.append(self.parse_term(-1 if self.advance()[0] == "-" else 1))
        return terms

    def parse_sum(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
        return self.parse_rest_of_sum([self.parse_term(sign)])

    def parse_expr(self):
        """Top level: a parenthesized group with optional prefactor and
        trailing /sqrt(n), or a plain sum of terms."""
        had_coeff = self.peek() in ("int", "i")
        group_coeff, group_radical = self.parse_coeff() if had_coeff else _ONE
        if had_coeff and self.peek() == "*":
            self.advance()
        if self.peek() == "(":
            self.advance()
            terms = self.parse_sum()
            self.expect(")", ")")
            divisor = 1
            if self.peek() == "/":
                self.advance()
                divisor = self.parse_sqrt_arg()
            g_pair, g_den = group_coeff
            terms = [
                ((gauss_mul(pair, g_pair), den * g_den), r * group_radical * divisor, bits, off)
                for (pair, den), r, bits, off in terms
            ]
        elif had_coeff:
            # The coefficient belongs to the first term of a plain sum.
            bits, off = self.parse_ket()
            terms = self.parse_rest_of_sum([(group_coeff, group_radical, bits, off)])
        else:
            terms = self.parse_sum()
        self.expect("end", "end of input")
        return terms
