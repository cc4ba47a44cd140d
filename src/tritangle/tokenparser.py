"""The error reporter for ket expressions: ``_tokenize`` and the
recursive-descent recognizer ``_Parser`` over the grammar in
:mod:`tritangle.ketparser`.

:func:`tritangle.ketparser.parse_state` reads every valid text with
compiled patterns and imports this module only for text those reject.  The
recognizer builds no values: it walks the tokens and raises
:class:`KetSyntaxError` with the character offset and the expected tokens
where the text fails.  The tests check that it fails on exactly the texts
the patterns reject.
"""

from __future__ import annotations

from .errors import KetSyntaxError

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

    def accept(self, *kinds) -> bool:
        """Consume the next token if it is one of ``kinds``; say whether it was."""
        if self.peek() in kinds:
            self.pos += 1
            return True
        return False

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

    def parse_posint(self, what):
        tok = self.expect("int", what)
        if self.int_value(tok) <= 0:
            raise KetSyntaxError(f"{what} must be positive", tok[2], (what,))

    def parse_sqrt_arg(self):
        self.expect("sqrt", "sqrt")
        self.expect("(", "(")
        self.parse_posint("sqrt argument")
        self.expect(")", ")")

    def parse_coeff(self):
        """A coefficient; both callers see INT or 'i' next."""
        if self.peek() == "int":
            self.int_value(self.advance())
        imag = self.accept("i")
        if self.accept("/"):
            if self.peek() == "sqrt":
                self.parse_sqrt_arg()
            else:
                self.parse_posint("denominator")
                if not imag:
                    self.accept("i")
                if self.accept("/"):
                    self.parse_sqrt_arg()

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

    def parse_term(self):
        """One summand: optional coefficient, optional '*', a ket."""
        if self.peek() in ("int", "i"):
            self.parse_coeff()
            self.accept("*")
        self.parse_ket()

    def parse_rest_of_sum(self):
        while self.accept("+", "-"):
            self.parse_term()

    def parse_sum(self):
        self.accept("+", "-")
        self.parse_term()
        self.parse_rest_of_sum()

    def parse_expr(self) -> None:
        """Top level: a parenthesized group with optional prefactor and
        trailing /sqrt(n), or a plain sum of terms."""
        had_coeff = self.peek() in ("int", "i")
        if had_coeff:
            self.parse_coeff()
            self.accept("*")
        if self.accept("("):
            self.parse_sum()
            self.expect(")", ")")
            if self.accept("/"):
                self.parse_sqrt_arg()
        elif had_coeff:
            # The coefficient belongs to the first term of a plain sum.
            self.parse_ket()
            self.parse_rest_of_sum()
        else:
            self.parse_sum()
        self.expect("end", "end of input")
