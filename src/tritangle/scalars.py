"""Complex scalars in two backends: exact Gaussian rationals and doubles.

The exact backend is :class:`GaussianRational`, a complex number whose real
and imaginary parts are arbitrary-precision :class:`fractions.Fraction`
values.  It is closed under addition, subtraction, multiplication, division
and conjugation, and its squared modulus is a nonnegative rational, so
equality with zero is decidable.  The approximate backend is the built-in
``complex``.

The two backends never mix silently.  Arithmetic between a
``GaussianRational`` and a float or complex is rejected, and conversion is
one-way via :meth:`GaussianRational.to_complex`.  The exact ops write and read
``Fraction`` slots directly, not through accessors that run as Python functions;
CI on Python 3.10, 3.11, 3.12 and 3.13 guards the slot names.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import le

from .errors import NonFinite

#: Default zero threshold for squared moduli of normalized double-precision
#: quantities.  Determinant-like values of unit-norm states carry roughly
#: 1e-15 relative error; 1e-10 leaves a wide margin.
DEFAULT_EPS = 1e-10

_EXACT_INPUTS = (int, Fraction)

#: The exact zero that ``_ExactOps.div`` returns for a zero numerator, one
#: shared value instead of a new Fraction reduced by a gcd each time.
_ZERO = Fraction(0)

#: The smallest positive normal double, read once.
_FLOAT_MIN = sys.float_info.min

_new = object.__new__


def _fraction(num: int, den: int) -> Fraction:
    """The Fraction num / den of coprime ints with den > 0, stored into its two
    slots without the constructor's type dispatch and gcd, as Python 3.12's
    ``Fraction._from_coprime_ints`` stores it."""
    q = _new(Fraction)
    q._numerator = num
    q._denominator = den
    return q


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not isinstance(re, _EXACT_INPUTS) or not isinstance(im, _EXACT_INPUTS):
            raise TypeError(
                f"exact scalar parts must be int or Fraction, got "
                f"({type(re).__name__}, {type(im).__name__})"
            )
        # A part that is already a Fraction is kept, not re-wrapped.
        object.__setattr__(self, "re", re if isinstance(re, Fraction) else Fraction(re))
        object.__setattr__(self, "im", im if isinstance(im, Fraction) else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # Rebuilt through the constructor: pickle's default restore sets the
        # slots through __setattr__, which refuses.
        return GaussianRational, (self.re, self.im)

    # -- arithmetic (exact operands only; floats/complex are rejected) ----

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _EXACT_INPUTS):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gaussian(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _gaussian(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gaussian(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # A real value equals its int or Fraction, so it hashes as they do.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- conversion and display -------------------------------------------

    def to_complex(self) -> complex:
        """Explicit one-way conversion to the double backend.

        Raises :class:`NonFinite` when a part lies beyond the double range.
        """
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError as exc:
            raise NonFinite("an exact value is beyond the double range") from exc

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__


def _gaussian(re: Fraction, im: Fraction) -> GaussianRational:
    """The GaussianRational re + i im of two Fractions, stored without the
    constructor's type checks: arithmetic on Fractions yields Fractions."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def as_exact(value) -> GaussianRational:
    """Coerce an int, Fraction, (re, im) pair or GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _EXACT_INPUTS):
        return GaussianRational(value)
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(value[0], value[1])
    raise TypeError(f"cannot build an exact scalar from {value!r}")


def as_approx(value) -> complex:
    """Coerce a number (or GaussianRational) to the double backend."""
    if isinstance(value, GaussianRational):
        return value.to_complex()
    if isinstance(value, tuple) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def is_fraction(value) -> bool:
    """``isinstance(value, Fraction)``, deciding a float or a Fraction on its
    concrete type: for a float the ABC test costs about ten times as much."""
    return type(value) is Fraction or type(value) is not float and isinstance(value, Fraction)


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ints with den > 0, without the Fraction."""
    k = math.gcd(num, den)
    return str(num // k) if den == k else f"{num // k}/{den // k}"


def abs2(value):
    """Squared modulus in the value's own backend."""
    if isinstance(value, GaussianRational):
        return value.abs2()
    z = complex(value)
    return z.real * z.real + z.imag * z.imag


def require_finite(value, what: str):
    """Return a double-backend result; raise NonFinite if it overflowed to inf/NaN."""
    if not cmath.isfinite(value):
        raise NonFinite(f"double-backend {what} is {value}: the values overflow the double range")
    return value


def gauss_mul(a: tuple, b: tuple) -> tuple:
    """Product of two complex numbers given as (re, im) pairs (ints or floats)."""
    ar, ai = a
    br, bi = b
    return ar * br - ai * bi, ar * bi + ai * br


def gauss_det2(c00: tuple, c01: tuple, c10: tuple, c11: tuple) -> tuple:
    """Determinant c00 c11 - c01 c10 of (re, im) pairs, rounded as two ``gauss_mul``s."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = c00, c01, c10, c11
    return (ar * dr - ai * di) - (br * cr - bi * ci), (ar * di + ai * dr) - (br * ci + bi * cr)


def over_lcm(parts) -> tuple:
    """Rationals given as int ``((re, re_den), (im, im_den))`` parts, each
    den > 0, as Gaussian integers over the lcm of their denominators.

    Returns ``(g, d)``: ``g`` holds one ``(re, im)`` pair of ints per value,
    so that value_n = (g_n[0] + i g_n[1]) / d.  For reduced parts d is the
    least common denominator and gcd(d, every part) is 1.
    """
    d = math.lcm(*[den for scalar in parts for _, den in scalar])
    return tuple(
        [(re * (d // re_den), im * (d // im_den)) for (re, re_den), (im, im_den) in parts]
    ), d


# -- the two backends on (re, im) pairs ---------------------------------------
#
# Both backends run one formula per quantity on (re, im) pairs over a
# denominator d.  They differ only in where the pairs come from, how a result
# is divided, how zero is tested, how a display root is taken and which pair
# anchors a factor extraction.  Each value carries its backend's ops class
# from construction, as ``_ops``.


class _ExactOps:
    """Gaussian-integer pairs over their common denominator, Fraction results, exact zero."""

    backend = "exact"

    @staticmethod
    def finite(value, what):  # an exact result cannot overflow
        return value

    @staticmethod
    def pairs(values):
        """Gaussian rationals as Gaussian integers over their least common
        denominator, as ``over_lcm`` gives them, read off the parts' slots."""
        d = math.lcm(*[q._denominator for v in values for q in (v.re, v.im)])
        return tuple([(v.re._numerator * (d // v.re._denominator),
                       v.im._numerator * (d // v.im._denominator)) for v in values]), d

    @staticmethod
    def ratio(value):
        """A Fraction as its int ``(numerator, denominator)``, for ``div``."""
        return value._numerator, value._denominator

    @staticmethod
    def reduce(g, d):
        """Divide out gcd(d, every part), leaving d the least common denominator."""
        k = d
        for re, im in g:
            k = math.gcd(k, re, im)
            if k == 1:
                return g, d
        return tuple([(re // k, im // k) for re, im in g]), d // k

    @staticmethod
    def div(num, den, what=None):
        """num / den as a Fraction in lowest terms, for ints num and den with
        den > 0.  A zero numerator gives the shared ``_ZERO``; any other is
        reduced by one gcd and stored as it is (``_fraction``), so the
        Fraction constructor's type dispatch never runs.
        """
        if not num:
            return _ZERO
        k = math.gcd(num, den)
        return _fraction(num // k, den // k)

    @staticmethod
    def scalar(re, im, den):
        """(re + i im) / den for ints with den > 0, each part built by ``div``."""
        div = _ExactOps.div
        return _gaussian(div(re, den), div(im, den))

    @staticmethod
    def anchor(g):
        """The position of the first nonzero pair: a factor extraction's anchor."""
        for n, (re, im) in enumerate(g):
            if re or im:
                return n

    @staticmethod
    def is_zero(num, eps, *dens):
        return not num

    @staticmethod
    def all_zero(values, eps):
        """Whether every value is zero, tested in one ``any``."""
        return not any(values)

    @staticmethod
    def sqrt_ratio(v, w):
        """sqrt(v / w) of two positive Fractions as a double.

        v / w is the int quotient (v.n w.d) / (v.d w.n), correctly rounded,
        so a quotient in the normal double range gives exactly
        ``math.sqrt(float(v / w))``.  Outside it the root is taken on the
        ints, and a root beyond the double range raises NonFinite.
        """
        try:
            num, den = v._numerator * w._denominator, v._denominator * w._numerator
        except AttributeError:  # an int entry of a vector from the public constructor
            return _ExactOps.sqrt_ratio(Fraction(v), Fraction(w))
        try:
            q = num / den
            if q >= _FLOAT_MIN:
                return math.sqrt(q)
        except OverflowError:
            pass
        # num * 4^k / den has about 128 bits, so its integer root has 64.
        k = (128 - num.bit_length() + den.bit_length()) // 2
        root = math.isqrt((num << 2 * k) // den if k >= 0 else num // (den << -2 * k))
        try:
            value = math.ldexp(root, -k)
            if value:
                return value
        except OverflowError:
            pass
        bits = root.bit_length() - k
        raise NonFinite(f"a display entry of about 2^{bits} is beyond the double range")


class _DoubleOps:
    """Float pairs over d = 1, checked float division, zero within eps."""

    backend = "approx"
    finite = staticmethod(require_finite)

    @staticmethod
    def pairs(values):
        """Each value's (real, imag) over d = 1.  A value with no parts is paired as
        (value, 0.0), on which the finite check raises math.isfinite's TypeError."""
        try:
            return tuple([(z.real, z.imag) for z in values]), 1
        except AttributeError:
            return tuple([(getattr(z, "real", z), getattr(z, "imag", 0.0)) for z in values]), 1

    @staticmethod
    def ratio(value):
        """A double as ``(value, 1)``."""
        return value, 1

    @staticmethod
    def reduce(g, d):
        """The pairs as they are (d = 1)."""
        return g, d

    @staticmethod
    def div(num, den, what="value"):
        if not den:
            raise NonFinite(
                f"double-backend {what} has a zero denominator: "
                "the values underflow the double range"
            )
        q = num / den
        if math.isfinite(q) and math.isfinite(den):
            return q
        # A finite numerator over an overflowed denominator would read 0.
        require_finite(den, f"{what} denominator")
        return require_finite(q, what)

    @staticmethod
    def scalar(re, im, den):
        return require_finite(complex(re / den, im / den), "value")

    @staticmethod
    def sqrt_ratio(v, w):
        return math.sqrt(v / w)

    @staticmethod
    def anchor(g):
        """The position of the first pair of largest modulus: a factor extraction's anchor."""
        abs2 = [re * re + im * im for re, im in g]
        return abs2.index(max(abs2))

    @classmethod
    def is_zero(cls, num, eps, *dens):
        # num / prod(dens) <= eps, one factor at a time: a representable
        # quotient must not fail because its denominator overflows.
        for den in dens:
            num = cls.div(num, den)
        return num <= eps

    @staticmethod
    def all_zero(values, eps):
        """Whether every value is at most eps, as ``is_zero`` tests one."""
        return all(map(le, values, repeat(eps)))


_OPS = {"exact": _ExactOps, "approx": _DoubleOps}


def _ops_named(backend):
    """The ops of a backend named in text, ``"exact"`` or ``"approx"``."""
    if backend not in ("exact", "approx"):
        raise ValueError(f"unknown backend {backend!r}; expected 'exact' or 'approx'")
    return _OPS[backend]
