"""State containers for two- and three-qubit pure states.

Amplitudes are stored in lexicographic basis order (``|000>`` .. ``|111>``
for three qubits, ``|00>`` .. ``|11>`` for two).  Irrational global
prefactors such as 1/sqrt(2) are carried exactly through ``scale2``, the
*squared modulus* of the prefactor: the GHZ state is ``amps=(1,0,...,0,1)``
with ``scale2=1/2``.  Every classification quantity used downstream is
homogeneous, so this rational bookkeeping suffices for exact zero tests.

For the same reason the kernels run on ``(re, im)`` pairs over one common
denominator d, a_n = g_n / d.  An exact state's pairs are Gaussian integers
(:attr:`_StateOps.integer_form`), a double state's are its amplitudes' own
floats over d = 1.  Classification in ``hyperdet``, the decision, factors and
rank-1 oracle in ``separability``, local unitaries and the unitarity check in
``unitary``, concurrence and product test in ``bipartite``, collapse in
``measurement`` and the norm here run one formula on either; the backends
differ only in the pairs, the division of a result, the zero test and a factor
anchor: the methods of the ``scalars`` ops class a value carries as ``_ops``.

Every state and unitary is checked along one path, ``_PairValues._from_pairs``,
and stores its reduced pairs and ``scale2``.  The constructor keeps the values
it is handed and enters with their pairs; the parser, local unitaries,
``state_from_json``, ``to_approx``, every exact ``randstates`` generator and
the unitaries the library makes enter with pairs alone, and build ``amps`` or
``entries`` on the first read and keep it (``_kept``).  ``measurement.collapse``
and ``hyperdet.submatrix`` store a slice of a checked state's pairs with its
``scale2``, so they enter at the store step (``_from_checked_pairs``), where
only the nonzero check runs.  ``hyperdet.classify`` keeps a state's
normalized classification on the instance.

Values of the pairs are kept the same way, so that a state computes each
once however it is classified and measured: ``_weight``, sum |g_n|^2, and,
on a three-qubit state, ``_slice_dets``, the six slice determinants in
SLICE_INDEX order.  ``classify`` and ``cayley_det`` read the determinants;
``collapse`` reads its slot's determinant for the residual's concurrence and
adds its slice's four |g_n|^2 from the pairs.  The independent oracles
``rank1_oracle`` and ``cayley_det_schlafli`` do not read ``_slice_dets``.  On
a two-qubit state it raises the ValueError of ``_qubit_count_error``, so that
every operation that reads it reports the wrong qubit count; ``submatrix``,
the two oracles, ``det2`` and ``concurrence2`` check the count themselves.

States are immutable; all operations return new values.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .errors import BackendMismatch, NonFinite, ZeroScale
from .scalars import (
    GaussianRational,
    _DoubleOps,
    _ExactOps,
    _ops_named,
    as_approx,
    as_exact,
    gauss_det2,
    is_fraction,
    over_lcm,
    ratio_str,
)


class Axis(enum.Enum):
    """Which qubit a single-qubit operation addresses.

    X is the first tensor slot (index i of a_ijk), Y the second (j),
    Z the third (k).
    """

    X = 0
    Y = 1
    Z = 2

    @property
    def qubit(self) -> int:
        """1-based qubit position, as used on the command line."""
        return self.value + 1

    @classmethod
    def from_qubit(cls, n: int) -> "Axis":
        if n not in (1, 2, 3):
            raise ValueError(f"qubit must be 1, 2 or 3, got {n}")
        return cls(n - 1)


#: Canonical ordering of the six (axis, outcome) slots used by the
#: classification list: x0, x1, y0, y1, z0, z1.
AXIS_OUTCOME_ORDER = (
    (Axis.X, 0),
    (Axis.X, 1),
    (Axis.Y, 0),
    (Axis.Y, 1),
    (Axis.Z, 0),
    (Axis.Z, 1),
)

#: Amplitude positions (into ``amps``, a_ijk = amps[4i + 2j + k]) of the 2x2
#: slice for each (axis, outcome) of AXIS_OUTCOME_ORDER, so that slot
#: ``2 * axis.value + outcome`` lists c00, c01, c10, c11 with the first
#: remaining index as the row.  The slices of one axis are also the two rows
#: of that axis's 2x4 flattening.
SLICE_INDEX = tuple(
    tuple(n for n in range(8) if (n >> (2 - axis.value)) & 1 == outcome)
    for axis, outcome in AXIS_OUTCOME_ORDER
)
#: One ``operator.itemgetter`` per slot: the slot's four values of SLICE_INDEX off a tuple.
_SLICES = tuple(itemgetter(*index) for index in SLICE_INDEX)


def _slot(axis: Axis, outcome: int) -> int:
    """The slot ``2 * axis + outcome`` of AXIS_OUTCOME_ORDER.  ``outcome``
    must be an integer 0 or 1 (``True`` and ``False`` are); any other value,
    a float such as 1.0 among them, raises ValueError.  An ``axis`` that is
    not an :class:`Axis` raises AttributeError.
    """
    # An int 0 or 1, the common case, passes on the first test.  1.0 == 1,
    # but a float cannot index the slot tables: it has no __index__.
    if not (outcome.__class__ is int and (outcome == 0 or outcome == 1)) and (
        outcome not in (0, 1) or not hasattr(outcome, "__index__")
    ):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return 2 * axis._value_ + outcome


def _qubit_count_error(needed: int, state) -> ValueError:
    """The error of an operation on ``needed`` qubits handed ``state``."""
    return ValueError(f"expected a {needed}-qubit state, got a {state.N_VALUES.bit_length() - 1}-qubit state")


#: Sets a field of a value being built, past the ``__setattr__`` that refuses it.
_setattr = object.__setattr__


class _kept:
    """A value computed from an immutable instance on the first read and kept
    in its ``__dict__`` under the name this descriptor is bound to, where later
    reads find it first (it defines no ``__set__``).  Unlike
    ``functools.cached_property`` before Python 3.12, it takes no lock (that
    lock is one per class, shared by all its instances): two threads that
    race on a first read compute equal values, and one of them is kept.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class _Value:
    """Immutable value with the fields named in ``_FIELDS``, which its
    constructor sets with ``_setattr``.  It equals only a value of its own
    class with equal fields, hashes them as a tuple and shows as
    ``Name(field=value, ...)``; no attribute can be set or deleted.  Instances
    keep a ``__dict__``, where a ``_kept`` value is stored on its first read.
    """

    _FIELDS: tuple

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._FIELDS])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _PairValues(_Value):
    """Shared by states and unitaries: ``N_VALUES`` values of one backend, a
    squared prefactor ``scale2``, their ``_ops`` and ``_pairs``, the pairs
    ``(g, d)`` that the kernels read: value_n = (g_n[0] + i g_n[1]) / d, the
    integer form, or a double value's own (real, imag) parts over d = 1.
    The constructor checks the count and one backend, which picks ``_ops``,
    keeps the values as a tuple, whatever sequence it is handed, and enters
    ``_from_pairs`` with their pairs (``ops.pairs``).  ``_from_pairs`` checks
    the count, scale2's backend, finite doubles and scale2 > 0, in this order;
    its store step ``_from_checked_pairs`` stores the reduced pairs and runs
    the subclass's ``_check`` (nonzero, or unitary) on the reduced ``g``.
    """

    N_VALUES: int
    _FIELD: str  # the name of the values' field, the first of _FIELDS

    def __init__(self, values, scale2):
        values = tuple(values)  # the same object for a tuple
        _setattr(self, self._FIELD, values)
        if len(values) != self.N_VALUES:
            raise ValueError(f"expected {self.N_VALUES} values, got {len(values)}")
        exact = isinstance(values[0], GaussianRational)
        for a in values:
            if isinstance(a, GaussianRational) != exact:
                raise BackendMismatch("values mix exact and double backends")
        ops = _ExactOps if exact else _DoubleOps
        g, d = ops.pairs(values)
        self._from_pairs(ops, g, d, scale2, self)

    @classmethod
    def _from_pairs(cls, ops, g, d, scale2, built=None):
        """The value of backend ``ops`` with value_n = g_n / d, stored as its
        reduced pairs (``ops.reduce``) and ``scale2`` into ``built``, the
        constructor's instance, or else a new one, whose values are built on first read.
        """
        if len(g) != cls.N_VALUES:
            raise ValueError(f"expected {cls.N_VALUES} values, got {len(g)}")
        exact = ops is _ExactOps
        # Before the backend test: a part that is no number raises math.isfinite's TypeError.
        finite = exact or all(math.isfinite(re) and math.isfinite(im) for re, im in g)
        if exact != is_fraction(scale2):
            raise BackendMismatch("scale2 backend must match the values")
        if not (finite and (exact or math.isfinite(scale2))):
            raise NonFinite("double values and scale2 must be finite, not NaN, inf or overflowed")
        # A Fraction has its numerator's sign, read off its slot (``scalars._fraction``).
        if (scale2._numerator if exact else scale2) <= 0:
            raise ValueError("scale2 must be positive")
        return cls._from_checked_pairs(ops, g, d, scale2, built)

    @classmethod
    def _from_checked_pairs(cls, ops, g, d, scale2, built=None):
        """The store step of ``_from_pairs``, entered directly with pairs and a
        ``scale2`` that passed its checks, as a slice of a checked state's pairs
        with its ``scale2`` did: the pairs are reduced once and stored, and only
        the subclass's ``_check`` runs, on the reduced ``g``."""
        if built is None:
            built = object.__new__(cls)
        # Three ``_setattr`` writes, not one ``__dict__.update``: no dict object
        # is made for the fields yet, ~140 B less per residual on Python 3.11.
        # The update was ~2% faster on float-haar but raised its peak RSS by 3%.
        _setattr(built, "scale2", scale2)
        _setattr(built, "_ops", ops)
        pairs = ops.reduce(g, d)
        _setattr(built, "_pairs", pairs)
        built._check(pairs[0])
        return built

    @property
    def backend(self) -> str:
        return self._ops.backend

    def to_approx(self):
        """Explicit one-way conversion to the double backend: each double is
        ``part / d`` on the kept pairs, the correctly rounded ``float(Fraction(part, d))``."""
        if self._ops is _DoubleOps:
            return self
        g, d = self._pairs
        try:
            pairs, scale2 = tuple((re / d, im / d) for re, im in g), float(self.scale2)
        except OverflowError as exc:
            raise NonFinite("an exact value is beyond the double range") from exc
        if not scale2:
            raise NonFinite("scale2 is below the double range: it converts to 0.0")
        return type(self)._from_pairs(_DoubleOps, pairs, 1, scale2)

    def _values(self) -> tuple:
        """Read on a value built from its pairs: the values, built once and kept."""
        g, d = self._pairs
        scalar = self._ops.scalar
        return tuple(scalar(re, im, d) for re, im in g)


class _StateOps(_PairValues):
    """Shared behaviour of the two state containers, keyed by their ``N_VALUES``."""

    _FIELD = "amps"
    _FIELDS = (_FIELD, "scale2")
    amps = _kept(_PairValues._values)

    def __init__(self, amps: tuple, scale2: Fraction | float = Fraction(1)):
        _PairValues.__init__(self, amps, scale2)

    def _check(self, g):
        if not any(map(any, g)):
            raise ValueError("the zero vector is not a state")

    @classmethod
    def exact(cls, amps, scale2=1):
        return cls(tuple(map(as_exact, amps)), Fraction(scale2))

    @classmethod
    def approx(cls, amps, scale2=1.0):
        return cls(tuple(map(as_approx, amps)), float(scale2))

    @_kept
    def _weight(self):
        """sum |g_n|^2 over the pairs: norm2 * d^2 / scale2.  Kept on the instance."""
        return sum([re * re + im * im for re, im in self._pairs[0]])

    @property
    def integer_form(self) -> tuple:
        """Exact amplitudes as Gaussian integers over one denominator.

        Returns ``(g, d)``: ``g`` holds one ``(re, im)`` pair of ints per
        amplitude and ``d`` is the least common denominator of all their
        parts, so that a_n = (g_n[0] + i g_n[1]) / d.  Stored at
        construction.  Exact backend only.
        """
        if self.backend != "exact":
            raise BackendMismatch("only exact states have an integer form")
        return self._pairs

    def norm2(self):
        """Squared norm, scale2 * sum of squared amplitude moduli."""
        d = self._pairs[1]
        ops = self._ops
        s, q = ops.ratio(self.scale2)
        return ops.div(s * self._weight, q * d * d, "norm2")

    def scale(self, k):
        """Multiply every amplitude by the nonzero scalar k."""
        k = (as_exact if self._ops is _ExactOps else as_approx)(k)
        if not k:
            raise ZeroScale("cannot scale a state by zero")
        return type(self)(tuple(a * k for a in self.amps), self.scale2)


class TripartiteState(_StateOps):
    """Three-qubit pure state: 8 amplitudes a_ijk plus squared prefactor."""

    N_VALUES = 8

    def amp(self, i: int, j: int, k: int):
        return self.amps[4 * i + 2 * j + k]

    @_kept
    def _slice_dets(self) -> tuple:
        """The determinant c00 c11 - c01 c10 (``gauss_det2``) of each slice of
        the pairs, as a ``(re, im)`` pair in SLICE_INDEX order: x0, x1, y0, y1,
        z0, z1.  Kept on the instance."""
        g = self._pairs[0]
        return tuple([gauss_det2(g[p], g[q], g[r], g[s]) for p, q, r, s in SLICE_INDEX])


class BipartiteState(_StateOps):
    """Two-qubit pure state: 4 amplitudes c_ij plus squared prefactor."""

    N_VALUES = 4

    def amp(self, i: int, j: int):
        return self.amps[2 * i + j]

    # The three-qubit kept value: an operation that reads it, handed a
    # two-qubit state, raises the ValueError that names the qubit count.
    @property
    def _slice_dets(self):
        raise _qubit_count_error(3, self)


# -- JSON interchange -------------------------------------------------------
#
# {"amps": [[re, im], ...], "scale2": "p/q" | float, "backend": "exact"|"approx"}
# with re/im as rational strings in exact mode and numbers in approx mode.


def state_to_json(state) -> dict:
    if state.backend == "exact":
        g, d = state.integer_form
        amps = [[ratio_str(re, d), ratio_str(im, d)] for re, im in g]
        scale2 = str(state.scale2)
    else:
        amps = [[a.real, a.imag] for a in state.amps]
        scale2 = float(state.scale2)
    return {"amps": amps, "scale2": scale2, "backend": state.backend}


class _BelowDoubleRange(float):
    """The double 0.0 read from a JSON number literal that is not zero, such as
    ``1e-400``; ``text`` is the literal."""


def _underflows(text: str, value: float) -> bool:
    """Whether the number ``text``, which ``float`` reads as ``value``, is
    nonzero but reads as 0.0.  Blanks and a sign around it are what ``float``
    accepts; the number is nonzero if a mantissa digit is (``Fraction(text)``
    would build 10**n for 1e-n)."""
    return not value and bool(text.strip().lstrip("+-").lower().partition("e")[0].strip("0._"))


def _json_float(text):
    """``parse_float`` for the command line's JSON readers: the literal's
    double, or a ``_BelowDoubleRange`` if a nonzero literal reads as 0.0, so
    that a double part reports the underflow and an exact part reads
    ``str(value)``, 0, as it would from a plain float."""
    value = float(text)
    if not _underflows(text, value):
        return value
    below = _BelowDoubleRange(value)
    below.text = text
    return below


def _clip(text: str) -> str:
    """``text`` for an error message that echoes an input, cut to 60 characters."""
    return text if len(text) <= 60 else f"{text[:45]}... ({len(text)} chars)"


#: The digits of the exponent that ends a decimal string, the 7 of "1.5e-7" (compiled
#: on first use).  One past the interpreter's cap on the digits of an int read from
#: text (4300) is refused: ``Fraction`` would build its power of ten, 9 s for "1e10000000".
_EXPONENT = r"(?i)(?<=[\d.])e[-+]?(\d+(?:_\d+)*)\s*\Z"
_MAX_EXPONENT = getattr(sys.int_info, "default_max_str_digits", 4300)


def _json_part(value, exact):
    """One rational part read from JSON: if exact, ``(num, den)`` of whatever
    ``Fraction(str(value))`` accepts, an int, a float or a string such as
    ``" 3/4 "``, ``"0.5"`` or ``"1e3"`` (``_EXPONENT``); else ``float(value)``.
    A JSON boolean is neither, and a nonzero number or string that reads as the
    double 0.0 (``_json_float``, ``_underflows``) raises NonFinite as a double;
    a message echoes the value cut short (``_clip``)."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    exponent = exact and isinstance(value, str) and re.search(_EXPONENT, value)
    if exponent:  # compared by length first: reading long digits as an int is slow too
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"{_clip(repr(value))} has an exponent beyond {_MAX_EXPONENT} in magnitude")
    if not exact and isinstance(value, _BelowDoubleRange):
        raise NonFinite(f"the JSON number {_clip(value.text)} is below the double range: it reads as 0.0")
    try:
        part = Fraction(str(value)).as_integer_ratio() if exact else float(value)
    except ValueError:
        raise ValueError(f"{_clip(repr(value))} is not a number") from None
    if not exact and isinstance(value, str) and _underflows(value, part):
        raise NonFinite(f"the JSON string {_clip(repr(value))} is below the double range: it reads as 0.0")
    return part


def _amp_pairs(amps_raw):
    """The amplitudes of a state JSON, each to be unpacked as ``re, im``.  A
    string is no pair, though one of two characters would unpack as one."""
    for n, amp in enumerate(amps_raw):
        if isinstance(amp, str):
            raise ValueError(f"amplitude {n} is not one [re, im] pair: {_clip(repr(amp))}")
        yield amp


def state_from_json(obj: dict):
    amps_raw = obj.get("amps") if isinstance(obj, dict) else None
    # A number, a boolean, null, no "amps" at all, or a mapping, whose keys a list would read.
    if isinstance(amps_raw, dict) or not hasattr(amps_raw, "__len__"):
        raise ValueError('expected an object whose "amps" is a list of 4 or 8 [re, im] pairs')
    if len(amps_raw) not in (4, 8):
        raise ValueError("state JSON must carry 4 or 8 amplitudes")
    cls = TripartiteState if len(amps_raw) == 8 else BipartiteState
    ops = _ops_named(obj.get("backend", "exact"))
    if ops is _ExactOps:
        pairs = [(_json_part(re, True), _json_part(im, True)) for re, im in _amp_pairs(amps_raw)]
        g, d = over_lcm(pairs)
        return cls._from_pairs(ops, g, d, Fraction(*_json_part(obj.get("scale2", "1"), True)))
    g = tuple((_json_part(re, False), _json_part(im, False)) for re, im in _amp_pairs(amps_raw))
    return cls._from_pairs(ops, g, 1, _json_part(obj.get("scale2", 1.0), False))
