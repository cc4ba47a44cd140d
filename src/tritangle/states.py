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
floats over d = 1.  Classification in ``hyperdet``, the decision and rank-1
oracle in ``separability``, local unitaries in ``unitary``, concurrence and
product test in ``bipartite``, collapse in ``measurement`` and the norm here
run one formula on either; the backends differ only in the pairs, the
division of a result and the zero test (``scalars._OPS``).

The parser, local unitaries and ``randstates.random_product_state`` compute
states on ints and build them from their pairs (``_StateOps._from_pairs``),
which are reduced and kept.  ``hyperdet.classify`` keeps a state's
normalized classification on the instance the same way.

States are immutable; all operations return new values.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import BackendMismatch, NonFinite, ZeroScale
from .scalars import _OPS, GaussianRational, as_approx, as_exact, is_exact_scalar


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


def _check_outcome(outcome: int) -> int:
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return outcome


def _validate(values, scale2, n):
    """Checks shared by states and unitaries: count, one backend, finite, scale2 > 0."""
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    exact = is_exact_scalar(values[0])
    for a in values:
        if is_exact_scalar(a) != exact:
            raise BackendMismatch("values mix exact and double backends")
    if exact != isinstance(scale2, Fraction):
        raise BackendMismatch("scale2 backend must match the values")
    if not exact and not (math.isfinite(scale2) and all(map(cmath.isfinite, values))):
        raise NonFinite("double values and scale2 must be finite")
    if scale2 <= 0:
        raise ValueError("scale2 must be positive")


class _StateOps:
    """Shared behaviour of the two state containers, keyed by their ``N_AMPS``."""

    N_AMPS: int

    def __post_init__(self):
        _validate(self.amps, self.scale2, self.N_AMPS)
        if not any(self.amps):
            raise ValueError("the zero vector is not a state")

    @classmethod
    def exact(cls, amps, scale2=1):
        return cls(tuple(map(as_exact, amps)), Fraction(scale2))

    @classmethod
    def approx(cls, amps, scale2=1.0):
        return cls(tuple(map(as_approx, amps)), float(scale2))

    @classmethod
    def _from_pairs(cls, ops, g, d, scale2):
        """The state a_n = g_n / d of backend ``ops``, keeping its reduced pairs
        (``ops.reduce``): they equal what ``ops.pairs(amps)`` returns."""
        g, d = ops.reduce(g, d)
        state = cls(tuple(ops.scalar(re, im, d) for re, im in g), scale2)
        state.__dict__["_pairs"] = (g, d)
        return state

    @property
    def backend(self) -> str:
        return "exact" if is_exact_scalar(self.amps[0]) else "approx"

    @cached_property
    def _pairs(self) -> tuple:
        """``(g, d)``, a_n = (g_n[0] + i g_n[1]) / d: the integer form, or a
        double state's own (real, imag) floats over d = 1.  Kept on the instance."""
        return _OPS[self.backend].pairs(self.amps)

    @cached_property
    def _weight(self):
        """sum |g_n|^2 over the pairs: norm2 * d^2 / scale2.  Kept on the instance."""
        return sum(re * re + im * im for re, im in self._pairs[0])

    @property
    def integer_form(self) -> tuple:
        """Exact amplitudes as Gaussian integers over one denominator.

        Returns ``(g, d)``: ``g`` holds one ``(re, im)`` pair of ints per
        amplitude and ``d`` is the least common denominator of all their
        parts, so that a_n = (g_n[0] + i g_n[1]) / d.  Kept on the instance,
        from construction or first use.  Exact backend only.
        """
        if self.backend != "exact":
            raise BackendMismatch("only exact states have an integer form")
        return self._pairs

    def norm2(self):
        """Squared norm, scale2 * sum of squared amplitude moduli."""
        d = self._pairs[1]
        return _OPS[self.backend].div(self.scale2 * self._weight, d * d, "norm2")

    def scale(self, k):
        """Multiply every amplitude by the nonzero scalar k."""
        k = (as_exact if self.backend == "exact" else as_approx)(k)
        if not k:
            raise ZeroScale("cannot scale a state by zero")
        return type(self)(tuple(a * k for a in self.amps), self.scale2)

    def to_approx(self):
        """Explicit one-way conversion to the double backend."""
        if self.backend == "approx":
            return self
        return type(self).approx(
            tuple(a.to_complex() for a in self.amps), float(self.scale2)
        )


@dataclass(frozen=True)
class TripartiteState(_StateOps):
    """Three-qubit pure state: 8 amplitudes a_ijk plus squared prefactor."""

    amps: tuple
    scale2: Fraction | float = Fraction(1)
    N_AMPS = 8

    def amp(self, i: int, j: int, k: int):
        return self.amps[4 * i + 2 * j + k]


@dataclass(frozen=True)
class BipartiteState(_StateOps):
    """Two-qubit pure state: 4 amplitudes c_ij plus squared prefactor."""

    amps: tuple
    scale2: Fraction | float = Fraction(1)
    N_AMPS = 4

    def amp(self, i: int, j: int):
        return self.amps[2 * i + j]


# -- JSON interchange -------------------------------------------------------
#
# {"amps": [[re, im], ...], "scale2": "p/q" | float, "backend": "exact"|"approx"}
# with re/im as rational strings in exact mode and numbers in approx mode.


def state_to_json(state) -> dict:
    if state.backend == "exact":
        amps = [[str(a.re), str(a.im)] for a in state.amps]
        scale2 = str(state.scale2)
    else:
        amps = [[a.real, a.imag] for a in state.amps]
        scale2 = float(state.scale2)
    return {"amps": amps, "scale2": scale2, "backend": state.backend}


def state_from_json(obj: dict):
    amps_raw = obj["amps"]
    if len(amps_raw) not in (4, 8):
        raise ValueError("state JSON must carry 4 or 8 amplitudes")
    cls = TripartiteState if len(amps_raw) == 8 else BipartiteState
    backend = obj.get("backend", "exact")
    if backend not in ("exact", "approx"):
        raise ValueError(f"unknown backend {backend!r}; expected 'exact' or 'approx'")
    if backend == "exact":
        amps = tuple(
            GaussianRational(Fraction(str(re)), Fraction(str(im)))
            for re, im in amps_raw
        )
        return cls(amps, Fraction(str(obj.get("scale2", "1"))))
    amps = tuple(complex(float(re), float(im)) for re, im in amps_raw)
    return cls(amps, float(obj.get("scale2", 1.0)))
