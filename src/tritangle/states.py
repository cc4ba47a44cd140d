"""State containers for two- and three-qubit pure states.

Amplitudes are stored in lexicographic basis order (``|000>`` .. ``|111>``
for three qubits, ``|00>`` .. ``|11>`` for two).  Irrational global
prefactors such as 1/sqrt(2) are carried exactly through ``scale2``, the
*squared modulus* of the prefactor: the GHZ state is ``amps=(1,0,...,0,1)``
with ``scale2=1/2``.  Every classification quantity used downstream is
homogeneous, so this rational bookkeeping suffices for exact zero tests.

For the same reason an exact state's amplitudes can be brought to one
common denominator d once, as Gaussian integers g_n with a_n = g_n / d
(:attr:`_StateOps.integer_form`).  The exact paths of ``hyperdet``
(classification), ``separability`` (decision, rank-1 oracle, rebuild
check), ``unitary`` (local unitaries), ``bipartite`` (concurrence and
product test), ``measurement`` (collapse probability and residual
concurrence) and the norm here run on these Python ints and build
rationals only for what they return.

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
from .scalars import (
    GaussianRational,
    abs2,
    as_approx,
    as_exact,
    integer_parts,
    is_exact_scalar,
    require_finite,
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

    @property
    def backend(self) -> str:
        return "exact" if is_exact_scalar(self.amps[0]) else "approx"

    @cached_property
    def integer_form(self) -> tuple:
        """Exact amplitudes as Gaussian integers over one denominator.

        Returns ``(g, d)``: ``g`` holds one ``(re, im)`` pair of ints per
        amplitude and ``d`` is the least common denominator of all their
        parts, so that a_n = (g_n[0] + i g_n[1]) / d.  Computed on first use
        and kept on the instance.  Exact backend only.
        """
        if self.backend != "exact":
            raise BackendMismatch("only exact states have an integer form")
        return integer_parts(self.amps)

    def norm2(self):
        """Squared norm, scale2 * sum of squared amplitude moduli."""
        if self.backend == "exact":
            g, d = self.integer_form
            s2 = self.scale2
            total = sum(re * re + im * im for re, im in g)
            return Fraction(s2.numerator * total, s2.denominator * d * d)
        total = abs2(self.amps[0])
        for a in self.amps[1:]:
            total = total + abs2(a)
        return require_finite(self.scale2 * total, "norm2")

    def scale(self, k):
        """Multiply every amplitude by the nonzero scalar k."""
        if self.backend == "exact":
            k = as_exact(k)
            if not k:
                raise ZeroScale("cannot scale a state by zero")
        else:
            k = as_approx(k)
            if k == 0:
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
