"""2x2 unitaries and their local (per-qubit) action on states.

A ``Unitary2`` is a 2x2 matrix M together with ``scale2``, the squared
modulus of a global prefactor g, the physical operator being g*M with
|g|^2 = scale2.  Exact-backend matrices have Gaussian-rational entries and
rational scale2 (e.g. entries [[1,1],[-1,1]] with scale2 = 1/2 for a
1/sqrt(2) prefactor); Haar-random sampling produces double-backend
matrices.

A unitary is built as a state is (``states._PairValues._from_pairs``) and
stores its reduced pairs and scale2, which the unitarity check and
``apply_local_3``/``_2`` read.  ``random_rational_unitary2``,
``random_unitary2``, ``dagger`` and the ``--u1`` reader hand over pairs
alone, and such a unitary builds ``entries`` on first read.

Index convention: a unitary acts on its tensor slot by

    e_i  ->  sum_k  M[i][k] e_k

so the coefficient matrix of a two-qubit state transforms as
c' = M1^T c M2.  Under this convention the rotation [[1,1],[-1,1]] with
scale2 = 1/2, applied to all three qubits, maps the GHZ state onto the
single-excitation state (|100> + |010> + |001> + |111>)/2 (see
``tritangle.catalog.ghz_to_psi_unitary``).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BackendMismatch
from .scalars import _DoubleOps, _ExactOps, _ops_named, as_approx, as_exact, over_lcm
from .states import BipartiteState, TripartiteState, _kept, _PairValues

if TYPE_CHECKING:  # numpy is imported only where Haar sampling or to_matrix needs it
    import numpy as np

#: Maximum allowed modulus of an entry of scale2 M^dagger M - I for
#: double-backend matrices.
UNITARITY_TOL = 1e-12


class Unitary2(_PairValues):
    """2x2 unitary as (entries m00, m01, m10, m11; squared prefactor)."""

    N_VALUES = 4
    _FIELD = "entries"
    _FIELDS = (_FIELD, "scale2")
    entries = _kept(_PairValues._values)

    def __init__(self, entries: tuple, scale2: Fraction | float = Fraction(1)):
        _PairValues.__init__(self, entries, scale2)

    def _check(self, g):
        # Each entry of q (scale2 G^dagger G - d^2 I), on the pairs G over d with
        # scale2 = s / q (q = 1 for doubles), squared is zero against
        # UNITARITY_TOL^2 over d^4: exactly zero, on ints, if exact.
        ops = self._ops
        ((r00, i00), (r01, i01), (r10, i10), (r11, i11)), d = self._pairs
        s, q = ops.ratio(self.scale2)
        d2 = d * d
        # Squared by multiplying: a double that overflows gives inf, which
        # is_zero raises as NonFinite (``float ** 2`` raises OverflowError).
        r0 = s * (r00 * r00 + i00 * i00 + r10 * r10 + i10 * i10) - q * d2
        r1 = s * (r01 * r01 + i01 * i01 + r11 * r11 + i11 * i11) - q * d2
        off_re = s * (r00 * r01 + i00 * i01 + r10 * r11 + i10 * i11)
        off_im = s * (r00 * i01 - i00 * r01 + r10 * i11 - i10 * r11)
        residuals2 = (r0 * r0, r1 * r1, off_re * off_re + off_im * off_im)
        if not all(ops.is_zero(r2, UNITARITY_TOL**2, d2, d2) for r2 in residuals2):
            raise ValueError("matrix is not unitary (with its scale2)")

    @classmethod
    def exact(cls, rows, scale2=1) -> "Unitary2":
        (m00, m01), (m10, m11) = rows
        return cls(tuple(as_exact(m) for m in (m00, m01, m10, m11)), Fraction(scale2))

    @classmethod
    def approx(cls, rows, scale2=1.0) -> "Unitary2":
        (m00, m01), (m10, m11) = rows
        return cls(tuple(as_approx(m) for m in (m00, m01, m10, m11)), float(scale2))

    @classmethod
    def identity(cls, backend: str = "exact") -> "Unitary2":
        return (cls.exact if _ops_named(backend) is _ExactOps else cls.approx)([[1, 0], [0, 1]])

    def dagger(self) -> "Unitary2":
        g, d = self._pairs
        conj = tuple((g[n][0], -g[n][1]) for n in (0, 2, 1, 3))
        return Unitary2._from_pairs(self._ops, conj, d, self.scale2)

    def to_matrix(self) -> np.ndarray:
        """Physical operator g*M as a dense complex array."""
        import numpy as np

        g = math.sqrt(float(self.scale2))
        m = [as_approx(e) for e in self.entries]
        return g * np.array([[m[0], m[1]], [m[2], m[3]]], dtype=complex)


def _combine_gauss(a0, a1, m):
    """(a0 m00 + a1 m10, a0 m01 + a1 m11) on (re, im) pairs, summed as ``complex`` sums."""
    (r0, i0), (r1, i1) = a0, a1
    (r00, i00), (r01, i01), (r10, i10), (r11, i11) = m
    return (
        ((r0 * r00 - i0 * i00) + (r1 * r10 - i1 * i10), (r0 * i00 + i0 * r00) + (r1 * i10 + i1 * r10)),
        ((r0 * r01 - i0 * i01) + (r1 * r11 - i1 * i11), (r0 * i01 + i0 * r01) + (r1 * i11 + i1 * r11)),
    )


#: For a state of 8 or 4 amplitudes, each axis's lines: the ``(lo, hi)``
#: positions whose indices differ only in that axis's bit (the highest bit is
#: the first qubit's), lo ascending.  For three qubits, axis k's lo and hi
#: positions are the two slices of ``states.SLICE_INDEX`` slots 2k and 2k + 1.
_LINES = {
    n: tuple(tuple((lo, lo | bit) for lo in range(n) if not lo & bit) for bit in bits)
    for n, bits in ((8, (4, 2, 1)), (4, (2, 1)))
}


def _apply_local(state, units):
    """Apply one unitary per qubit as successive per-axis (mode) products.

    Along each axis in turn a_{..i..} -> a'_{..l..} = sum_i a_{..i..} u[i][l],
    two products per amplitude, on each line ``(lo, hi)`` of the axis in the
    line table ``_LINES``.  The products run on the state's pairs and on each
    unitary's kept pairs over its own denominator d_u (Gaussian integers in
    the exact backend, d_u = 1 for doubles); the output is built from its
    pairs over d * prod(d_u) once.  Raises ValueError unless there is one
    unitary per qubit.
    """
    ops = state._ops
    amps, d = state._pairs
    qubits = len(amps).bit_length() - 1
    if len(units) != qubits:
        raise ValueError(f"one unitary per qubit: got {len(units)} for a {qubits}-qubit state")
    # The product of the scale2 values as s / q: on ints, divided once at the
    # end, in the exact backend; in order, over q = 1, as doubles.
    s, q = ops.ratio(state.scale2)
    mats = []
    for u in units:
        if u._ops is not ops:
            raise BackendMismatch(f"cannot apply a {u.backend} unitary to a {state.backend} state")
        m, d_u = u._pairs
        mats.append(m)
        d *= d_u
        u_s, u_q = ops.ratio(u.scale2)
        s, q = s * u_s, q * u_q
    amps = list(amps)
    for m, lines in zip(mats, _LINES[len(amps)]):
        for lo, hi in lines:
            amps[lo], amps[hi] = _combine_gauss(amps[lo], amps[hi], m)
    return type(state)._from_pairs(ops, tuple(amps), d, ops.div(s, q, "scale2"))


def apply_local_3(
    state: TripartiteState, u1: Unitary2, u2: Unitary2, u3: Unitary2
) -> TripartiteState:
    """Apply u1 (x) u2 (x) u3, one factor per qubit.

    New amplitudes: a'_lmn = sum_ijk a_ijk u1[i][l] u2[j][m] u3[k][n];
    the result's scale2 is the product of all four scale2 values, so the
    squared norm is preserved exactly.
    """
    return _apply_local(state, (u1, u2, u3))


def apply_local_2(state: BipartiteState, u1: Unitary2, u2: Unitary2) -> BipartiteState:
    """Apply u1 (x) u2 to a two-qubit state: c' = M1^T c M2 on amplitudes."""
    return _apply_local(state, (u1, u2))


def random_unitary2(rng) -> Unitary2:
    """Haar-distributed double-backend unitary.

    Accepts a ``numpy.random.Generator`` or an integer seed.  Construction:
    U = e^{i phi} [[e^{i a} cos t, e^{i b} sin t],
                   [-e^{-i b} sin t, e^{-i a} cos t]]
    with phi, a, b uniform on [0, 2pi) and t = arcsin(sqrt(u)), u uniform
    on [0, 1), which gives the Haar measure on U(2) up to global phase.
    """
    import numpy as np

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    alpha, beta, phi = rng.uniform(0.0, 2.0 * math.pi, size=3)
    theta = math.asin(math.sqrt(rng.uniform(0.0, 1.0)))
    c, s = math.cos(theta), math.sin(theta)
    phase = cmath.exp(1j * phi)
    entries = (
        phase * cmath.exp(1j * alpha) * c,
        phase * cmath.exp(1j * beta) * s,
        -phase * cmath.exp(-1j * beta) * s,
        phase * cmath.exp(-1j * alpha) * c,
    )
    return Unitary2._from_pairs(_DoubleOps, tuple((z.real, z.imag) for z in entries), 1, 1.0)


def random_rational_unitary2(rng) -> Unitary2:
    """Exact-backend unitary [[a, b], [-conj(b), conj(a)]] / sqrt(|a|^2+|b|^2).

    ``rng`` is a ``random.Random``.  Each part of a and b is drawn as an int
    ``(num, den)``, num in [-4, 4] over den in 1..3, until one is nonzero.
    With a and b as Gaussian integers ga, gb over the lcm d of the
    denominators, scale2 = d^2 / (|ga|^2 + |gb|^2) makes the matrix exactly
    unitary.
    """
    while True:
        draws = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        if any(num for num, _ in draws):
            break
    ((ar, ai), (br, bi)), d = over_lcm([draws[:2], draws[2:]])
    g = ((ar, ai), (br, bi), (-br, bi), (ar, -ai))
    scale2 = Fraction(d * d, ar * ar + ai * ai + br * br + bi * bi)
    return Unitary2._from_pairs(_ExactOps, g, d, scale2)
