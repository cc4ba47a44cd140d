"""2x2 unitaries and their local (per-qubit) action on states.

A ``Unitary2`` is a 2x2 matrix M together with ``scale2``, the squared
modulus of a global prefactor g, the physical operator being g*M with
|g|^2 = scale2.  Exact-backend matrices have Gaussian-rational entries and
rational scale2 (e.g. entries [[1,1],[-1,1]] with scale2 = 1/2 for a
1/sqrt(2) prefactor); Haar-random sampling produces double-backend
matrices.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import BackendMismatch
from .scalars import _OPS, GaussianRational, abs2, as_approx, as_exact, is_exact_scalar
from .states import BipartiteState, TripartiteState, _validate

if TYPE_CHECKING:  # numpy is imported only where Haar sampling or to_matrix needs it
    import numpy as np

#: Maximum allowed entry of |U^dagger U - I| for double-backend matrices.
UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class Unitary2:
    """2x2 unitary as (entries m00, m01, m10, m11; squared prefactor)."""

    entries: tuple
    scale2: Fraction | float = Fraction(1)

    def __post_init__(self):
        _validate(self.entries, self.scale2, 4)
        self._check_unitarity()

    def _check_unitarity(self):
        m00, m01, m10, m11 = self.entries
        # M^dagger M entries; must equal (1/scale2) * I.
        g00 = abs2(m00) + abs2(m10)
        g11 = abs2(m01) + abs2(m11)
        g01 = m00.conjugate() * m01 + m10.conjugate() * m11
        if self.backend == "exact":
            target = 1 / self.scale2
            if g00 != target or g11 != target or bool(g01):
                raise ValueError("matrix is not unitary (with its scale2)")
        else:
            target = 1.0 / self.scale2
            residual = max(abs(g00 - target), abs(g11 - target), abs(g01))
            if residual * self.scale2 > UNITARITY_TOL:
                raise ValueError(
                    f"matrix is not unitary: residual {residual * self.scale2:.3e}"
                )

    @property
    def backend(self) -> str:
        return "exact" if is_exact_scalar(self.entries[0]) else "approx"

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
        return (cls.exact if backend == "exact" else cls.approx)([[1, 0], [0, 1]])

    def dagger(self) -> "Unitary2":
        m00, m01, m10, m11 = self.entries
        return Unitary2(
            (m00.conjugate(), m10.conjugate(), m01.conjugate(), m11.conjugate()),
            self.scale2,
        )

    def to_approx(self) -> "Unitary2":
        """Explicit one-way conversion to the double backend."""
        if self.backend == "approx":
            return self
        return Unitary2(tuple(e.to_complex() for e in self.entries), float(self.scale2))

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


def _apply_local(state, units):
    """Apply one unitary per qubit as successive per-axis (mode) products.

    Along each axis in turn a_{..i..} -> a'_{..l..} = sum_i a_{..i..} u[i][l],
    two products per amplitude.  With a_ijk = amps[4i + 2j + k] the index
    bit of the axes is 4, 2, 1 (2, 1 for two qubits).  The products run on
    the state's pairs and on each unitary's entries as pairs over their own
    denominator d_u (Gaussian integers in the exact backend, d_u = 1 for
    doubles); the output amplitudes are built once, over d * prod(d_u).
    """
    for u in units:
        if u.backend != state.backend:
            raise BackendMismatch(
                f"cannot apply a {u.backend} unitary to a {state.backend} state"
            )
    ops = _OPS[state.backend]
    amps, d = state._pairs
    mats = []
    for u in units:
        m, d_u = ops.pairs(u.entries)
        mats.append(m)
        d *= d_u
    amps = list(amps)
    bit = len(amps)
    for m in mats:
        bit >>= 1
        for lo in range(len(amps)):
            if not lo & bit:
                amps[lo], amps[lo | bit] = _combine_gauss(amps[lo], amps[lo | bit], m)
    amps = [ops.scalar(re, im, d) for re, im in amps]
    scale2 = state.scale2
    for u in units:
        scale2 = scale2 * u.scale2
    return type(state)(tuple(amps), scale2)


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
    return Unitary2.approx(
        [
            [phase * cmath.exp(1j * alpha) * c, phase * cmath.exp(1j * beta) * s],
            [-phase * cmath.exp(-1j * beta) * s, phase * cmath.exp(-1j * alpha) * c],
        ]
    )


def random_rational_unitary2(rng) -> Unitary2:
    """Exact-backend unitary [[a, b], [-conj(b), conj(a)]] / sqrt(|a|^2+|b|^2).

    ``rng`` is a ``random.Random``; entries are small Gaussian rationals,
    and scale2 = 1 / (|a|^2 + |b|^2) makes the matrix exactly unitary.
    """
    while True:
        a = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        b = GaussianRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )
        n = a.abs2() + b.abs2()
        if n:
            break
    return Unitary2.exact([[a, b], [-b.conjugate(), a.conjugate()]], Fraction(1, 1) / n)
