"""Shared test helpers: exact state comparison and independent oracles."""

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from tritangle import GaussianRational, TripartiteState
from tritangle.randstates import random_qubit_vector

BIG = 10**6
big_fracs = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
#: Zero, real, imaginary or fully complex, with denominators up to 10^6.
wide_scalars = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, big_fracs),
    st.builds(lambda im: GaussianRational(0, im), big_fracs),
    st.builds(GaussianRational, big_fracs, big_fracs),
)
pos_fracs = st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG))
#: A positive rational, or the square of one (its sqrt is rational).
scale2s = st.one_of(pos_fracs, pos_fracs.map(lambda f: f * f))


def exact_states(cls):
    """States of ``cls`` on ``wide_scalars`` with a square or non-square scale2."""
    return st.builds(cls, st.tuples(*[wide_scalars] * cls.N_AMPS).filter(any), scale2s)


def same_physical_state(s1, s2) -> bool:
    """Exact equality of the physical vectors sqrt(scale2) * amps.

    Two exact states may split the same vector differently between the
    amplitude tuple and scale2; they are equal when every amplitude ratio
    is one common positive rational r with r^2 = scale2_2 / scale2_1.
    """
    ratio = None
    for a, b in zip(s1.amps, s2.amps):
        if bool(a) != bool(b):
            return False
        if not bool(a):
            continue
        r = a / b
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    if ratio is None:
        return False
    if ratio.im != 0 or ratio.re <= 0:
        return False
    return ratio.re * ratio.re == Fraction(s2.scale2) / Fraction(s1.scale2)


# Independent evaluation paths, written from the index definitions and not
# via the library's submatrix/flattening helpers.

_SLICE_INDEX = {
    ("x", 0): (0, 1, 2, 3),
    ("x", 1): (4, 5, 6, 7),
    ("y", 0): (0, 1, 4, 5),
    ("y", 1): (2, 3, 6, 7),
    ("z", 0): (0, 2, 4, 6),
    ("z", 1): (1, 3, 5, 7),
}


def brute_subdet2(state: TripartiteState, axis_name: str, outcome: int):
    """Normalized squared sub-determinant modulus, by raw index lookup."""
    i00, i01, i10, i11 = _SLICE_INDEX[(axis_name, outcome)]
    a = state.amps
    det = a[i00] * a[i11] - a[i01] * a[i10]
    mod2 = det.abs2() if isinstance(det, GaussianRational) else abs(det) ** 2
    n2 = state.norm2()
    return mod2 * state.scale2 * state.scale2 / (n2 * n2)


def brute_display(state: TripartiteState, det_abs2, eps=0):
    """Display vector assembled from brute_subdet2 plus a given |Det|^2."""
    sub2 = [brute_subdet2(state, ax, o) for ax in "xyz" for o in (0, 1)]
    return reference_display([det_abs2] + sub2, eps)


def reference_display(entries, eps=0):
    """``display_normalize`` of seven squared entries as sqrt(float(v / div2)).

    The quotient is converted to a double before its root is taken, so for
    exact entries it raises OverflowError when v / div2 is beyond the double
    range and reads 0.0 when it is below it.
    """
    det_abs2, sub2 = entries[0], entries[1:]
    if det_abs2 > eps:
        div2 = det_abs2
    elif max(sub2) > eps:
        div2 = max(sub2)
    else:
        return (0.0,) * 7
    return tuple(math.sqrt(float(v / div2)) if v > eps else 0.0 for v in entries)


def reference_product_state(rng):
    """``random_product_state`` as the GaussianRational outer product of the same draws."""
    x, y, z = (random_qubit_vector(rng) for _ in range(3))
    amps = tuple(x[i] * y[j] * z[k] for i in range(2) for j in range(2) for k in range(2))
    return TripartiteState(amps, Fraction(1))


def brute_apply_local(state, units):
    """u1 (x) u2 [(x) u3] applied as the full sum over all input indices.

    a'_lmn = sum_ijk a_ijk u1[i][l] u2[j][m] u3[k][n] (one unit per qubit,
    two or three qubits), with amplitudes in lexicographic index order and
    u[i][l] = entries[2i + l]; the scale2 values multiply.
    """
    indices = list(itertools.product((0, 1), repeat=len(units)))
    amps = []
    for out in indices:
        acc = 0
        for a, inp in zip(state.amps, indices):
            term = a
            for u, i, l in zip(units, inp, out):
                term = term * u.entries[2 * i + l]
            acc = acc + term
        amps.append(acc)
    scale2 = state.scale2
    for u in units:
        scale2 = scale2 * u.scale2
    return type(state)(tuple(amps), scale2)


# Ket text written with Fraction arithmetic, independently of the library's
# int renderer.


def reference_render(terms, divisor):
    """Text of  sum coeff|bits>  /  sqrt(divisor)  for (GaussianRational, bits) terms.

    Each nonzero real and imaginary part is written as its Fraction, a
    magnitude 1 as no number, the imaginary one followed by i.
    """
    pieces = []
    for coeff, bits in terms:
        for part, unit in ((coeff.re, ""), (coeff.im, "i")):
            if part:
                mag = "" if abs(part) == 1 else str(abs(part))
                pieces.append(("-" if part < 0 else "+", f"{mag}{unit}|{bits}>"))
    body = ""
    for idx, (sign, text) in enumerate(pieces):
        if idx == 0:
            body = (sign if sign == "-" else "") + text
        else:
            body += f" {sign} {text}"
    return f"({body})/sqrt({divisor})" if divisor > 1 else body


def reference_ket(state):
    """``state_to_ket`` as a Fraction formula.

    scale2 = num/den is the prefactor sqrt(num)/sqrt(den): every amplitude is
    multiplied by sqrt(num) when that is an integer, over the divisor den, or
    else by num, over the divisor num * den.
    """
    num, den = state.scale2.numerator, state.scale2.denominator
    root = math.isqrt(num)
    mult, divisor = (root, den) if root * root == num else (num, num * den)
    n = 3 if len(state.amps) == 8 else 2
    terms = [(a * mult, format(idx, f"0{n}b")) for idx, a in enumerate(state.amps) if a]
    return reference_render(terms, divisor)
