"""Shared test helpers: exact state comparison and independent oracles."""

import itertools
import json
import math
from fractions import Fraction

from hypothesis import strategies as st

from tritangle import (
    BipartiteState,
    CollapseResult,
    EmptyState,
    Factorization,
    GaussianRational,
    ImpossibleOutcome,
    KetExpr,
    KetSyntaxError,
    MixedArity,
    NonFinite,
    ResidualNonzero,
    TripartiteState,
    Unitary2,
    UnsupportedIrrational,
)
from tritangle.randstates import random_qubit_vector
from tritangle.scalars import _OPS, DEFAULT_EPS, gauss_det2, gauss_mul
from tritangle.separability import _COLUMN_PAIRS
from tritangle.states import SLICE_INDEX
from tritangle.tokenparser import _Parser

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
    return st.builds(cls, st.tuples(*[wide_scalars] * cls.N_VALUES).filter(any), scale2s)


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


def reference_collapse(state, axis, outcome, eps=DEFAULT_EPS):
    """``collapse`` computed on the slice itself, reading no value the state
    keeps but its pairs: the slice's weight added left to right from its four
    |g_n|^2, the state's as ``sum`` adds its eight, C^2 = 4 |det|^2 /
    weight^2 with det by ``gauss_det2`` of the slice, and the residual
    through every check of ``_from_pairs``.  For doubles every step rounds
    as ``collapse`` does, so the results agree bit for bit."""
    ops = _OPS[state.backend]
    g, d = state._pairs
    pair = tuple(g[n] for n in _SLICE_INDEX[(axis.name.lower(), outcome)])
    (r0, i0), (r1, i1), (r2, i2), (r3, i3) = pair
    weight = (r0 * r0 + i0 * i0) + (r1 * r1 + i1 * i1) + (r2 * r2 + i2 * i2) + (r3 * r3 + i3 * i3)
    prob = ops.div(weight, sum(re * re + im * im for re, im in g), "outcome probability")
    if ops.is_zero(prob, eps):
        raise ImpossibleOutcome(f"outcome {outcome} on qubit {axis.qubit} has probability 0")
    post = BipartiteState._from_pairs(ops, pair, d, state.scale2)
    re, im = gauss_det2(*pair)
    return CollapseResult(prob, post, ops.div(4 * (re * re + im * im), weight * weight, "concurrence^2"))


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


def reference_cayley_g(g):
    """Cayley's hyperdeterminant on ``(re, im)`` pairs, as its expansion in
    the antipodal products p0 = a000 a111, p1 = a001 a110, p2 = a010 a101,
    p3 = a011 a100:

        p0^2 + p1^2 + p2^2 + p3^2 - 2 (p0 p1 + p0 p2 + p0 p3 + p1 p2 + p1 p3 + p2 p3)
        + 4 (a000 a011 a101 a110 + a001 a010 a100 a111)
    """

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    a000, a001, a010, a011, a100, a101, a110, a111 = g
    p = (mul(a000, a111), mul(a001, a110), mul(a010, a101), mul(a011, a100))
    re = im = 0
    for n, pn in enumerate(p):
        sr, si = mul(pn, pn)
        re += sr
        im += si
        for pm in p[n + 1 :]:
            tr, ti = mul(pn, pm)
            re -= 2 * tr
            im -= 2 * ti
    q0 = mul(mul(a000, a011), mul(a101, a110))
    q1 = mul(mul(a001, a010), mul(a100, a111))
    return re + 4 * (q0[0] + q1[0]), im + 4 * (q0[1] + q1[1])


def reference_to_approx(value):
    """``to_approx`` on the values: each through ``GaussianRational.to_complex``,
    built by the constructor with ``float(scale2)``."""
    if value.backend == "approx":
        return value
    values = value.entries if isinstance(value, Unitary2) else value.amps
    return type(value)(tuple(v.to_complex() for v in values), float(value.scale2))


def reference_extract_exact(state):
    """The exact factor extraction with its rebuild check at all eight
    positions n, as g(i, j*, k*) g(i*, j, k*) g(i*, j*, k) == g_n g*^2, and
    each factor ratio built as a new ``Fraction``.  Raises
    :class:`ResidualNonzero` when a position fails."""
    g = state.integer_form[0]
    star = next(n for n in range(8) if g[n] != (0, 0))
    ai, aj, ak = star >> 2, (star >> 1) & 1, star & 1
    anchor2 = gauss_mul(g[star], g[star])
    for n in range(8):
        x = g[4 * (n >> 2) + 2 * aj + ak]
        y = g[4 * ai + (n & 2) + ak]
        z = g[4 * ai + 2 * aj + (n & 1)]
        if gauss_mul(gauss_mul(x, y), z) != gauss_mul(g[n], anchor2):
            raise ResidualNonzero("extracted factors do not reproduce the amplitudes")
    sr, si = g[star]
    norm = sr * sr + si * si

    def ratio(n):
        re, im = gauss_mul(g[n], (sr, -si))
        return GaussianRational(Fraction(re, norm), Fraction(im, norm))

    amps = state.amps
    fx = (amps[2 * aj + ak], amps[4 + 2 * aj + ak])
    fy = (ratio(4 * ai + ak), ratio(4 * ai + 2 + ak))
    fz = (ratio(4 * ai + 2 * aj), ratio(4 * ai + 2 * aj + 1))
    return Factorization(fx, fy, fz)


def reference_quotients(state):
    """The exact quotients the kernels return for an exact state, in the
    order ``kernel_quotients`` in ``test_intkernel.py`` lists them, each
    built as ``Fraction(num, den)`` from the integer form (g, d):

    the amplitude parts; ``norm2``; the seven ``classify`` entries,
    normalized and then not; the probability and residual concurrence^2 of
    each ``collapse`` in ``_SLICE_INDEX`` order whose slice is nonzero; and,
    for a separable state, the parts of the factors fy and fz
    (``reference_extract_exact``).
    """
    g, d = state.integer_form
    s = Fraction(state.scale2)
    weight = sum(re * re + im * im for re, im in g)
    out = [Fraction(part, d) for pair in g for part in pair]
    out.append(s * Fraction(weight, d * d))
    re, im = reference_cayley_g(g)
    det2 = re * re + im * im
    slices = [[g[n] for n in cells] for cells in _SLICE_INDEX.values()]
    sub2 = []
    for c00, c01, c10, c11 in slices:
        re, im = gauss_mul(c00, c11)
        re2, im2 = gauss_mul(c01, c10)
        sub2.append((re - re2) ** 2 + (im - im2) ** 2)
    out += [Fraction(det2, weight**4)] + [Fraction(v, weight**2) for v in sub2]
    out += [s**4 * Fraction(det2, d**8)] + [s * s * Fraction(v, d**4) for v in sub2]
    for cells, v in zip(slices, sub2):
        w = sum(re * re + im * im for re, im in cells)
        if w:
            out += [Fraction(w, weight), Fraction(4 * v, w * w)]
    try:
        fact = reference_extract_exact(state)
    except ResidualNonzero:
        return out
    return out + [part for z in fact.fy + fact.fz for part in (z.re, z.im)]


def reference_first_nonzero_minor(state):
    """``rank1_oracle``'s loop over the flattening minors of an exact state,
    axis by axis and column pair by column pair: ``(k, cells)`` for the k-th
    minor, the first that is not zero, and its four ``(re, im)`` pairs as
    passed to ``gauss_det2``; ``None`` when all 18 are zero."""
    g = state._pairs[0]
    k = 0
    for axis in range(3):
        top, bottom = SLICE_INDEX[2 * axis], SLICE_INDEX[2 * axis + 1]
        for p, q in _COLUMN_PAIRS:
            cells = (g[top[p]], g[top[q]], g[bottom[p]], g[bottom[q]])
            if gauss_det2(*cells) != (0, 0):
                return k, cells
            k += 1
    return None


def perturbed(state, rng):
    """A copy of an exact state with one amplitude plus a small nonzero
    Gaussian rational, drawn again if the sum is the zero vector."""
    while True:
        amps = list(state.amps)
        n = rng.randrange(8)
        delta = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        amps[n] = amps[n] + delta
        if delta and any(amps):
            return TripartiteState(tuple(amps), state.scale2)


def random_fraction(rng, span=9, max_den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def reference_gaussian_rational(rng, span=9):
    """A small Gaussian rational built as ``Fraction`` parts from the draws
    that ``randstates`` takes as ints: a numerator in [-span, span] over a
    denominator in 1..3, and an imaginary part with chance one half."""
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    if rng.random() < 0.5:
        return GaussianRational(re, Fraction(rng.randint(-span, span), rng.randint(1, 3)))
    return GaussianRational(re)


def reference_product_state(rng):
    """``random_product_state`` as the GaussianRational outer product of the same draws."""
    x, y, z = (random_qubit_vector(rng) for _ in range(3))
    amps = tuple(x[i] * y[j] * z[k] for i in range(2) for j in range(2) for k in range(2))
    return TripartiteState(amps, Fraction(1))


def reference_rational_unitary2(rng):
    """``random_rational_unitary2`` built through ``Fraction`` and
    ``GaussianRational`` from the same draws, by the constructor."""
    while True:
        a = GaussianRational(random_fraction(rng, 4), random_fraction(rng, 4))
        b = GaussianRational(random_fraction(rng, 4), random_fraction(rng, 4))
        n = a.abs2() + b.abs2()
        if n:
            break
    return Unitary2.exact([[a, b], [-b.conjugate(), a.conjugate()]], Fraction(1, 1) / n)


def reference_is_unitary(entries, scale2, tol=1e-12) -> bool:
    """The unitarity check written per backend, on the scalars themselves.

    With G = M^dagger M: exact entries must give G = I / scale2 exactly;
    double entries may differ from it by at most tol / scale2 in every
    entry of G.
    """
    m00, m01, m10, m11 = entries
    if isinstance(m00, GaussianRational):
        g00, g11 = m00.abs2() + m10.abs2(), m01.abs2() + m11.abs2()
        g01 = m00.conjugate() * m01 + m10.conjugate() * m11
        target = 1 / scale2
        return g00 == target and g11 == target and not g01
    g00 = sum(z.real * z.real + z.imag * z.imag for z in (m00, m10))
    g11 = sum(z.real * z.real + z.imag * z.imag for z in (m01, m11))
    g01 = m00.conjugate() * m01 + m10.conjugate() * m11
    target = 1.0 / scale2
    return max(abs(g00 - target), abs(g11 - target), abs(g01)) * scale2 <= tol


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


# The ket reader as it was written in passes: a token parser's raw terms,
# checked for one arity, folded over one common square-root divisor, summed
# per basis string over the lcm of their denominators, and built.

_ONE = (((1, 0), 1), 1)  # the coefficient 1, as parse_coeff returns it


class TermParser(_Parser):
    """The token parser as it was before it became the library's recognizer:
    on the same tokens (``peek``, ``advance``, ``expect``), ``parse_expr()``
    returns the raw terms ``(((re, im), den), radical, bits, off)``, each
    times its sign and the group coefficient and divisor."""

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
        numer = self.int_value(self.advance()) if self.peek() == "int" else 1
        imag = False
        if self.peek() == "i":
            self.advance()
            imag = True
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


def _fold_radicals(raw_terms):
    """Rewrite coeff/sqrt(r) terms as (coeff, bits) over one common sqrt divisor."""
    divisor = math.lcm(*(r for _, r, _, _ in raw_terms))
    folded = []
    for ((re, im), den), radical, bits, _ in raw_terms:
        ratio = divisor // radical
        root = math.isqrt(ratio)
        if root * root != ratio:
            raise UnsupportedIrrational(
                "term prefactors cannot be written over one common "
                f"square-root divisor (needed sqrt({ratio}) to be an integer)"
            )
        folded.append((((re * root, im * root), den), bits))
    return folded, divisor


def _merge(terms):
    """Sum the (((re, im), den), bits) terms of each basis string over d, the
    lcm of their den: ``({bits: (re, im)}, d)`` in order of first appearance,
    without the sums that cancel.  Raises :class:`EmptyState` if all do."""
    d = math.lcm(*(den for (_, den), _ in terms))
    sums: dict = {}
    for ((re, im), den), bits in terms:
        k = d // den
        r0, i0 = sums.get(bits, (0, 0))
        sums[bits] = (r0 + re * k, i0 + im * k)
    sums = {bits: pair for bits, pair in sums.items() if any(pair)}
    if not sums:
        raise EmptyState("all coefficients cancel to zero")
    return sums, d


def _build_state(sums, d, divisor):
    """The exact state  sum (sums[bits] / d)|bits>  /  sqrt(divisor), built on ints."""
    n = len(next(iter(sums)))
    g = [(0, 0)] * (1 << n)
    for bits, pair in sums.items():
        g[int(bits, 2)] = pair
    cls = TripartiteState if n == 3 else BipartiteState
    return cls._from_pairs(_OPS["exact"], tuple(g), d, Fraction(1, divisor))


def reference_parse_terms(text: str):
    """``(sums, d, divisor)`` of the token parser's raw terms, in passes."""
    raw_terms = TermParser(text).parse_expr()
    arity = len(raw_terms[0][2])
    for _, _, bits, off in raw_terms:
        if len(bits) != arity:
            raise MixedArity(f"|{bits}> mixes {len(bits)}-qubit and {arity}-qubit kets", off)
    folded, divisor = _fold_radicals(raw_terms)
    return (*_merge(folded), divisor)


def reference_parse(text: str) -> KetExpr:
    sums, d, divisor = reference_parse_terms(text)
    terms = tuple((_OPS["exact"].scalar(re, im, d), bits) for bits, (re, im) in sums.items())
    return KetExpr(terms, divisor)


def reference_parse_state(text: str):
    return _build_state(*reference_parse_terms(text))


# The JSON readers as they were written on scalars: every part through
# ``Fraction(str(x))`` into a ``GaussianRational``, or through ``float``,
# built by the constructor.  A double part may not be a JSON boolean.


def _reference_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _reference_pairs(amps_raw):
    """Each amplitude in order; a string, even of two characters, is no [re, im] pair."""
    for amp in amps_raw:
        if isinstance(amp, str):
            raise ValueError(f"amplitude {amp!r} is not one [re, im] pair")
        yield amp


def reference_state_from_json(obj: dict):
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
            for re, im in _reference_pairs(amps_raw)
        )
        return cls(amps, Fraction(str(obj.get("scale2", "1"))))
    pairs = _reference_pairs(amps_raw)
    amps = tuple(complex(_reference_float(re), _reference_float(im)) for re, im in pairs)
    return cls(amps, _reference_float(obj.get("scale2", 1.0)))


def reference_unitary_from_json(text: str) -> Unitary2:
    from tritangle import cli  # its error class for bad JSON, exit 2

    obj = json.loads(text)
    if isinstance(obj, list):
        obj = {"matrix": obj}
    try:
        matrix = obj["matrix"]
        root = obj.get("sqrt_scale2", 1)
        if not (
            isinstance(matrix, list)
            and len(matrix) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in matrix)
        ):
            raise ValueError("the matrix must be two rows of two cells each")
        entries = []
        exact = not isinstance(root, float)
        for row in matrix:
            for cell in row:
                if isinstance(cell, str):
                    parts = cell.split(",")
                    if len(parts) > 2:
                        raise ValueError(f"cell {cell!r} has more than one comma")
                    re_raw, im_raw = parts[0], parts[1] if len(parts) > 1 else "0"
                    entries.append((Fraction(re_raw.strip()), Fraction(im_raw.strip())))
                elif isinstance(cell, list):
                    if len(cell) != 2:
                        raise ValueError(f"cell {cell!r} is not one [re, im] pair")
                    entries.append((cell[0], cell[1]))
                    exact = exact and not any(isinstance(v, float) for v in cell)
                else:
                    entries.append((cell, 0))
                    exact = exact and not isinstance(cell, float)
        if exact:
            amps = [
                GaussianRational(Fraction(str(re)), Fraction(str(im)))
                for re, im in entries
            ]
        else:
            amps = [complex(_reference_float(re), _reference_float(im)) for re, im in entries]
        try:
            value = Fraction(str(root)) if exact else _reference_float(root)
            scale2 = 1 / value
        except ZeroDivisionError:
            raise ValueError(f"sqrt_scale2 must be nonzero, got {root!r}") from None
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise cli._BadInput(f"bad unitary JSON: {exc}") from exc
    if not exact and not math.isfinite(value):
        raise NonFinite(f"sqrt_scale2 reads as the double {value}")
    return Unitary2(tuple(amps), scale2)
