"""Random state generators for differential testing and bulk verification.

Generic random states are almost never separable (the separable set has
measure zero), so an equivalence test between the classification-based
separability decision and the rank-1 oracle would be vacuous on generic
samples alone.  The mixed pool therefore draws, per state:

    30%  exact products x (x) y (x) z of random one-qubit vectors
    30%  generic states with random small-rational amplitudes
    20%  sparse states with a random planted zero pattern
    10%  antipodal two-term states with random nonzero coefficients
    10%  products pushed through random local unitaries
         (exact rational unitaries in the exact backend, Haar otherwise)

All exact generators use a ``random.Random`` instance so runs are
reproducible from a single seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import _OPS, GaussianRational, gauss_mul, integer_parts
from .states import BipartiteState, TripartiteState
from .unitary import apply_local_3, random_rational_unitary2

if TYPE_CHECKING:  # numpy is imported only where Haar sampling or to_matrix needs it
    import numpy as np

POOL_WEIGHTS = (
    ("product", 0.30),
    ("generic", 0.30),
    ("sparse", 0.20),
    ("antipodal", 0.10),
    ("rotated-product", 0.10),
)


def random_fraction(rng: random.Random, span: int = 9, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_gaussian_rational(
    rng: random.Random, span: int = 9, max_den: int = 3, imag_chance: float = 0.5
) -> GaussianRational:
    re = random_fraction(rng, span, max_den)
    im = random_fraction(rng, span, max_den) if rng.random() < imag_chance else Fraction(0)
    return GaussianRational(re, im)


def _nonzero_gr(rng, span=9, max_den=3):
    while True:
        g = random_gaussian_rational(rng, span, max_den)
        if g:
            return g


def random_qubit_vector(rng: random.Random) -> tuple:
    """A nonzero pair of small Gaussian rationals."""
    while True:
        v = (random_gaussian_rational(rng, 4), random_gaussian_rational(rng, 4))
        if v[0] or v[1]:
            return v


def random_product_state(rng: random.Random) -> TripartiteState:
    """x (x) y (x) z of three random qubit vectors, multiplied on their
    integer forms: a_ijk = gx_i gy_j gz_k / (dx dy dz)."""
    (gx, dx), (gy, dy), (gz, dz) = (integer_parts(random_qubit_vector(rng)) for _ in range(3))
    g = tuple(gauss_mul(gauss_mul(x, y), z) for x in gx for y in gy for z in gz)
    return TripartiteState._from_pairs(_OPS["exact"], g, dx * dy * dz, Fraction(1))


def random_generic_state(rng: random.Random) -> TripartiteState:
    while True:
        amps = tuple(random_gaussian_rational(rng) for _ in range(8))
        if any(bool(a) for a in amps):
            return TripartiteState(amps, Fraction(1))


def random_sparse_state(rng: random.Random) -> TripartiteState:
    """Random support pattern with 1..8 nonzero small-rational entries."""
    support = rng.sample(range(8), rng.randint(1, 8))
    amps = [GaussianRational(0)] * 8
    for idx in support:
        amps[idx] = _nonzero_gr(rng, span=4)
    return TripartiteState(tuple(amps), Fraction(1))


def random_antipodal_state(rng: random.Random) -> TripartiteState:
    """c1|b> + c2|~b> for a random basis ket b and nonzero c1, c2."""
    idx = rng.randrange(8)
    amps = [GaussianRational(0)] * 8
    amps[idx] = _nonzero_gr(rng, span=4)
    amps[7 - idx] = _nonzero_gr(rng, span=4)
    return TripartiteState(tuple(amps), Fraction(1))


def random_rotated_product_state(rng: random.Random) -> TripartiteState:
    """Product state pushed through exact rational local unitaries."""
    s = random_product_state(rng)
    return apply_local_3(
        s,
        random_rational_unitary2(rng),
        random_rational_unitary2(rng),
        random_rational_unitary2(rng),
    )


_KIND_FUNCS = {
    "product": random_product_state,
    "generic": random_generic_state,
    "sparse": random_sparse_state,
    "antipodal": random_antipodal_state,
    "rotated-product": random_rotated_product_state,
}

KINDS = tuple(_KIND_FUNCS) + ("mixed",)


def random_tripartite(rng: random.Random, kind: str = "mixed") -> TripartiteState:
    if kind == "mixed":
        r = rng.random()
        acc = 0.0
        for name, weight in POOL_WEIGHTS:
            acc += weight
            if r < acc:
                kind = name
                break
        else:
            kind = POOL_WEIGHTS[-1][0]
    try:
        return _KIND_FUNCS[kind](rng)
    except KeyError:
        raise ValueError(f"unknown state kind {kind!r}; choose from {KINDS}") from None


def mixed_pool(seed: int, count: int):
    """Reproducible iterator over the documented mixed distribution."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_tripartite(rng, "mixed")


def random_approx_tripartite(rng: np.random.Generator) -> TripartiteState:
    """Unit-norm double-backend state with Gaussian amplitudes."""
    import numpy as np

    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v = v / np.linalg.norm(v)
    return TripartiteState.approx(tuple(complex(z) for z in v))


def random_approx_bipartite(rng: np.random.Generator) -> BipartiteState:
    import numpy as np

    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return BipartiteState.approx(tuple(complex(z) for z in v))


def random_exact_bipartite(rng: random.Random) -> BipartiteState:
    while True:
        amps = tuple(random_gaussian_rational(rng) for _ in range(4))
        if any(bool(a) for a in amps):
            return BipartiteState(amps, Fraction(1))
