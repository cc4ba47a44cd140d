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
reproducible from a single seed.  They draw each part as an int
``(num, den)`` and build the state from Gaussian integers over the lcm of
the denominators (``scalars.over_lcm``), not from scalars.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import _ExactOps, gauss_mul, over_lcm
from .states import BipartiteState, TripartiteState

if TYPE_CHECKING:  # numpy is imported only where Haar sampling or to_matrix needs it
    import numpy as np


POOL_WEIGHTS = (
    ("product", 0.30),
    ("generic", 0.30),
    ("sparse", 0.20),
    ("antipodal", 0.10),
    ("rotated-product", 0.10),
)


def _draw_parts(rng, span=9):
    """A small Gaussian rational as int ``((re, re_den), (im, im_den))`` parts:
    numerators in [-span, span] over denominators in 1..3, the imaginary
    part drawn with chance one half (else ``(0, 1)``)."""
    re = rng.randint(-span, span), rng.randint(1, 3)
    if rng.random() < 0.5:
        return re, (rng.randint(-span, span), rng.randint(1, 3))
    return re, (0, 1)


def _nonzero_draws(rng, n, span=4):
    """``n`` draws of :func:`_draw_parts`, all drawn again until one is nonzero."""
    while True:
        parts = [_draw_parts(rng, span) for _ in range(n)]
        if any(re or im for (re, _), (im, _) in parts):
            return parts


def _exact_state(cls, parts):
    return cls._from_pairs(_ExactOps, *over_lcm(parts), Fraction(1))


def random_qubit_vector(rng: random.Random) -> tuple:
    """A nonzero pair of small Gaussian rationals."""
    g, d = over_lcm(_nonzero_draws(rng, 2))
    return tuple(_ExactOps.scalar(re, im, d) for re, im in g)


def random_product_state(rng: random.Random) -> TripartiteState:
    """x (x) y (x) z of three random qubit vectors, multiplied on their
    integer forms: a_ijk = gx_i gy_j gz_k / (dx dy dz)."""
    (gx, dx), (gy, dy), (gz, dz) = (over_lcm(_nonzero_draws(rng, 2)) for _ in range(3))
    g = tuple(gauss_mul(gauss_mul(x, y), z) for x in gx for y in gy for z in gz)
    return TripartiteState._from_pairs(_ExactOps, g, dx * dy * dz, Fraction(1))


def random_generic_state(rng: random.Random) -> TripartiteState:
    return _exact_state(TripartiteState, _nonzero_draws(rng, 8, span=9))


def random_sparse_state(rng: random.Random) -> TripartiteState:
    """Random support pattern with 1..8 nonzero small-rational entries."""
    support = rng.sample(range(8), rng.randint(1, 8))
    parts = [((0, 1), (0, 1))] * 8
    for idx in support:
        parts[idx] = _nonzero_draws(rng, 1)[0]
    return _exact_state(TripartiteState, parts)


def random_antipodal_state(rng: random.Random) -> TripartiteState:
    """c1|b> + c2|~b> for a random basis ket b and nonzero c1, c2."""
    idx = rng.randrange(8)
    parts = [((0, 1), (0, 1))] * 8
    parts[idx] = _nonzero_draws(rng, 1)[0]
    parts[7 - idx] = _nonzero_draws(rng, 1)[0]
    return _exact_state(TripartiteState, parts)


def random_rotated_product_state(rng: random.Random) -> TripartiteState:
    """Product state pushed through exact rational local unitaries."""
    from .unitary import apply_local_3, random_rational_unitary2

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
        for name, weight in POOL_WEIGHTS:  # the weights add to exactly 1.0 in doubles
            acc += weight
            if r < acc:
                kind = name
                break
    try:
        return _KIND_FUNCS[kind](rng)
    except KeyError:
        raise ValueError(f"unknown state kind {kind!r}; choose from {KINDS}") from None


def mixed_pool(seed: int, count: int):
    """Reproducible iterator over the documented mixed distribution."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_tripartite(rng, "mixed")


def _approx_state(cls, rng):
    """A unit-norm double-backend state of ``cls`` with Gaussian amplitudes:
    the real parts drawn first, then the imaginary parts."""
    import numpy as np

    v = rng.normal(size=cls.N_VALUES) + 1j * rng.normal(size=cls.N_VALUES)
    v = v / np.linalg.norm(v)
    return cls.approx(tuple(complex(z) for z in v))


def random_approx_tripartite(rng: np.random.Generator) -> TripartiteState:
    """Unit-norm double-backend state with Gaussian amplitudes."""
    return _approx_state(TripartiteState, rng)


def random_approx_bipartite(rng: np.random.Generator) -> BipartiteState:
    """Unit-norm double-backend two-qubit state with Gaussian amplitudes."""
    return _approx_state(BipartiteState, rng)


def random_exact_bipartite(rng: random.Random) -> BipartiteState:
    return _exact_state(BipartiteState, _nonzero_draws(rng, 4, span=9))
