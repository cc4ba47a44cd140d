"""The in-process workloads: inputs from a seed, the timed work, the checks.

Each workload class (here and ``cli_oneshot.CliOneshot``) has

* ``generate(seed, n)``: builds ``n`` items during set-up and returns them
  with the exact input properties (pool kind shares) and the time per call
  of each generator it used;
* ``fresh(item)``: a new copy of the item's state objects, made untimed
  before every timed call, so that nothing can be remembered on the objects
  from one pass to the next;
* ``run(item)``: the timed work for one item, returning every output;
* ``check(item, out)``: a list of failures, empty when every output is right;
* ``counts(items, outs)``: exact per-layer counts read from the outputs;
* ``run_traced(item)``, ``warm_up()`` and ``probes(loop)`` where the traced
  run differs or needs more than the spans.

The timed code reaches the library through module attributes
(``H.classify``), so the tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from time import perf_counter

import numpy as np

from tritangle import errors as E
from tritangle import hyperdet as H
from tritangle import ketparser as K
from tritangle import measurement as M
from tritangle import randstates as R
from tritangle import separability as S
from tritangle import states as ST
from tritangle import unitary as U
from tritangle.scalars import DEFAULT_EPS, GaussianRational, abs2

#: Amplitude positions of each (axis, outcome) slice, in AXIS_OUTCOME_ORDER,
#: written from the index definition a_ijk = amps[4i + 2j + k].
SLICE_INDEX = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7))

#: Relative tolerance for identities checked in the double backend.
FLOAT_TOL = 1e-9


def mixed_pool(seed: int, n: int):
    """``randstates.mixed_pool`` plus the kind drawn for each state.

    The kind is read by recording calls to the pool's per-kind generators;
    if the library stops exposing them the kinds read ``unknown``.
    """
    kinds = []
    funcs = getattr(R, "_KIND_FUNCS", {})
    saved = dict(funcs)

    def recorder(kind, fn):
        def generate(rng):
            kinds.append(kind)
            return fn(rng)

        return generate

    try:
        funcs.update({kind: recorder(kind, fn) for kind, fn in saved.items()})
        states = list(R.mixed_pool(seed, n))
    finally:
        funcs.update(saved)
    if len(kinds) != n:
        kinds = ["unknown"] * n
    return states, kinds


def kind_shares(kinds) -> dict:
    return {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))}


def fraction_bits(q: Fraction) -> int:
    """Size of an exact rational: numerator plus denominator bit length."""
    return q.numerator.bit_length() + q.denominator.bit_length()


def amp_bits(state) -> int:
    """Largest exact coefficient of a state, in bits."""
    return max(max(fraction_bits(a.re), fraction_bits(a.im)) for a in state.amps)


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank: ceil(q * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fresh_state(state):
    if state.backend == "exact":
        amps = tuple(GaussianRational(a.re, a.im) for a in state.amps)
    else:
        amps = tuple(complex(a.real, a.imag) for a in state.amps)
    return ST.TripartiteState(amps, state.scale2)


def same_physical_state(s1, s2) -> bool:
    """Exact equality of the vectors sqrt(scale2) * amps of two states."""
    ratio = None
    for a, b in zip(s1.amps, s2.amps):
        if bool(a) != bool(b):
            return False
        if not a:
            continue
        r = a / b
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    if ratio is None or ratio.im != 0 or ratio.re <= 0:
        return False
    return ratio.re * ratio.re == s2.scale2 / s1.scale2


def collapse_all(state):
    """``collapse`` on all six slots; ``None`` marks an impossible outcome."""
    out = []
    for axis, outcome in ST.AXIS_OUTCOME_ORDER:
        try:
            out.append(M.collapse(state, axis, outcome))
        except E.ImpossibleOutcome:
            out.append(None)
    return tuple(out)


def check_collapses(state, vec, results, exact: bool) -> list:
    """Probabilities per qubit sum to 1 and each C^2 matches the sub-entry."""
    errors = []
    n2 = state.norm2()
    for slot, result in enumerate(results):
        if result is None:
            weight = sum(abs2(state.amps[i]) for i in SLICE_INDEX[slot]) * state.scale2
            if exact and weight != 0 or not exact and weight > DEFAULT_EPS * n2:
                errors.append(f"collapse slot {slot} called impossible with weight {weight}")
            continue
        # C^2 of the residual is 4 * sub2 / prob^2 (both refer to unit norm).
        lhs = result.concurrence2 * result.prob * result.prob
        rhs = 4 * vec.sub2[slot]
        if exact and lhs != rhs or not exact and abs(lhs - rhs) > FLOAT_TOL:
            errors.append(f"collapse slot {slot}: C^2 disagrees with sub-entry")
    for axis in range(3):
        total = sum(r.prob for r in results[2 * axis : 2 * axis + 2] if r is not None)
        if exact and total != 1 or not exact and abs(total - 1) > FLOAT_TOL:
            errors.append(f"collapse probabilities on qubit {axis + 1} sum to {total}")
    return errors


class Workload:
    """Defaults shared by the workloads."""

    #: The package import that set-up times in a fresh interpreter.
    import_module = "tritangle"
    #: Pool size.  Fewer items give each item more passes in a run, so its
    #: fastest pass is steadier; at least 200 leave ten items above the p95.
    items = 1000

    def warm_up(self):
        pass

    def fresh(self, item):
        return item

    def run_traced(self, item):
        return self.run(item)

    def probes(self, loop) -> dict:
        return {}


class ExactDecide(Workload):
    """Exact separability decision and classification of the mixed pool."""

    name = "exact-decide"
    default_seed = 20_240_817
    items = 500

    def generate(self, seed, n):
        t0 = perf_counter()
        states, kinds = mixed_pool(seed, n)
        pool_us = (perf_counter() - t0) / n * 1e6
        return states, {"kinds": kind_shares(kinds)}, {"randstates.mixed_pool.us_per_state": pool_us}

    fresh = staticmethod(fresh_state)

    @staticmethod
    def run(state):
        separable = S.is_separable(state)
        oracle = S.rank1_oracle(state)
        vec = H.classify(state)
        display = H.display_normalize(vec)
        factors = S.extract_factors(state) if separable else None
        return separable, oracle, vec, display, factors

    @staticmethod
    def check(state, out):
        separable, oracle, vec, display, factors = out
        errors = []
        if separable != oracle:
            errors.append("decision disagrees with rank1_oracle")
        if H.cayley_det(state) != H.cayley_det_schlafli(state):
            errors.append("cayley_det disagrees with cayley_det_schlafli")
        if vec.is_zero() != separable:
            errors.append("classification vector disagrees with the decision")
        if display[0] not in (0.0, 1.0) or (max(display) == 0.0) != separable:
            errors.append(f"bad display vector {display}")
        if separable:
            rebuilt = tuple(
                factors.fx[i] * factors.fy[j] * factors.fz[k]
                for i in range(2) for j in range(2) for k in range(2)
            )
            if rebuilt != state.amps:
                errors.append("factor rebuild is not exact")
        return errors

    @staticmethod
    def counts(states, outs):
        bits = [fraction_bits(out[2].det_abs2) for out in outs if out[2].det_abs2] or [0]
        return {
            "separability.separable_share": sum(out[0] for out in outs) / len(outs),
            "scalars.det_abs2_bits_p50": nearest_rank(bits, 0.5),
            "scalars.det_abs2_bits_max": max(bits),
        }


class ExactTransform(Workload):
    """Parse, rotate, measure and render exact states: states are built."""

    name = "exact-transform"
    default_seed = 20_240_817
    items = 200

    def generate(self, seed, n):
        t0 = perf_counter()
        states, kinds = mixed_pool(seed, n)
        t1 = perf_counter()
        rng = random.Random(seed + 1)
        units = [tuple(U.random_rational_unitary2(rng) for _ in range(3)) for _ in range(n)]
        t2 = perf_counter()
        items = [(K.state_to_ket(s), s, u) for s, u in zip(states, units)]
        timings = {
            "randstates.mixed_pool.us_per_state": (t1 - t0) / n * 1e6,
            "unitary.random_rational_unitary2.us": (t2 - t1) / (3 * n) * 1e6,
        }
        return items, {"kinds": kind_shares(kinds)}, timings

    @staticmethod
    def run(item):
        ket, _, units = item
        state = K.parse_state(ket)
        out = U.apply_local_3(state, *units)
        collapses = collapse_all(out)
        return state, out, collapses, K.state_to_ket(out), ST.state_to_json(out)

    @staticmethod
    def check(item, out):
        _, source, _ = item
        state, rotated, collapses, ket, record = out
        errors = []
        if not same_physical_state(state, source):
            errors.append("parse_state does not rebuild the pool state")
        if rotated.norm2() != state.norm2():
            errors.append("apply_local_3 changed the norm")
        vec = H.classify(rotated)
        if vec.det_abs2 != H.classify(state).det_abs2:
            errors.append("|Det| changed under local unitaries")
        errors += check_collapses(rotated, vec, collapses, exact=True)
        if not same_physical_state(K.parse_state(ket), rotated):
            errors.append("state_to_ket does not reparse to the state")
        back = ST.state_from_json(json.loads(json.dumps(record, allow_nan=False)))
        if back != rotated:
            errors.append("state_to_json does not round-trip")
        return errors

    @staticmethod
    def counts(items, outs):
        slots = [c for out in outs for c in out[2]]
        return {
            "measurement.collapse.impossible_frac": slots.count(None) / len(slots),
            "scalars.local3_out_bits_p50": nearest_rank([amp_bits(out[1]) for out in outs], 0.5),
        }


class FloatHaar(Workload):
    """The double backend on Haar states and Haar local unitaries."""

    name = "float-haar"
    default_seed = 424242

    def generate(self, seed, n):
        rng = np.random.default_rng(seed)
        states = [R.random_approx_tripartite(rng) for _ in range(n)]
        t0 = perf_counter()
        units = [tuple(U.random_unitary2(rng) for _ in range(3)) for _ in range(n)]
        timings = {"unitary.random_unitary2.us": (perf_counter() - t0) / (3 * n) * 1e6}
        return list(zip(states, units)), {"kinds": {"haar": 1.0}}, timings

    @staticmethod
    def fresh(item):
        state, units = item
        return fresh_state(state), units

    @staticmethod
    def run(item):
        state, units = item
        separable = S.is_separable(state)
        oracle = S.rank1_oracle(state)
        vec = H.classify(state)
        rotated = U.apply_local_3(state, *units)
        vec2 = H.classify(rotated)
        return separable, oracle, vec, rotated, vec2, collapse_all(rotated)

    @staticmethod
    def check(item, out):
        state, _ = item
        separable, oracle, vec, rotated, vec2, collapses = out
        errors = []
        if separable != oracle:
            errors.append("decision disagrees with rank1_oracle")
        det, det_s = H.cayley_det(state), H.cayley_det_schlafli(state)
        if abs(det - det_s) > FLOAT_TOL * max(1.0, abs(det)):
            errors.append("cayley_det disagrees with cayley_det_schlafli")
        if abs(vec.det_abs2 - vec2.det_abs2) > FLOAT_TOL:
            errors.append("|Det| changed under local unitaries")
        if abs(rotated.norm2() - state.norm2()) > FLOAT_TOL:
            errors.append("apply_local_3 changed the norm")
        errors += check_collapses(rotated, vec2, collapses, exact=False)
        return errors

    @staticmethod
    def counts(items, outs):
        slots = [c for out in outs for c in out[5]]
        return {
            "separability.separable_share": sum(out[0] for out in outs) / len(outs),
            "measurement.collapse.impossible_frac": slots.count(None) / len(slots),
        }


def canonical(value) -> str:
    """Stable text of an output, for the digest that compares two commits.

    Doubles are cut to 9 significant digits so that a float backend which
    sums in another order still produces the same digest.
    """
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, complex):
        return f"({canonical(value.real)},{canonical(value.imag)})"
    if isinstance(value, GaussianRational):
        return f"({value.re},{value.im})"
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canonical(v)}" for k, v in sorted(value.items())) + "}"
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__ + canonical([getattr(value, f) for f in value.__dataclass_fields__])
    return str(value)
