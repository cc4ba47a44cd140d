"""A re-runnable catalogue of mutants that the quick tests must kill.

Each entry changes one exact text in one file under ``src/`` and names the
tests expected to fail on the change.  The runner copies ``src/`` and
``tests/`` to a temporary directory, applies one mutant to the copy and runs
only that mutant's tests there; the working tree is never written.  Before the
mutants it runs every listed test on the unchanged copy, so that a kill means
the mutant, not a test that fails anyway.

    python tools/mutants.py          # every mutant
    python tools/mutants.py NAME...  # the named mutants

Each mutant is reported as killed (a listed test failed), survived (all
passed), timed out or error (pytest could not run them).  A timeout is not a
kill.  An entry whose old text no longer occurs exactly once in its file is
stale: a change to a guarded line updates its entry.  The exit status is 0
only when every mutant run is killed.

pytest does not collect this file: the suite's testpaths is ``tests``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/tritangle
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root
    timeout: float = 120.0  # seconds for the listed tests


MUTANTS = (
    Mutant(
        "beta-sign",
        "hyperdet.py",
        "- (r1 * r6 - i1 * i6) - (r2 * r5 - i2 * i5)\n"
        "    bi = (r0 * i7 + i0 * r7) + (r3 * i4 + i3 * r4) - (r1 * i6 + i1 * r6)",
        "+ (r1 * r6 - i1 * i6) - (r2 * r5 - i2 * i5)\n"
        "    bi = (r0 * i7 + i0 * r7) + (r3 * i4 + i3 * r4) + (r1 * i6 + i1 * r6)",
        ("tests/test_hyperdet.py::test_schlafli_matches_on_random_integer_hypermatrices",),
    ),
    Mutant(
        "oracle-reads-slice-dets",
        "separability.py",
        "    g, n = state._pairs[0], state._weight\n",
        "    g, n = state._pairs[0], state._weight\n    state._slice_dets\n",
        ("tests/test_lazy_states.py::test_the_oracles_read_no_kept_kernel_value",),
    ),
    Mutant(
        "schlafli-calls-kernel",
        "hyperdet.py",
        "state._ops.finite(beta * beta - 4 * alpha * gamma,",
        "state._ops.finite(cayley_det(state),",
        ("tests/test_lazy_states.py::test_the_oracles_read_no_kept_kernel_value",),
    ),
    Mutant(
        "exact-is-zero-within-eps",
        "scalars.py",
        "    def is_zero(num, eps, *dens):\n        return not num\n",
        "    def is_zero(num, eps, *dens):\n        return num <= eps\n",
        ("tests/test_separability.py::test_exact_decision_ignores_eps",),
    ),
    Mutant(
        "double-is-zero-drops-a-denominator",
        "scalars.py",
        "        for den in dens:\n",
        "        for den in dens[1:]:\n",
        ("tests/test_separability.py::test_rank1_oracle_ghz_false",),
    ),
    Mutant(
        "to-approx-keeps-exact-ops",
        "states.py",
        "return type(self)._from_pairs(_DoubleOps, pairs, 1, scale2)",
        "return type(self)._from_pairs(_ExactOps, pairs, 1, scale2)",
        ("tests/test_states.py::test_to_approx_is_one_way",),
    ),
    Mutant(
        "checked-pairs-wrong-ops",
        "states.py",
        '_setattr(built, "_ops", ops)',
        '_setattr(built, "_ops", _ExactOps)',
        ("tests/test_measurement.py::test_impossible_outcome_approx",
         "tests/test_lazy_states.py::test_the_carried_backend_survives_every_path"),
    ),
    Mutant(
        "classify-hands-over-exact-ops",
        "hyperdet.py",
        "        _ops=state._ops)",
        "        _ops=_ExactOps)",
        ("tests/test_lazy_states.py::test_the_carried_backend_survives_every_path",),
    ),
    Mutant(
        "unitary-skips-off-diagonal",
        "unitary.py",
        "residuals2 = (r0 * r0, r1 * r1, off_re * off_re + off_im * off_im)",
        "residuals2 = (r0 * r0, r1 * r1)",
        ("tests/test_unitary.py::test_unitary_validation_exact",),
    ),
    Mutant(
        "div-without-gcd",
        "scalars.py",
        "        k = math.gcd(num, den)\n",
        "        k = 1\n",
        ("tests/test_scalars.py::test_exact_div_matches_the_constructor",),
    ),
    Mutant(
        "rebuild-check-drops-a-position",
        "separability.py",
        "for n in (star ^ 3, star ^ 5, star ^ 6, star ^ 7)",
        "for n in (star ^ 3, star ^ 5, star ^ 6)",
        ("tests/test_separability.py::test_exact_rebuild_check_rejects_what_the_eight_position_check_rejects",),
    ),
    Mutant(
        "pairs-reads-the-real-denominator-for-the-imaginary-part",
        "scalars.py",
        "v.im._numerator * (d // v.im._denominator)",
        "v.im._numerator * (d // v.re._denominator)",
        ("tests/test_scalars.py::test_exact_pairs_read_off_the_slots_match_over_lcm",),
    ),
    Mutant(
        "sqrt-ratio-swaps-two-slots",
        "scalars.py",
        "num, den = v._numerator * w._denominator, v._denominator * w._numerator",
        "num, den = v._numerator * w._numerator, v._denominator * w._denominator",
        ("tests/test_scalars.py::test_exact_sqrt_ratio_matches_the_accessor_quotient",),
    ),
    Mutant(
        "exact-all-zero-skips-det",
        "scalars.py",
        "return not any(values)",
        "return not any(values[1:])",
        ("tests/test_separability.py::test_antipodal_pair_family",),
    ),
    Mutant(
        "exact-all-zero-within-eps",
        "scalars.py",
        "return not any(values)",
        "return all(v <= eps for v in values)",
        ("tests/test_separability.py::test_exact_decision_ignores_eps",),
    ),
    Mutant(
        "unit-shortcut-off-the-anchor",
        "separability.py",
        "if n == star:",
        "if n == star & 5:",
        ("tests/test_separability.py::test_anchor_entries_are_one_and_factors_rebuild_the_criterion_5_pool",),
    ),
    Mutant(
        "collapse-reads-the-neighbouring-determinant",
        "measurement.py",
        "state._slice_dets[slot]",
        "state._slice_dets[slot ^ 1]",
        ("tests/test_measurement.py::test_collapse_from_kept_values_matches_the_reference",),
    ),
    Mutant(
        "reader-drops-the-denominator-rescale",
        "ketparser.py",
        "        k = d // den\n",
        "        k = 1\n",
        ("tests/test_ketparser.py::test_parse_keeps_first_appearance_order",),
    ),
    Mutant(
        "reader-drops-the-root-on-a-second-radical",
        "ketparser.py",
        "            k *= root\n",
        "",
        ("tests/test_ketparser.py::test_radicals_fold_over_their_lcm",),
    ),
    Mutant(
        "reader-drops-the-group-coefficient",
        "ketparser.py",
        "g_re, g_im, g_den, factor = head\n",
        "g_re, g_im, g_den, factor = 1, 0, 1, head[3]\n",
        ("tests/test_ketparser.py::test_psi_expression_group_coefficient",),
    ),
    Mutant(
        "reader-drops-the-term-sign",
        "ketparser.py",
        '        value = -value if sign == "-" else value\n',
        "",
        ("tests/test_ketparser.py::test_coefficient_forms",),
    ),
    Mutant(
        "reader-checks-radicals-before-arity",
        "ketparser.py",
        "        if len(bits) != arity:\n"
        '            raise MixedArity(f"|{bits}> mixes {len(bits)}-qubit and {arity}-qubit kets", off)\n'
        "        d, radical = math.lcm(d, den), math.lcm(radical, r)\n"
        "    sums = {}\n",
        "        d, radical = math.lcm(d, den), math.lcm(radical, r)\n"
        "    for _, _, den, r, bits, off in terms:  # the radicals first\n"
        "        if r != radical and math.isqrt(radical // r) ** 2 != radical // r:\n"
        "            break\n"
        "        if len(bits) != arity:\n"
        '            raise MixedArity(f"|{bits}> mixes {len(bits)}-qubit and {arity}-qubit kets", off)\n'
        "    sums = {}\n",
        ("tests/test_ketparser.py::test_a_text_that_breaks_two_rules_raises_the_first",),
    ),
    Mutant(
        "bad-input-exits-3",
        "cli.py",
        "(KetSyntaxError, _BadInput, EmptyState,",
        "(KetSyntaxError, EmptyState,",
        ("tests/test_cli.py::test_no_expression_exit2",),
    ),
    Mutant(
        "backend-mismatch-exits-3",
        "cli.py",
        "return BACKEND_ERROR if isinstance(exc, BackendMismatch) else PRECONDITION_ERROR",
        "return PRECONDITION_ERROR",
        ("tests/test_cli.py::test_transform_backend_mismatch_exit4",),
    ),
    Mutant(
        "nonfinite-note-dropped",
        "cli.py",
        'note = "; no text or JSON result is printed" if isinstance(exc, NonFinite) else ""',
        'note = ""',
        ("tests/test_cli.py::test_nonfinite_error_notes_that_nothing_is_printed",),
    ),
    Mutant(
        "text-printed-under-json",
        "cli.py",
        "print(json.dumps(record, allow_nan=False) if args.json else text)",
        "print(text)",
        ("tests/test_cli.py::test_json_mode_prints_the_record_alone",),
    ),
    Mutant(
        "random-exit-code-dropped",
        "cli.py",
        "return summary, text, 1 if mismatches else 0",
        "return summary, text",
        ("tests/test_cli.py::test_random_exits_1_when_the_oracle_disagrees",),
    ),
    Mutant(
        "closed-stdout-raises",
        "cli.py",
        "        code = 141\n",
        "        raise\n",
        ("tests/test_cli.py::test_closed_stdout_exits_141_without_a_traceback",),
    ),
    Mutant(
        "string-amplitude-unpacked",
        "states.py",
        "        if isinstance(amp, str):\n",
        "        if False:\n",
        ("tests/test_cli.py::test_state_json_string_amplitude_exit2",),
    ),
    Mutant(
        "reader-takes-a-zero-denominator",
        "ketparser.py",
        "        if not den or not radical:\n",
        "        if not radical:\n",
        ("tests/test_ketparser.py::test_scanner_passes_on_what_it_does_not_take",),
    ),
    Mutant(
        "reader-drops-the-group-divisor",
        "ketparser.py",
        "(*group[:3], group[3] * divisor)",
        "(*group[:3], group[3])",
        ("tests/test_ketparser.py::test_ghz_expression",),
    ),
    Mutant(
        "reader-takes-a-sign-before-a-group",
        "ketparser.py",
        "        elif sign or group or terms:",
        "        elif group or terms:",
        ("tests/test_ketparser.py::test_scanner_passes_on_what_it_does_not_take",),
    ),
    Mutant(
        "reader-takes-a-term-without-a-sign",
        "ketparser.py",
        "        if (sign is None and terms) or (i_before and i_after):\n",
        "        if i_before and i_after:\n",
        ("tests/test_ketparser.py::test_scanner_passes_on_what_it_does_not_take",),
    ),
    Mutant(
        "render-without-gcd",
        "ketparser.py",
        "            k = gcd(num, d)\n",
        "            k = 1\n",
        ("tests/test_ketparser.py::test_hand_written_coefficients",),
    ),
    Mutant(
        "rebuild-check-one-index-away",
        "separability.py",
        "for n in (star ^ 3, star ^ 5, star ^ 6, star ^ 7)",
        "for n in (star ^ 1, star ^ 5, star ^ 6, star ^ 7)",
        ("tests/test_separability.py::test_exact_rebuild_check_rejects_what_the_eight_position_check_rejects",),
    ),
    Mutant(
        "rebuild-check-wrong-line-index",
        "separability.py",
        "(star & 6) | (n & 1))",
        "(star & 6) | (n & 2))",
        ("tests/test_separability.py::test_extract_factors_signed_product",),
    ),
    Mutant(
        "minor-table-reads-one-slice-twice",
        "separability.py",
        "zip(SLICE_INDEX[::2], SLICE_INDEX[1::2])",
        "zip(SLICE_INDEX[::2], SLICE_INDEX[::2])",
        ("tests/test_separability.py::test_rank1_oracle_ghz_false",),
    ),
    Mutant(
        "fx-off-the-anchor-line",
        "separability.py",
        "fx = (amps[star & 3], amps[4 | (star & 3)])",
        "fx = (amps[star & 3], amps[4 | (star & 1)])",
        ("tests/test_separability.py::test_anchor_entries_are_one_and_factors_rebuild_the_criterion_5_pool",),
    ),
    Mutant(
        "fz-off-the-anchor-line",
        "separability.py",
        "fz = (ratio(star & 6), ratio((star & 6) | 1))",
        "fz = (ratio(star & 6), ratio((star & 4) | 1))",
        ("tests/test_separability.py::test_anchor_entries_are_one_and_factors_rebuild_the_criterion_5_pool",),
    ),
    Mutant(
        "gaussian-swaps-parts",
        "scalars.py",
        "    _set_re(z, re)\n    _set_im(z, im)\n",
        "    _set_re(z, im)\n    _set_im(z, re)\n",
        ("tests/test_scalars.py::test_integers_and_fractions_mix_in",),
    ),
    Mutant(
        "norm2-drops-q",
        "states.py",
        'return ops.div(s * self._weight, q * d * d, "norm2")',
        'return ops.div(s * self._weight, d * d, "norm2")',
        ("tests/test_states.py::test_norm2_ghz_normalized",),
    ),
    Mutant(
        "sub-concurrences-drop-q",
        "hyperdet.py",
        "num, den = s * s, (q * d * d) ** 2",
        "num, den = s * s, (d * d) ** 2",
        ("tests/test_hyperdet.py::test_sub_concurrences_w",),
    ),
    Mutant(
        "sub-concurrences-scale-not-squared",
        "hyperdet.py",
        "num, den = s * s, (q * d * d) ** 2",
        "num, den = s, (q * d * d) ** 2",
        ("tests/test_intkernel.py::test_unnormalized_classification_matches_references",),
    ),
    Mutant(
        "vector-backend-from-det-only",
        "hyperdet.py",
        "for v in (det_abs2, *sub2))",
        "for v in (det_abs2,))",
        ("tests/test_hyperdet.py::test_an_int_det_entry_leaves_the_vector_exact",),
    ),
    Mutant(
        "double-anchor-first-nonzero",
        "scalars.py",
        "return abs2.index(max(abs2))",
        "return next(n for n, v in enumerate(abs2) if v)",
        ("tests/test_separability.py::test_double_extraction_anchors_on_the_largest_modulus",),
    ),
    Mutant(
        "rebuild-tolerance-unsquared",
        "separability.py",
        "1e-18, norm, norm * norm)",
        "1e-9, norm, norm * norm)",
        ("tests/test_separability.py::test_double_extraction_matches_the_complex_division_reference",),
    ),
    Mutant(
        "apply-local-drops-q",
        "unitary.py",
        "s, q = s * u_s, q * u_q",
        "s, q = s * u_s, q",
        ("tests/test_unitary.py::test_ghz_maps_to_psi",),
    ),
    Mutant(
        "collapse-weight-order",
        "measurement.py",
        "weight = (r0 * r0 + i0 * i0) + (r1 * r1 + i1 * i1) + (r2 * r2 + i2 * i2) + (r3 * r3 + i3 * i3)",
        "weight = (r3 * r3 + i3 * i3) + (r2 * r2 + i2 * i2) + (r1 * r1 + i1 * i1) + (r0 * r0 + i0 * i0)",
        ("tests/test_measurement.py::test_collapse_from_kept_values_matches_the_reference",),
    ),
    Mutant(
        "slot-takes-a-float-outcome",
        "states.py",
        'outcome not in (0, 1) or not hasattr(outcome, "__index__")',
        "outcome not in (0, 1)",
        ("tests/test_measurement.py::test_outcome_must_be_the_integer_0_or_1",),
    ),
    Mutant(
        "schlafli-reads-slice-dets",
        "hyperdet.py",
        "    a000, a001, a010, a011, a100, a101, a110, a111 = state.amps\n",
        "    state._slice_dets\n    a000, a001, a010, a011, a100, a101, a110, a111 = state.amps\n",
        ("tests/test_lazy_states.py::test_the_oracles_read_no_kept_kernel_value",),
    ),
    Mutant(
        "json-string-underflow-unchecked",
        "states.py",
        "    if not exact and isinstance(value, str) and _underflows(value, part):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_double_string_below_the_range_exit3",),
    ),
    Mutant(
        "classify-recomputes-the-slice-dets",
        "hyperdet.py",
        "    dets = state._slice_dets\n",
        "    dets = type(state)._slice_dets.func(state)\n",
        ("tests/test_lazy_states.py::test_slice_determinants_are_computed_once_per_state",),
    ),
    Mutant(
        "sub-concurrences-recompute-the-slice-dets",
        "hyperdet.py",
        "for r, i in state._slice_dets])",
        "for r, i in type(state)._slice_dets.func(state)])",
        ("tests/test_lazy_states.py::test_slice_determinants_are_computed_once_per_state",),
    ),
    Mutant(
        "cayley-det-recomputes-the-slice-dets",
        "hyperdet.py",
        "re, im = _entries_g(g, state._slice_dets)",
        "re, im = _entries_g(g, type(state)._slice_dets.func(state))",
        ("tests/test_lazy_states.py::test_slice_determinants_are_computed_once_per_state",),
    ),
    Mutant(
        "apply-local-skips-the-arity-check",
        "unitary.py",
        "    if len(units) != qubits:\n",
        "    if False:\n",
        ("tests/test_unitary.py::test_local_application_takes_one_unitary_per_qubit",),
    ),
    Mutant(
        "state-json-takes-any-shape",
        "states.py",
        '    if isinstance(amps_raw, dict) or not hasattr(amps_raw, "__len__"):',
        "    if False:",
        ("tests/test_cli.py::test_state_json_of_another_shape_exit2",),
    ),
    Mutant(
        "state-json-reads-a-mapping",
        "states.py",
        "    if isinstance(amps_raw, dict) or not",
        "    if not",
        ("tests/test_cli.py::test_state_from_json_rejects_a_mapping_of_amplitudes",),
    ),
    Mutant(
        "line-table-swaps-a-pair",
        "unitary.py",
        "tuple((lo, lo | bit) for lo in range(n)",
        "tuple((lo, lo | bit) if (n, lo, bit) != (8, 0, 4) else (4, 0) for lo in range(n)",
        ("tests/test_unitary.py::test_mode_product_matches_the_bit_test_loop_on_the_mixed_pool",),
    ),
    Mutant(
        "store-step-skips-the-check",
        "states.py",
        "        built._check(pairs[0])\n",
        "",
        ("tests/test_measurement.py::test_a_zero_slice_is_refused_at_the_store_step",),
    ),
    Mutant(
        "constructor-skips-the-checks",
        "states.py",
        "        self._from_pairs(ops, g, d, scale2, self)\n",
        "        self._from_checked_pairs(ops, g, d, scale2, self)\n",
        ("tests/test_lazy_states.py::test_from_pairs_checks_the_constructor_invariants",),
    ),
    Mutant(
        "double-parts-skip-the-finite-check",
        "states.py",
        "finite = exact or all(math.isfinite(re) and math.isfinite(im) for re, im in g)",
        "finite = True",
        ("tests/test_lazy_states.py::test_from_pairs_checks_the_constructor_invariants",),
    ),
    Mutant(
        "double-value-that-is-no-number-raises-attribute-error",
        "scalars.py",
        "_double_part(z.imag)) for z in values]), 1\n        except AttributeError:\n",
        "_double_part(z.imag)) for z in values]), 1\n        except LookupError:\n",
        ("tests/test_lazy_states.py::test_from_pairs_checks_the_constructor_invariants",),
    ),
    Mutant(
        "double-pairs-keep-ints",
        "scalars.py",
        '    if part.__class__ is float or not hasattr(part, "__index__"):\n',
        "    if True:\n",
        ("tests/test_lazy_states.py::test_int_values_of_a_double_value_are_stored_as_doubles",
         "tests/test_lazy_states.py::test_an_int_value_beyond_the_double_range_is_non_finite"),
    ),
    Mutant(
        "haar-draws-swapped",
        "unitary.py",
        "    alpha, beta, phi, u = rng.random(4).tolist()\n",
        "    beta, alpha, phi, u = rng.random(4).tolist()\n",
        ("tests/test_lazy_states.py::test_haar_draws_give_the_old_values",),
    ),
    Mutant(
        "haar-state-parts-swapped",
        "randstates.py",
        "zip(v.real.tolist(), v.imag.tolist())",
        "zip(v.imag.tolist(), v.real.tolist())",
        ("tests/test_lazy_states.py::test_haar_draws_give_the_old_values",),
    ),
    Mutant(
        "json-exponent-unbounded",
        "states.py",
        "    if exponent:  # compared by length first: reading long digits as an int is slow too\n",
        "    if False:\n",
        ("tests/test_cli.py::test_exact_string_with_an_exponent_past_the_cap_exit2",),
    ),
    Mutant(
        "reduce-divides-only-the-real-parts",
        "scalars.py",
        "[(re // k, im // k) for re, im in g]",
        "[(re // k, im) for re, im in g]",
        ("tests/test_scalars.py::test_exact_reduce_matches_the_pairs_of_its_quotients",),
    ),
    Mutant(
        "impossible-outcome-hides-its-probability",
        "measurement.py",
        'shown = f"{prob!r}, at most eps = {eps!r}" if prob else "0"',
        'shown = "0"',
        ("tests/test_measurement.py::test_impossible_double_outcome_within_eps_names_its_probability",),
    ),
    Mutant(
        "constructor-keeps-the-sequence",
        "states.py",
        "        values = tuple(values)  # the same object for a tuple\n",
        "",
        ("tests/test_values.py::test_constructors_store_a_tuple",),
    ),
    Mutant(
        "vector-keeps-the-sequence",
        "hyperdet.py",
        "        sub2 = tuple(sub2)  # the same object for a tuple\n",
        "",
        ("tests/test_values.py::test_constructors_store_a_tuple",),
    ),
    Mutant(
        "cli-names-its-own-qubit-count",
        "cli.py",
        "        raise _qubit_count_error(3, state)\n",
        '        raise ValueError("this command needs a 3-qubit state")\n',
        ("tests/test_cli.py::test_a_two_qubit_state_is_named_as_the_library_names_it",),
    ),
    Mutant(
        "submatrix-skips-the-qubit-count",
        "hyperdet.py",
        "    g, d = state._pairs\n    if len(g) != 8:\n",
        "    g, d = state._pairs\n    if False:\n",
        ("tests/test_states.py::test_the_wrong_qubit_count_raises_one_value_error",),
    ),
    Mutant(
        "ket-expr-takes-any-divisor",
        "ketparser.py",
        "        if global_divisor.__class__ is not int:\n",
        "        if False:\n",
        ("tests/test_values.py::test_ket_expr_rejects_what_render_and_to_state_cannot_read",),
    ),
    Mutant(
        "random-takes-eps-again",
        "cli.py",
        '    sub.add_argument("--kind", default="mixed").choices = _KindNames()\n',
        '    sub.add_argument("--kind", default="mixed").choices = _KindNames()\n'
        '    sub.add_argument("--eps", type=_nonnegative(float), default=DEFAULT_EPS)\n',
        ("tests/test_cli.py::test_exact_only_commands_take_no_eps",),
    ),
)


def _copy_tree(dest: Path) -> Path:
    """Copy ``src/``, ``tests/`` and the pytest settings to ``dest``, where the
    tests run: they import the copy of the package, and hypothesis keeps its
    examples there."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def _run_tests(tree: Path, tests, timeout: float) -> str:
    """Run ``tests`` in the copy ``tree``: "passed", "failed", "timeout" or "error"."""
    # The project's pytest settings put the copy's src first on the path.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(done.returncode, "error")


#: A mutant's outcome from its tests' result.
_OUTCOMES = {"failed": "killed", "passed": "survived", "timeout": "timed out", "error": "error"}


def _apply(tree: Path, mutant: Mutant) -> bool:
    path = tree / "src" / "tritangle" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = sorted({t for m in chosen for t in m.tests})
        baseline = _run_tests(_copy_tree(Path(tmp) / "base"), tests, sum(m.timeout for m in chosen))
        if baseline != "passed":
            print(f"the listed tests do not pass on the unchanged source: {baseline}")
            return 1
        counts = {}
        for n, mutant in enumerate(chosen):
            tree = _copy_tree(Path(tmp) / f"m{n}")
            start = time.perf_counter()
            if not _apply(tree, mutant):
                outcome = "stale"
            else:
                outcome = _OUTCOMES[_run_tests(tree, mutant.tests, mutant.timeout)]
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{outcome:<10} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
            shutil.rmtree(tree)
    print(", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0 if set(counts) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
