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
        "computed_on_normalized=normalized, _ops=ops)",
        "computed_on_normalized=normalized, _ops=_ExactOps)",
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
        "        k = math.gcd(num, den)\n        if k == 1:\n            return _fraction(num, den)",
        "        k = 1\n        if k == 1:\n            return _fraction(num, den)",
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
