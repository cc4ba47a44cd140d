"""Command-line front end.

Subcommands: classify, table, measure, transform, check-sep, factor,
random.  States are given as ket expressions (see
:mod:`tritangle.ketparser` for the grammar) or as a JSON file via
``--json-state``.  Each command returns its record and its text; :func:`main`
prints one of them on stdout (``--json`` for the record), or one error line
on stderr with the exit code :func:`_exit_code` gives.

Exit codes: 0 success; 1 ``random`` found a state where the rank-1 oracle
disagrees; 2 expression/JSON parse error, no expression, unreadable state
file or bad option value; 3 precondition failure (wrong qubit count for
the command, impossible measurement outcome, factoring a non-separable
state or a double state that is separable only within eps, a matrix that
is not unitary, NaN or infinite double-backend values, a nonzero JSON
number that reads as the double 0.0); 4 exact/double backend mismatch;
141 stdout closed early (the ``tritangle`` command only).

Each process loads only the modules its command runs.  This module imports
what the commands share (``errors``, ``scalars``, ``states``, ``ketparser``);
the rest are imported inside the commands that use them: ``hyperdet`` and
``separability`` by all but ``measure`` and ``transform``, and
``measurement``, ``unitary``, ``catalog`` and ``randstates`` by one or two.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    BackendMismatch,
    EmptyState,
    InputFileError,
    KetSyntaxError,
    NonFinite,
    TritangleError,
    UnsupportedIrrational,
)
from .ketparser import parse_state, state_to_ket
from .scalars import DEFAULT_EPS, GaussianRational, _DoubleOps, _ExactOps, over_lcm
from .states import (
    Axis,
    TripartiteState,
    _clip,
    _json_float,
    _json_part,
    state_from_json,
    state_to_json,
)

if TYPE_CHECKING:
    from .unitary import Unitary2

PARSE_ERROR, PRECONDITION_ERROR, BACKEND_ERROR = 2, 3, 4


def _enc(value):
    """JSON-encodable form: Fractions as strings, floats as numbers."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def _enc_scalar(value):
    if isinstance(value, GaussianRational):
        return [str(value.re), str(value.im)]
    z = complex(value)
    return [z.real, z.imag]


def _nonnegative(kind):
    """argparse type: a finite number of ``kind`` that is at least 0."""

    def parse(text):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _fmt_display(display) -> str:
    head = f"{display[0]:g}"
    rest = ", ".join(f"{v:g}" for v in display[1:])
    return f"[{head}; {rest}]"


def _load_tripartite(args) -> TripartiteState:
    if getattr(args, "json_state", None):
        try:
            with open(args.json_state, "r", encoding="utf-8") as fh:
                raw = json.load(fh, parse_float=_json_float)
            state = state_from_json(raw)
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFileError(f"cannot read state file {args.json_state!r}: {exc}") from exc
        except NonFinite:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            raise _BadInput(f"bad state JSON: {exc}") from exc
    else:
        if args.expr is None:
            raise _BadInput("no expression given")
        state = parse_state(args.expr)
    if not isinstance(state, TripartiteState):
        raise ValueError("this command needs a 3-qubit state")
    if getattr(args, "float", False):
        state = state.to_approx()
    return state


class _BadInput(TritangleError):
    """Bad input, exit 2 with no ket offset: no expression, a JSON decoder error,
    nesting deeper than the decoder goes (RecursionError), or JSON values that
    make no state or unitary."""


def _read_part(part, exact):
    """One part of a ``--u1`` cell.  A text cell's part arrives as ``(text,
    (num, den))``, read as a rational with its cell: ``(num, den)`` if exact,
    else the correctly rounded num / den, which raises NonFinite when it is
    beyond the double range or nonzero and reads as 0.0.  Any other part is a
    JSON value, read as a rational if exact."""
    if not isinstance(part, tuple):
        return _json_part(part, exact)
    text, (num, den) = part
    if exact:
        return num, den
    try:
        value = num / den
    except OverflowError:
        raise NonFinite(f"the text cell part {_clip(repr(text.strip()))} is beyond the double range") from None
    if num and not value:
        raise NonFinite(
            f"the text cell part {_clip(repr(text.strip()))} is below the double range: it reads as 0.0"
        )
    return value


def _unitary_from_json(text: str) -> Unitary2:
    from .unitary import Unitary2

    try:
        obj = json.loads(text, parse_float=_json_float)
        if isinstance(obj, list):
            obj = {"matrix": obj}
        matrix = obj["matrix"]
        root = obj.get("sqrt_scale2", 1)
        if not (
            isinstance(matrix, list)
            and len(matrix) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in matrix)
        ):
            raise ValueError("the matrix must be two rows of two cells each")
        cells = []
        exact = not isinstance(root, float)
        for row in matrix:
            for cell in row:
                if isinstance(cell, str):
                    parts = cell.split(",")
                    if len(parts) > 2:
                        raise ValueError(f"cell {_clip(repr(cell))} has more than one comma")
                    cells.append([(part, _json_part(part, True)) for part in (parts + ["0"])[:2]])
                    continue
                if not isinstance(cell, list):
                    cell = [cell, 0]
                elif len(cell) != 2:
                    raise ValueError(f"cell {_clip(repr(cell))} is not one [re, im] pair")
                cells.append(cell)
                exact = exact and not any(isinstance(v, float) for v in cell)
        g = [tuple(_read_part(part, exact) for part in cell) for cell in cells]
        try:
            value = Fraction(*_json_part(root, True)) if exact else _json_part(root, False)
            scale2 = 1 / value
        except ZeroDivisionError:
            raise ValueError(f"sqrt_scale2 must be nonzero, got {_clip(repr(root))}") from None
    except NonFinite:  # a ValueError, but a number below the double range exits 3
        raise
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
        raise _BadInput(f"bad unitary JSON: {exc}") from exc
    # Checked and built outside the try: a root or a matrix that is not finite
    # (JSON reads 1e400 as inf), or a matrix that is not unitary, exits 3.
    if not exact and not math.isfinite(value):
        raise NonFinite(
            f"sqrt_scale2 reads as the double {value}, not a finite number in the double range"
        )
    if exact:
        return Unitary2._from_pairs(_ExactOps, *over_lcm(g), scale2)
    return Unitary2._from_pairs(_DoubleOps, tuple(g), 1, scale2)


def _classification_record(state, eps):
    from .hyperdet import classify, display_normalize
    from .separability import is_separable

    vec = classify(state)
    display = list(display_normalize(vec, eps))
    return {
        "det_abs2": _enc(vec.det_abs2),
        "sub2": [_enc(v) for v in vec.sub2],
        "display": display,
        "separable": is_separable(state, eps),
    }


def cmd_classify(args):
    record = _classification_record(_load_tripartite(args), args.eps)
    return record, "\n".join([
        f"|Det|^2            : {record['det_abs2']}",
        f"sub-concurrences^2 : {record['sub2']}  (order x0 x1 y0 y1 z0 z1)",
        f"display            : {_fmt_display(record['display'])}",
        f"separable          : {'yes' if record['separable'] else 'no'}",
    ])


def _table_status(computed, quoted) -> str:
    comp = tuple(round(v, 9) for v in computed)
    quot = tuple(float(v) for v in quoted)
    if comp == quot:
        return "matches"
    # The quoted convention sometimes lists the nonzero entries first;
    # compare against that reordering of the computed pattern.
    head, rest = comp[0], comp[1:]
    reordered = (head,) + tuple(sorted(rest, reverse=True))
    if reordered == quot:
        return "matches up to entry order"
    return "DISAGREES"


def cmd_table(args):
    from . import catalog

    rows = []
    for row in catalog.TABLE_ROWS:
        record = _classification_record(parse_state(row.expression), args.eps)
        rows.append({
            "name": row.name, "expression": row.expression, "computed": record["display"],
            "quoted": list(row.quoted), "status": _table_status(record["display"], row.quoted),
            "separable": record["separable"],
        })
    width = max(len(r["name"]) for r in rows)
    lines = []
    for r in rows:
        computed = _fmt_display(r["computed"])
        quoted = _fmt_display([float(v) for v in r["quoted"]])
        lines.append(f"{r['name']:<{width}}  computed {computed:<24} quoted {quoted:<24} {r['status']}")
    return rows, "\n".join(lines)


def _double_state_text(state_record) -> str:
    """A double state in text mode: the amplitudes and scale2 its JSON record carries."""
    return f"amps {json.dumps(state_record['amps'])}, scale2 {state_record['scale2']!r}"


def cmd_measure(args):
    from .measurement import collapse

    state = _load_tripartite(args)
    result = collapse(state, Axis.from_qubit(args.qubit), args.outcome, args.eps)
    record = {
        "prob": float(result.prob),
        "post_state": state_to_json(result.post_state),
        "concurrence": result.concurrence(),
    }
    exact = state.backend == "exact"
    if exact:
        record["prob_exact"] = _enc(result.prob)
        record["concurrence2_exact"] = _enc(result.concurrence2)
        record["post_ket"] = state_to_ket(result.post_state)
    return record, "\n".join([
        f"prob        : {record['prob']:g}" + (f"  (exact {record['prob_exact']})" if exact else ""),
        f"post state  : {record.get('post_ket') or _double_state_text(record['post_state'])}",
        f"concurrence : {record['concurrence']:g}",
    ])


def cmd_transform(args):
    from .unitary import Unitary2, apply_local_3

    state = _load_tripartite(args)
    units = []
    for text in (args.u1, args.u2, args.u3):
        u = Unitary2.identity(state.backend) if text is None else _unitary_from_json(text)
        units.append(u.to_approx() if state.backend == "approx" else u)
    out = apply_local_3(state, *units)
    record = {"state": state_to_json(out)}
    if out.backend == "exact":
        record["ket"] = state_to_ket(out)
    return record, record.get("ket") or _double_state_text(record["state"])


def _factors_record(fact):
    return {name: [_enc_scalar(v) for v in getattr(fact, name)] for name in ("fx", "fy", "fz")}


def cmd_check_sep(args):
    from .separability import extract_factors, is_separable, rank1_oracle

    state = _load_tripartite(args)
    separable = is_separable(state, args.eps)
    fact = extract_factors(state, args.eps) if separable else None
    record = {
        "separable": separable,
        "factors": _factors_record(fact) if separable else None,
        "oracle_agrees": rank1_oracle(state, args.eps) == separable,
    }
    lines = [f"separable     : {'yes' if separable else 'no'}"]
    if separable:
        lines.append(f"factors       : x={tuple(map(str, fact.fx))} y={tuple(map(str, fact.fy))} z={tuple(map(str, fact.fz))}")
    lines.append(f"oracle agrees : {'yes' if record['oracle_agrees'] else 'no'}")
    return record, "\n".join(lines)


def cmd_factor(args):
    from .separability import extract_factors

    fact = extract_factors(_load_tripartite(args), args.eps)
    return {"factors": _factors_record(fact)}, "\n".join(
        f"{axis} : ({pair[0]}, {pair[1]})" for axis, pair in zip("xyz", (fact.fx, fact.fy, fact.fz))
    )


def cmd_random(args):
    """Its result carries a third element, the exit code: 1 if the oracle disagrees anywhere."""
    import random

    from .randstates import random_tripartite
    from .separability import is_separable, rank1_oracle

    rng = random.Random(args.seed)
    records = []
    mismatches = 0
    for _ in range(args.count):
        state = random_tripartite(rng, args.kind)
        separable = is_separable(state, args.eps)
        agrees = rank1_oracle(state, args.eps) == separable
        mismatches += 0 if agrees else 1
        records.append({"state": state_to_json(state), "separable": separable, "oracle_agrees": agrees})
    summary = {"count": args.count, "seed": args.seed, "kind": args.kind, "mismatches": mismatches,
               "states": records}
    n_sep = sum(1 for r in records if r["separable"])
    text = (
        f"{args.count} states (kind={args.kind}, seed={args.seed}): "
        f"{n_sep} separable, {mismatches} oracle mismatches"
    )
    return summary, text, 1 if mismatches else 0


class _KindNames:
    """The ``--kind`` choices, ``randstates.KINDS``, read when argparse checks
    or lists them, so that only the ``random`` command loads randstates."""

    def __iter__(self):  # ``in`` iterates too
        from .randstates import KINDS

        return iter(KINDS)


def _add_state_flags(sub, with_eps=True):
    sub.add_argument("expr", nargs="?", default=None, help="ket expression")
    sub.add_argument("--json-state", metavar="FILE", help="read the state from a JSON file")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--float", action="store_true",
                     help="convert the state to doubles (exact rational arithmetic by default)")
    if with_eps:
        sub.add_argument("--eps", type=_nonnegative(float), default=DEFAULT_EPS,
                         help="zero threshold for squared double-backend quantities")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritangle",
        description="Classify tripartite qubit states: hyperdeterminant, "
        "sub-concurrences, separability, measurement collapse.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("classify", help="seven-element classification of a state")
    _add_state_flags(sub)
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("table", help="classify the canonical catalog states")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--eps", type=_nonnegative(float), default=DEFAULT_EPS)
    sub.set_defaults(func=cmd_table)

    sub = subs.add_parser("measure", help="projective single-qubit measurement")
    _add_state_flags(sub)
    sub.add_argument("--qubit", type=int, choices=(1, 2, 3), required=True)
    sub.add_argument("--outcome", type=int, choices=(0, 1), required=True)
    sub.set_defaults(func=cmd_measure)

    sub = subs.add_parser("transform", help="apply local unitaries u1 (x) u2 (x) u3")
    _add_state_flags(sub, with_eps=False)
    for name in ("--u1", "--u2", "--u3"):
        sub.add_argument(name, metavar="JSON",
                         help='e.g. \'{"matrix": [["1","1"],["-1","1"]], "sqrt_scale2": 2}\'')
    sub.set_defaults(func=cmd_transform)

    sub = subs.add_parser("check-sep", help="decide full separability")
    _add_state_flags(sub)
    sub.set_defaults(func=cmd_check_sep)

    sub = subs.add_parser("factor", help="extract one-qubit factors of a separable state")
    _add_state_flags(sub)
    sub.set_defaults(func=cmd_factor)

    sub = subs.add_parser("random", help="generate random states and cross-check separability")
    sub.add_argument("--count", type=_nonnegative(int), default=100)
    sub.add_argument("--seed", type=int, default=0)
    # Set after add_argument, which would list the choices at once.
    sub.add_argument("--kind", default="mixed").choices = _KindNames()
    sub.add_argument("--eps", type=_nonnegative(float), default=DEFAULT_EPS)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_random)
    return parser


def _exit_code(exc) -> int:
    """The exit code of an error a command raised: 2 for input that does not
    parse or read, 4 for a backend mismatch, 3 for every other."""
    if isinstance(exc, (KetSyntaxError, _BadInput, EmptyState, UnsupportedIrrational, InputFileError)):
        return PARSE_ERROR
    return BACKEND_ERROR if isinstance(exc, BackendMismatch) else PRECONDITION_ERROR


def main(argv=None) -> int:
    """Run one command and print its result once: the record as strict JSON
    under ``--json``, else the text; or an error line and :func:`_exit_code`."""
    args = build_parser().parse_args(argv)
    try:
        record, text, *code = args.func(args)
        print(json.dumps(record, allow_nan=False) if args.json else text)
    except (TritangleError, ValueError) as exc:
        note = "; no text or JSON result is printed" if isinstance(exc, NonFinite) else ""
        print(f"error: {exc}{note}", file=sys.stderr)
        return _exit_code(exc)
    return code[0] if code else 0


def entry() -> None:
    """The ``tritangle`` command.  It lifts the interpreter's int-to-str digit
    limit for its own process, so that every exact value computed from an
    accepted input prints; the library and :func:`main` keep the limit."""
    if hasattr(sys, "set_int_max_str_digits"):  # interpreters without it have no limit
        sys.set_int_max_str_digits(0)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: exit 141, as after SIGPIPE, and say nothing.
        # Python's SIGPIPE recipe: stdout goes to devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
