"""The ``cli-oneshot`` workload: one ``python -m tritangle`` process at a time.

Set-up picks states from the mixed pool and builds twelve command lines, six
subcommands in text and ``--json`` mode, each with the output it must print,
computed in-process from the library.  A ``--json`` output must parse
strictly (no ``NaN`` or ``Infinity``) and equal that record; a text output
must carry the expected line.  It has the interface of the workloads in
``workloads.py``; its traced run calls ``cli.main`` in-process instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics

from tritangle import catalog, cli
from tritangle import hyperdet as H
from tritangle import ketparser as K
from tritangle import measurement as M
from tritangle import separability as S
from tritangle import states as ST
from tritangle import unitary as U

from checkout import importtime_ms, interp_ms, python
from workloads import SLICE_INDEX, Workload, kind_shares, mixed_pool

POOL_SIZE = 64
#: Subprocess repeats for the interpreter and import probes.
PROBES = 5


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _scalar(value):
    return [str(value.re), str(value.im)]


def _factors(fact):
    return {"fx": [_scalar(v) for v in fact.fx], "fy": [_scalar(v) for v in fact.fy],
            "fz": [_scalar(v) for v in fact.fz]}


def _unitary_json(u) -> str:
    cells = [f"{e.re},{e.im}" for e in u.entries]
    return json.dumps({"matrix": [cells[:2], cells[2:]], "sqrt_scale2": str(1 / u.scale2)})


def _classify_record(state):
    vec = H.classify(state)
    return {
        "det_abs2": str(vec.det_abs2),
        "sub2": [str(v) for v in vec.sub2],
        "display": list(H.display_normalize(vec)),
        "separable": S.is_separable(state),
    }


class Invocation:
    """One command line and the test its stdout must pass."""

    def __init__(self, name, argv, accept):
        self.name = name
        self.argv = argv
        self.accept = accept  # stdout -> failure text, or None when right

    def check(self, code: int, stdout: str) -> list:
        if code != 0:
            return [f"{self.name}: exit code {code}"]
        failure = self.accept(stdout)
        return [f"{self.name}: {failure}"] if failure else []


def json_equals(expected, project=lambda record: record):
    def accept(stdout):
        try:
            record = strict_json(stdout)
        except ValueError as exc:
            return f"invalid JSON ({exc})"
        return None if project(record) == expected else "JSON differs from the in-process record"

    return accept


def has_line(line):
    return lambda stdout: None if line in stdout.splitlines() else f"missing line {line!r}"


def _state_arg(state):
    # "--" keeps a ket that starts with "-" from reading as an option.
    return ["--", K.state_to_ket(state)]


def command_lines(seed: int):
    """The twelve invocations for ``seed``, plus the pool kind shares."""
    states, kinds = mixed_pool(seed, POOL_SIZE)
    # The command line sees the state as the ket text, which may split the
    # prefactor differently, so the expected records use the parsed state.
    entangled = K.parse_state(K.state_to_ket(next(s for s in states if not S.is_separable(s))))
    product = K.parse_state(K.state_to_ket(next(s for s in states if S.is_separable(s))))
    slot = next(n for n, idx in enumerate(SLICE_INDEX) if any(entangled.amps[i] for i in idx))
    axis, outcome = ST.AXIS_OUTCOME_ORDER[slot]
    rng = random.Random(seed + 1)
    units = [U.random_rational_unitary2(rng) for _ in range(3)]

    cls = _classify_record(entangled)
    sep_word = "yes" if cls["separable"] else "no"
    measured = M.collapse(entangled, axis, outcome)
    post_ket = K.state_to_ket(measured.post_state)
    rotated = U.apply_local_3(entangled, *units)
    fact = S.extract_factors(product)
    names = [row.name for row in catalog.TABLE_ROWS]
    table = [
        [row.name, list(H.display_normalize(H.classify(K.parse_state(row.expression))))]
        for row in catalog.TABLE_ROWS
    ]
    cases = {
        "classify": (_state_arg(entangled), has_line(f"separable          : {sep_word}"),
                     json_equals(cls)),
        # On a product state, where ``check-sep`` also extracts the factors.
        "check-sep": (_state_arg(product),
                      has_line(f"factors       : x={tuple(map(str, fact.fx))} "
                               f"y={tuple(map(str, fact.fy))} z={tuple(map(str, fact.fz))}"),
                      json_equals({"separable": True, "factors": _factors(fact),
                                   "oracle_agrees": True})),
        "measure": (["--qubit", str(axis.qubit), "--outcome", str(outcome)] + _state_arg(entangled),
                    has_line(f"post state  : {post_ket}"),
                    json_equals({"prob": float(measured.prob),
                                 "post_state": ST.state_to_json(measured.post_state),
                                 "concurrence": measured.concurrence(),
                                 "prob_exact": str(measured.prob),
                                 "concurrence2_exact": str(measured.concurrence2),
                                 "post_ket": post_ket})),
        "transform": ([a for n, u in enumerate(units, 1) for a in (f"--u{n}", _unitary_json(u))]
                      + _state_arg(entangled),
                      has_line(K.state_to_ket(rotated)),
                      json_equals({"state": ST.state_to_json(rotated), "ket": K.state_to_ket(rotated)})),
        "factor": (_state_arg(product), has_line(f"x : ({fact.fx[0]}, {fact.fx[1]})"),
                   json_equals({"factors": _factors(fact)})),
        "table": ([],
                  lambda out: None if [l.split()[0] for l in out.splitlines() if l.strip()] == names else "wrong rows",
                  json_equals(table, lambda rows: [[r["name"], r["computed"]] for r in rows])),
    }
    invocations = []
    for command, (args, text_ok, json_ok) in cases.items():
        invocations.append(Invocation(command, [command] + args, text_ok))
        invocations.append(Invocation(f"{command} --json", [command, "--json"] + args, json_ok))
    return invocations, {"kinds": kind_shares(kinds)}


class CliOneshot(Workload):
    name = "cli-oneshot"
    default_seed = 20_240_817
    import_module = "tritangle.cli"
    items = 12  # always the twelve command lines; ``--items`` does not apply

    @staticmethod
    def generate(seed, n):
        invocations, inputs = command_lines(seed)
        inputs["command_lines"] = [inv.name for inv in invocations]
        return invocations, inputs, {}

    @staticmethod
    def warm_up():
        python(["-m", "tritangle", "table"])  # file cache and byte-code

    @staticmethod
    def run(inv):
        proc = python(["-m", "tritangle", *inv.argv], timeout=60)
        return proc.returncode, proc.stdout

    @staticmethod
    def run_traced(inv):
        """``cli.main(argv)`` with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(inv.argv)
        return code, out.getvalue()

    @staticmethod
    def check(inv, out):
        return inv.check(*out)

    @staticmethod
    def counts(items, outs):
        return {}

    @staticmethod
    def probes(loop):
        """Start-up figures for the traced run, from fresh interpreters."""
        cumulative = [importtime_ms("tritangle.cli") for _ in range(PROBES)]
        return {
            "cli.import_ms": statistics.median(p["tritangle.cli"] for p in cumulative),
            "cli.import_numpy_ms": statistics.median(p.get("numpy", 0.0) for p in cumulative),
            "cli.main_ms": statistics.median(loop.best_us()) / 1000,
            "cli.interp_ms": interp_ms(PROBES),
        }
