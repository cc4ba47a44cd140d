"""Run one workload of the tritangle benchmark and print its metrics.

    python3 benchmarks/run.py --workload exact-decide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src`` and the command line is started as ``python -m tritangle``.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics from a traced run.
The lines before it give sample counts, the input properties, the output
digest and the environment; the same record, and in a traced run the spans,
are written under ``.bench_out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns

from checkout import ROOT, SRC, import_seconds
from reference import REFERENCE_S, reference_s
from tracer import ITEM, Tracer

OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("exact-decide", "exact-transform", "float-haar", "cli-oneshot")

#: Each item is timed once per pass, and each time is divided by the time of
#: the reference computation measured at most this long before it (see
#: ``reference.py``); an item's scaled latency is the median over its passes.
REFERENCE_EVERY_S = 0.05
#: A run makes at least this many passes, whatever ``--seconds`` says; a
#: traced run alternates untraced and traced passes, so it needs two of each.
MIN_PASSES = 3
MIN_TRACED_PASSES = 4
#: Set-up is repeated this many times and its median reported: once before
#: the loop, the others between passes, spread evenly over the run, so that
#: a slow stretch must cover most of the run to move the median.
SETUPS = 9

#: One process with no extra threads: numpy's BLAS would start a thread per
#: core at import, in this process and in every command-line child.  Their
#: start-up made a fresh ``import tritangle`` take 0.13-0.31 s where one
#: thread took 0.09-0.12 s on the same host.  Set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics of a traced run and their units.  A layer a workload
#: does not reach reads 0 on that workload.
PER_LAYER = {
    "hyperdet.classify.self_us": "us",
    "hyperdet.cayley_det.self_us": "us",
    "hyperdet.sub_concurrences2.self_us": "us",
    "hyperdet.display_normalize.self_us": "us",
    "hyperdet.classify.calls_per_state": "calls/state",
    "separability.is_separable.self_us": "us",
    "separability.rank1_oracle.self_us": "us",
    "separability.extract_factors.self_us": "us",
    "separability.separable_share": "fraction",
    "states.norm2.self_us": "us",
    "states.state_to_json.self_us": "us",
    "scalars.det_abs2_bits_p50": "bits",
    "scalars.det_abs2_bits_max": "bits",
    "scalars.local3_out_bits_p50": "bits",
    "ketparser.parse_state.self_us": "us",
    "ketparser.state_to_ket.self_us": "us",
    "unitary.apply_local_3.self_us": "us",
    "measurement.collapse.self_us": "us",
    "measurement.collapse.impossible_frac": "fraction",
    "bipartite.concurrence2.self_us": "us",
    "randstates.mixed_pool.us_per_state": "us",
    "unitary.random_rational_unitary2.us": "us",
    "unitary.random_unitary2.us": "us",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.main.self_us": "us",
    **{f"{m}.self_share": "fraction" for m in (
        "hyperdet", "separability", "states", "bipartite", "ketparser", "unitary",
        "measurement", "cli", "bench")},
    "trace.overhead_frac": "fraction",
    "ops_failed_frac": "fraction",
}


class Setup:
    """The workload's set-up, timed each time it is made.

    One set-up is the import of the workload's package in a fresh
    interpreter plus the generation of its inputs.
    """

    def __init__(self, workload, seed, n):
        self.workload, self.seed, self.n = workload, seed, n
        self.import_s, self.generate_s, self.timings = [], [], []

    def once(self):
        """Set up once; return the items and their input properties."""
        self.import_s.append(import_seconds(self.workload.import_module))
        t0 = perf_counter()
        items, inputs, timing = self.workload.generate(self.seed, self.n)
        self.generate_s.append(perf_counter() - t0)
        self.timings.append(timing)
        return items, inputs

    def summary(self, reference: float) -> dict:
        """Medians of the set-ups; ``setup_s`` scaled by the run's ``reference``.

        A set-up is too short for the reference measured next to it to say
        how fast the host ran during it (over six seeds of ``cli-oneshot``
        that scaling spread 19%, the run's median reference 10%).
        """
        raw = [a + b for a, b in zip(self.import_s, self.generate_s)]
        return {
            "setups": len(raw),
            "setup_s": statistics.median(raw) * REFERENCE_S / reference,
            "raw_setup_s": statistics.median(raw),
            "raw_import_s": statistics.median(self.import_s),
            "raw_generate_s": statistics.median(self.generate_s),
        }

    def timing(self) -> dict:
        """Median time per call of each generator used."""
        return {k: statistics.median(t[k] for t in self.timings) for k in self.timings[0]}


class Loop:
    """Closed loop with one client: each item in turn, pass after pass.

    Every item is timed on each pass, and a later pass must give an output
    equal to the first; ``check`` tests the first outputs after the clock
    has stopped.  ``attempted`` and ``failed`` count executions, one item on
    one pass: an execution fails when it raises, when its output differs
    from the first, or when it equals a first output that fails the check.
    With a tracer, odd passes run ``run_traced`` under the tracer and give
    the traced timings; even passes run it untraced.
    """

    def __init__(self, workload, items, seconds, tracer=None):
        self.workload, self.items, self.seconds, self.tracer = workload, items, seconds, tracer
        self.run = workload.run_traced if tracer else workload.run
        # Per item, the fastest time so far and the number of times, kept
        # apart for untraced and traced passes.
        self.plain = [[math.inf, 0] for _ in items]
        self.traced = [[math.inf, 0] for _ in items]
        # Per item, the untraced times over the reference's time.
        self.scaled = [[] for _ in items]
        self.reference = []  # (perf_counter, seconds) of each measurement
        self.first = [None] * len(items)
        self.same = [0] * len(items)  # executions whose output equals the first
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def go(self, between, count):
        """Run the passes; call ``between`` ``count`` times between passes.

        The calls fall due at even steps over ``seconds``; those still due
        when the passes end are made then.
        """
        start = perf_counter()
        due = [start + self.seconds * k / (count + 1) for k in range(1, count + 1)]
        self._passes(start + self.seconds, due, between)
        for _ in due:
            between()
        return self

    def _passes(self, deadline, due, between):
        min_passes = MIN_TRACED_PASSES if self.tracer else MIN_PASSES
        while True:
            if due and perf_counter() >= due[0]:
                due.pop(0)
                between()
            traced = self.tracer is not None and self.passes % 2 == 1
            if traced:
                self.tracer.install()
            try:
                for i, item in enumerate(self.items):
                    if self.passes >= min_passes and perf_counter() >= deadline:
                        return
                    self._one(i, item, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.passes += 1

    def _one(self, i, item, traced):
        arg = self.workload.fresh(item)
        if not traced and (not self.reference
                           or perf_counter() - self.reference[-1][0] >= REFERENCE_EVERY_S):
            self.reference.append((perf_counter(), reference_s()))
        self.attempted += 1
        try:
            t0 = perf_counter_ns()
            if traced:
                self.tracer.item = i
                out = self.tracer.call(ITEM, self.run, arg)
            else:
                out = self.run(arg)
            elapsed = perf_counter_ns() - t0
        except Exception as exc:  # any exception is a failed operation
            self._fail(f"item {i}: {type(exc).__name__}: {exc}")
            return
        best = (self.traced if traced else self.plain)[i]
        best[0] = min(best[0], elapsed)
        best[1] += 1
        if not traced:
            self.scaled[i].append(elapsed / 1e9 / self.reference[-1][1])
        if self.first[i] is None:
            self.first[i] = out
        elif out != self.first[i]:
            self._fail(f"item {i}: output differs from the first pass")
            return
        self.same[i] += 1

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def check(self):
        for i, (item, out) in enumerate(zip(self.items, self.first)):
            if out is None:
                continue
            try:
                errors = self.workload.check(item, out)
            except Exception as exc:  # a check that cannot run is a failure too
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            for e in errors:
                self.failures.append(f"item {i}: {e}")
            if errors:
                self.failed += self.same[i]
        return self

    def best_us(self, traced=False):
        """Per item, the fastest of its timed passes, in microseconds."""
        return [ns / 1000 for ns, n in (self.traced if traced else self.plain) if n]

    def timed(self, traced=False):
        """Number of timed passes per item."""
        return [n for _, n in (self.traced if traced else self.plain)]


def end_to_end(loop, setup_s, rss_kib):
    """The bounded metrics, and the latency percentiles with their samples.

    Times are scaled to the reference speed; ``raw`` gives the unscaled
    throughput from each item's fastest pass and the reference's time.
    """
    from workloads import nearest_rank

    scaled_us = [statistics.median(s) * REFERENCE_S * 1e6 for s in loop.scaled if s]
    best = loop.best_us()
    metrics = {
        "states_per_s": (len(scaled_us) / (sum(scaled_us) / 1e6), "1/s"),
        "state_us_p50": (nearest_rank(scaled_us, 0.50), "us"),
        "state_us_p95": (nearest_rank(scaled_us, 0.95), "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    latency = {"items": len(scaled_us), "passes_per_item": [min(loop.timed()), max(loop.timed())]}
    for q in (0.50, 0.95):
        latency[f"items_above_p{round(q * 100)}"] = len(scaled_us) - max(1, math.ceil(q * len(scaled_us)))
    raw = {
        "states_per_s_fastest": len(best) / (sum(best) / 1e6),
        "reference_ms": [1000 * f(s for _, s in loop.reference) for f in (min, statistics.median, max)],
    }
    return metrics, latency, raw


def per_layer(loop, tracer):
    """Self time per item, call counts, module shares and trace overhead."""
    executions = sum(loop.timed(traced=True))
    total_ns = tracer.total_ns[ITEM]
    out = {f"{name}.self_us": ns / executions / 1000 for name, ns in tracer.self_ns.items()}
    out["hyperdet.classify.calls_per_state"] = tracer.calls["hyperdet.classify"] / executions
    for name, ns in tracer.self_ns.items():
        key = f"{name.split('.')[0]}.self_share"
        out[key] = out.get(key, 0.0) + ns / total_ns
    out["trace.overhead_frac"] = sum(loop.best_us(traced=True)) / sum(loop.best_us()) - 1
    return out


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpu": cpu,
        "platform": platform.platform(),
    }


def load_workload(name):
    import workloads
    from cli_oneshot import CliOneshot

    classes = (workloads.ExactDecide, workloads.ExactTransform, workloads.FloatHaar, CliOneshot)
    return {cls.name: cls for cls in classes}[name](), workloads.canonical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's documented seed)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--items", type=int, default=None,
                        help="pool size of an in-process workload (default: its own)")
    args = parser.parse_args(argv)

    if not (SRC / "tritangle" / "__init__.py").is_file():
        print(f"error: no tritangle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

    workload, canonical = load_workload(args.workload)
    seed = workload.default_seed if args.seed is None else args.seed

    setups = Setup(workload, seed, args.items or workload.items)
    items, inputs = setups.once()
    workload.warm_up()

    tracer = Tracer() if args.trace else None
    loop = Loop(workload, items, args.seconds, tracer).go(setups.once, SETUPS - 1).check()
    setup = setups.summary(statistics.median(s for _, s in loop.reference))
    outs = [o for o in loop.first if o is not None]
    counts = workload.counts(items, outs) if outs else {}
    inputs.update(counts)
    failed = loop.failed

    if args.trace:
        metrics = {name: (0.0, unit) for name, unit in PER_LAYER.items()}
        found = setups.timing()
        found.update(counts)
        found.update(per_layer(loop, tracer))
        found.update(workload.probes(loop))
        found["ops_failed_frac"] = failed / loop.attempted
        for name, value in found.items():
            if name in metrics:
                metrics[name] = (value, metrics[name][1])
        latency, raw = {}, {}
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
        metrics, latency, raw = end_to_end(loop, setup["setup_s"], resource.getrusage(who).ru_maxrss)

    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": inputs,
        "setup": setup,
        "latency": latency,
        "raw": raw,
        "passes": loop.passes,
        "attempted": loop.attempted,
        "failed": failed,
        "ops_failed_frac": failed / loop.attempted,
        "failures": loop.failures[:20],
        "digest": hashlib.sha256(
            "\n".join(canonical(o) for o in loop.first).encode()
        ).hexdigest(),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    if args.trace:
        record["per_layer_all"] = found
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))

    for key in ("environment", "inputs", "setup", "latency", "raw", "digest", "ops_failed_frac"):
        print(f"{key}: {json.dumps(record[key])}")
    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
