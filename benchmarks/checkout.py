"""The source checkout the benchmark runs in, and fresh interpreters on it."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def python(args, timeout=120):
    """Run the interpreter on ``args`` with the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def import_seconds(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return float(python(["-c", code]).stdout)


def importtime_ms(module: str) -> dict:
    """Cumulative import time in ms per module name, from ``-X importtime``."""
    out = python(["-X", "importtime", "-c", f"import {module}"]).stderr
    cumulative = {}
    for line in out.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1000)
    return cumulative


def interp_ms(repeats: int) -> float:
    """Median wall time of ``python -c pass``."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        python(["-c", "pass"])
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)
