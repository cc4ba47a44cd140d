"""Tiny run of every workload, traced and untraced, through the real command,
and the loop's counting of failed executions.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks_its_outputs(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--items", "12", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


COUNTS = (
    "hyperdet.classify.calls_per_state",
    "separability.separable_share",
    "measurement.collapse.impossible_frac",
    "scalars.det_abs2_bits_p50",
    "scalars.det_abs2_bits_max",
    "scalars.local3_out_bits_p50",
)


def test_counts_and_digest_repeat_exactly_on_one_seed():
    runs = [bench("--workload", "exact-decide", "--seed", "3", "--seconds", "0.1",
                  "--items", "40", "--trace", "1") for _ in range(2)]
    metrics = [json.loads(r.stdout.strip().splitlines()[-1])["metrics"] for r in runs]
    first, second = ({k: m[k]["value"] for k in COUNTS} for m in metrics)
    assert first == second
    assert first["hyperdet.classify.calls_per_state"] > 2
    digests = [line for r in runs for line in r.stdout.splitlines() if line.startswith("digest:")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "exact-decide", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _WrongOnItemOne:
    """A workload whose output for item 1 fails its check on every pass."""

    def fresh(self, item):
        return item

    def run(self, item):
        return item

    def check(self, item, out):
        return ["wrong"] if item == 1 else []


def test_failures_and_setups_count_per_execution():
    setups = []
    loop = run.Loop(_WrongOnItemOne(), [0, 1, 2], 0, None)
    loop.go(lambda: setups.append(None), 2).check()
    assert loop.passes == run.MIN_PASSES and len(setups) == 2
    assert loop.attempted == 3 * loop.passes
    assert loop.failed == loop.passes
