"""numpy is imported only by Haar sampling and ``Unitary2.to_matrix``, and
the command line never imports ``dataclasses`` or ``inspect``.

Each case runs in a fresh interpreter, because the test process itself has
numpy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tritangle import random_unitary2
from tritangle.catalog import ghz_to_psi_unitary
from tritangle.randstates import random_approx_bipartite, random_approx_tripartite

SRC = str(Path(__file__).resolve().parents[1] / "src")
GHZ = "(|000> + |111>)/sqrt(2)"
ROT = '{"matrix": [["1","1"],["-1","1"]], "sqrt_scale2": 2}'


def run_fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_cli_does_not_import_numpy():
    out = run_fresh("import sys, tritangle.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


COMMANDS = {
    "classify": ["classify", GHZ],
    "classify-float": ["classify", GHZ, "--float", "--json"],
    "check-sep": ["check-sep", "|000> + |001>"],
    "measure": ["measure", GHZ, "--qubit", "1", "--outcome", "0"],
    "transform": ["transform", GHZ, "--u1", ROT],
    "factor": ["factor", "|000> + |001>"],
    "table": ["table"],
    "random": ["random", "--count", "5"],
}


@pytest.mark.parametrize("argv", list(COMMANDS.values()), ids=list(COMMANDS))
def test_cli_commands_do_not_import_numpy(argv):
    code = (
        "import contextlib, io, sys\n"
        "from tritangle.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = main({argv!r})\n"
        "print(status, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(code).split() == ["0", "False"]


def test_cli_loads_neither_dataclasses_nor_inspect():
    # Each costs milliseconds of start-up in every tritangle process.
    code = (
        "import contextlib, io, sys\n"
        "from tritangle.cli import main\n"
        "print('import', 'dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        f"for name, argv in {COMMANDS!r}.items():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        status = main(argv)\n"
        "    print(name, 'dataclasses' in sys.modules, 'inspect' in sys.modules, status)\n"
    )
    lines = run_fresh(code).splitlines()
    assert lines == ["import False False"] + [f"{name} False False 0" for name in COMMANDS]


def test_random_unitary2_int_seed_without_prior_numpy():
    out = run_fresh(
        "import sys\n"
        "from tritangle import random_unitary2\n"
        "assert 'numpy' not in sys.modules\n"
        "print(repr(random_unitary2(7).entries))\n"
    )
    assert out.strip() == repr(random_unitary2(7).entries)


def test_to_matrix_without_prior_numpy():
    out = run_fresh(
        "import json, sys\n"
        "from tritangle.catalog import ghz_to_psi_unitary\n"
        "assert 'numpy' not in sys.modules\n"
        "m = ghz_to_psi_unitary().to_matrix()\n"
        "print(json.dumps([[z.real, z.imag] for z in m.ravel().tolist()]))\n"
    )
    expected = [[z.real, z.imag] for z in ghz_to_psi_unitary().to_matrix().ravel().tolist()]
    assert json.loads(out) == expected


def test_random_approx_states_without_module_numpy():
    out = run_fresh(
        "import numpy as np\n"
        "from tritangle.randstates import random_approx_bipartite, random_approx_tripartite\n"
        "print(repr(random_approx_tripartite(np.random.default_rng(1)).amps))\n"
        "print(repr(random_approx_bipartite(np.random.default_rng(1)).amps))\n"
    )
    three, two = out.splitlines()
    assert three == repr(random_approx_tripartite(np.random.default_rng(1)).amps)
    assert two == repr(random_approx_bipartite(np.random.default_rng(1)).amps)
