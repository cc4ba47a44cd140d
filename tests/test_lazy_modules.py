"""Each command loads only the modules it runs, and ``import tritangle``
loads its submodules on first use of a public name.

The command cases run in fresh interpreters, because the test process has
every module loaded already.
"""

import importlib
import json

import pytest

import tritangle
from test_lazy_numpy import COMMANDS, run_fresh

#: Every command parses its input.
PARSE = {"cli", "errors", "ketparser", "scalars", "states"}
#: Classification and the separability decision.
DECIDE = {"hyperdet", "separability"}
#: The ``tritangle.*`` modules each command loads; the token parser only
#: reports where text the compiled patterns reject fails, and the patterns
#: take blanks outside ASCII.
LOADED = {
    "classify": PARSE | DECIDE,
    "classify-float": PARSE | DECIDE,
    "check-sep": PARSE | DECIDE,
    "measure": PARSE | {"measurement", "bipartite"},
    "transform": PARSE | {"unitary"},
    "factor": PARSE | DECIDE,
    "table": PARSE | DECIDE | {"catalog"},
    "random": PARSE | DECIDE | {"randstates"},
    "malformed": PARSE | {"tokenparser"},
    "non-ascii": PARSE | DECIDE,
}
ARGV = {
    **COMMANDS,
    "malformed": ["classify", "|000> +"],
    "non-ascii": ["classify", "(|000>\u2003+ |111>)/sqrt(2)"],
}


def loaded_after(argv):
    """Exit status, stderr and the ``tritangle.*`` modules a fresh ``main(argv)`` loads."""
    code = (
        "import contextlib, io, json, sys\n"
        "from tritangle.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    status = main({argv!r})\n"
        "print(json.dumps([status, err.getvalue(), list(sys.modules)]))\n"
    )
    status, err, modules = json.loads(run_fresh(code))
    return status, err, submodules(modules)


def submodules(modules):
    return {m.removeprefix("tritangle.") for m in modules if m.startswith("tritangle.")}


def test_every_command_is_covered():
    assert set(LOADED) == set(ARGV)


@pytest.mark.parametrize("name", list(ARGV))
def test_command_loads_only_what_it_runs(name):
    status, err, modules = loaded_after(ARGV[name])
    assert modules == LOADED[name]
    if name == "malformed":
        assert status == 2 and "at offset 7, expected |" in err
    else:
        assert status == 0


@pytest.mark.parametrize("module, loaded", [("tritangle.cli", PARSE), ("tritangle", set())])
def test_import_loads(module, loaded):
    out = run_fresh(f"import json, sys, {module}; print(json.dumps(list(sys.modules)))")
    assert submodules(json.loads(out)) == loaded


def test_dir_lists_every_public_name():
    assert set(tritangle.__all__) <= set(dir(tritangle))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tritangle import *", namespace)
    assert set(tritangle.__all__) <= set(namespace)
    for name in tritangle.__all__:
        assert namespace[name] is getattr(tritangle, name)


@pytest.mark.parametrize("name", tritangle.__all__)
def test_public_name_is_its_submodules_object(name):
    module = importlib.import_module(f"tritangle.{tritangle._SUBMODULE[name]}")
    assert getattr(tritangle, name) is getattr(module, name)
    assert getattr(module, name) is tritangle.__dict__[name]  # bound on first access


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tritangle.no_such_name  # noqa: B018 - the lookup is the test
    assert not hasattr(tritangle, "no_such_name")
