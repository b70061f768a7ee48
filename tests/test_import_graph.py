"""Each CLI process loads only the modules on its own command's path.

A subprocess runs one command through ``cli.main`` and lists the modules it
loaded beyond what ``import numpy`` alone loads.  NumPy 1.24 loads
``numpy.random`` on ``import numpy``, NumPy 2 only on first use; measured
against that baseline, the checks hold on both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import codedcomp
from codedcomp import cli

SRC = str(Path(codedcomp.__file__).resolve().parents[1])
PROBE = (
    "import sys\n"
    "import numpy\n"
    "baseline = set(sys.modules)\n"
    "from codedcomp.cli import main\n"
    "status = main(sys.argv[1:])\n"
    "print(status, *sorted(set(sys.modules) - baseline))\n"
)
ENUM_RCS = ["--scheme", "rcs", "--workers", "9", "--degrees", "1,2", "--offsets", "1,3,5", "--q", "0"]
OFFSETS = ["--scheme", "rcs", "--workers", "20", "--degrees", "1,2,3", "--offsets", "1,4,11,15,6,18"]
NO_DRAWS = {"codedcomp.simulate", "codedcomp.regression", "numpy.random"}


def _loaded(tmp_path, argv) -> set[str]:
    """The modules a fresh process running ``codedcomp <argv>`` loads
    beyond ``import numpy``; a ``numpy.random`` submodule counts as
    ``numpy.random``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    status, *modules = done.stdout.splitlines()[-1].split()
    assert status == "0"
    return {"numpy.random" if m.startswith("numpy.random.") else m for m in modules}


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (["enumerate", *ENUM_RCS], {"codedcomp.enumeration"}, NO_DRAWS),
        (["encode", *OFFSETS], {"codedcomp.schemes"}, NO_DRAWS | {"codedcomp.enumeration"}),
        (["simulate", "--scheme", "rcs", "--workers", "40", "--degrees", "1,2,4", "--q", "0.15",
          "--trials", "200"], {"codedcomp.simulate"},
         {"codedcomp.enumeration", "codedcomp.regression"}),
        (["train", "--scheme", "rcs", "--workers", "4", "--degrees", "1,2",
          "--dim", "8", "--samples", "10", "--iterations", "2"],
         {"codedcomp.regression"}, {"codedcomp.enumeration"}),
    ],
    ids=["enumerate", "encode-offsets", "simulate", "train"],
)
def test_command_loads_only_its_own_path(tmp_path, argv, loads, skips):
    loaded = _loaded(tmp_path, argv)
    assert loads <= loaded
    assert not skips & loaded


def test_cli_names_only_its_commands_calls():
    with pytest.raises(AttributeError, match="codedcomp.cli"):
        cli.no_such_call
