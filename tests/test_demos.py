"""Every demo prints exactly what it printed when its digest was recorded.

The demos are the library's worked examples; a change that moves any digit
of their output changes a result a reader can see, so each one's standard
output is pinned by its sha256.  Each runs with RuntimeWarnings as errors,
the filter the tests themselves run under.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "01_code_constructions.py": "4d412c36a1bce273de9b8453866bf483249cc3e9d42833977cfeed96cefb7b51",
    "02_peeling_and_elimination.py": "fe9d3b746e3f9719d3a93c2fdc22b5cdd7885962b680a3937c12b8d137a7cc94",
    "03_success_counting.py": "ae803be564ba0aab9e5b5e4736db831c5d0fd537d4518f0594dcb98710eb1a2d",
    "04_timing_comparison.py": "43d8cdaaf642ddb5f5860dac8408abf4a1b7a2538c4b46348711eae5808747dd",
    "05_training_partial_recovery.py": "d66e6a64e2d17c64ed961ecc22993127508b92698092cf623349232563e4f188",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_output_pinned(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        env=env, cwd=ROOT, capture_output=True, check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo]
