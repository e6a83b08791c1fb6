"""Every demo runs to completion against the package in ``src`` and prints its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout: the identity outcomes a demo prints are asserted nowhere else
STDOUT_SHA256 = {
    "01_combinatorial_rowmotion.py":
        "d27a08dc66eba5b5185b83b779cc07c471bcb0f8c0c12ce1d5ae82fd9a79aad2",
    "02_birational_antichain_rowmotion.py":
        "67259e958c54d5a8c83314232c1bdf40fe783e7854ea2e1099fdfb3b6fdcc495",
    "03_noncommutative_matrices.py":
        "dd90a0d1ebe18854caceb891588e8c336266a3e85156bccad03e61efb1739993",
    "04_tropical_bridge.py":
        "f15d5b2527a19024c3db3976c9c0a1b43087028d98592ca66cd3b6f0b912891b",
    "05_graded_rescaling_gyration.py":
        "2bc3fafe2bfaf4b0e7261e3f4b4cbd61e05a8a135382c16c99c0d01ff7173240",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[demo.name], result.stdout
