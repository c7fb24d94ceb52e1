"""tools/gate_diff.py passes two byte-gate outputs only when they differ in
labels swapped between "captured" and "duplicate"."""

import subprocess
import sys
from pathlib import Path

import pytest

GATE_DIFF = Path(__file__).resolve().parents[1] / "tools" / "gate_diff.py"
SOLVE = "solve example-6.1 0.3 seed=0 {} start=new,{} deflation=stalled,{}\n"
BASE = SOLVE.format("abc", "captured", "new") + "interval example-6.1 def\n"


@pytest.mark.parametrize("change, code", [
    (BASE, 0),
    (SOLVE.format("abc", "duplicate", "new") + "interval example-6.1 def\n", 0),
    (SOLVE.format("abc", "diverged", "new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abd", "captured", "new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abc", "captured", "new,new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abc", "captured", "new") + "interval example-6.1 deg\n", 1),
    (SOLVE.format("abc", "captured", "new"), 1),
])
def test_gate_diff_allows_only_captured_duplicate_swaps(tmp_path, change, code):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(BASE)
    b.write_text(change)
    run = subprocess.run([sys.executable, str(GATE_DIFF), str(a), str(b)],
                         capture_output=True, text=True)
    assert run.returncode == code, run.stdout
    assert run.stdout.endswith("gate: pass\n" if code == 0 else "gate: FAIL\n")
