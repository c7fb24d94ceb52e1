"""tools/gate_diff.py passes two byte-gate outputs only when they differ in
iteration counts alone; tools/byte_gate.py prints each start's and
attempt's iterations."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
GATE_DIFF = TOOLS / "gate_diff.py"
SOLVE = "solve example-6.1 0.3 seed=0 {} start=new,{} deflation=stalled,{}\n"
BASE = SOLVE.format("abc", "duplicate", "new") + "interval example-6.1 def\n"


def run_gate_diff(tmp_path, a, b):
    (tmp_path / "a.txt").write_text(a)
    (tmp_path / "b.txt").write_text(b)
    return subprocess.run([sys.executable, str(GATE_DIFF), str(tmp_path / "a.txt"),
                           str(tmp_path / "b.txt")], capture_output=True, text=True)


@pytest.mark.parametrize("change, code", [
    (BASE, 0),
    (SOLVE.format("abc", "captured", "new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abc", "diverged", "new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abd", "duplicate", "new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abc", "duplicate", "new,new") + "interval example-6.1 def\n", 1),
    (SOLVE.format("abc", "duplicate", "new") + "interval example-6.1 deg\n", 1),
    (SOLVE.format("abc", "duplicate", "new"), 1),
])
def test_gate_diff_fails_on_any_label_change(tmp_path, change, code):
    run = run_gate_diff(tmp_path, BASE, change)
    assert run.returncode == code, run.stdout
    assert run.stdout.endswith("gate: pass\n" if code == 0 else "gate: FAIL\n")


ITERS = ("solve example-6.1 0.3 seed=0 abc start=new,{} deflation=stalled "
         "start_iters=12,{} deflation_iters={}\n")


@pytest.mark.parametrize("change, code, differ", [
    (ITERS.format("duplicate", "30", "8"), 0, 0),
    (ITERS.format("duplicate", "41", "8"), 0, 1),
    (ITERS.format("duplicate", "31", "9"), 0, 2),
    (ITERS.format("duplicate", "30", "8,3"), 1, 0),
    (ITERS.format("diverged", "30", "8"), 1, 0),
])
def test_gate_diff_counts_iteration_changes_without_failing_on_them(
        tmp_path, change, code, differ):
    run = run_gate_diff(tmp_path, ITERS.format("duplicate", "30", "8"), change)
    assert run.returncode == code, run.stdout
    assert f"iteration counts that differ: {differ}\n" in run.stdout


def test_byte_gate_prints_labels_then_iterations():
    spec = importlib.util.spec_from_file_location("byte_gate", TOOLS / "byte_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    sset = SimpleNamespace(outcomes=[("start", 0, "new", 12), ("start", 1, "duplicate", 30),
                                     ("deflation", 0, "stalled", 8)])
    assert gate._labels(sset) == (
        "start=new,duplicate deflation=stalled start_iters=12,30 deflation_iters=8")
    assert gate._labels(SimpleNamespace(outcomes=[])) == (
        "start= deflation= start_iters= deflation_iters=")
