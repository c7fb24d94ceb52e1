"""tools/gate_diff.py passes two byte-gate outputs only when they differ in
iteration counts alone; tools/byte_gate.py prints each start's and
attempt's iterations and dumps point sets; tools/point_gate.py matches two
such dumps point by point."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from graphvar.problems import builtin_problem
from graphvar.solver import solution_set_from_doc

TOOLS = Path(__file__).resolve().parents[1] / "tools"
GATE_DIFF = TOOLS / "gate_diff.py"
SOLVE = "solve example-6.1 0.3 seed=0 {} start=new,{} deflation=stalled,{}\n"
BASE = SOLVE.format("abc", "duplicate", "new") + "interval example-6.1 def\n"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


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
    gate = load_tool("byte_gate")
    sset = SimpleNamespace(outcomes=[("start", 0, "new", 12), ("start", 1, "duplicate", 30),
                                     ("deflation", 0, "stalled", 8)])
    assert gate._labels(sset) == (
        "start=new,duplicate deflation=stalled start_iters=12,30 deflation_iters=8")
    assert gate._labels(SimpleNamespace(outcomes=[])) == (
        "start= deflation= start_iters= deflation_iters=")


def test_byte_gate_takes_only_a_points_file():
    run = subprocess.run([sys.executable, str(TOOLS / "byte_gate.py"), "--point", "out.json"],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("usage: python3 tools/byte_gate.py [--points OUT]")


def point_dump(*solves):
    """A point_gate dump of example-6.1 solves, each a list of (offset,
    kind): a point whose 18 values all equal the offset."""
    return {"distinct_tol": 1e-4, "solves": [
        {"name": f"accept example-6.1 0.3 seed={i}", "key": "example-6.1",
         "points": [{"z": [offset] * 18, "action": -offset, "kind": kind, "residual": 1e-12}
                    for offset, kind in points]}
        for i, points in enumerate(solves)]}


BASE_POINTS = [(1.0, "minimizer"), (2.0, "saddle")]


@pytest.mark.parametrize("change, failing", [
    ([(1.0 + 1e-9, "minimizer"), (2.0, "saddle")], []),  # last digits alone pass
    ([(2.0, "saddle"), (1.0, "minimizer")], []),  # order does not matter
    ([(1.0, "minimizer"), (2.0, "minimizer")], ["only in A", "only in B"]),
    ([(1.0, "minimizer"), (2.5, "saddle")], ["only in A", "only in B"]),
    ([(1.0, "minimizer")], ["2 -> 1 points", "only in A"]),
    ([(1.0, "minimizer"), (2.0, "saddle"), (3.0, "saddle")], ["2 -> 3 points", "only in B"]),
])
def test_point_gate_matches_points_by_kind_within_distinct_tol(tmp_path, change, failing):
    gate = load_tool("point_gate")
    bad = gate.compare(point_dump(BASE_POINTS, BASE_POINTS), point_dump(BASE_POINTS, change))
    assert [line.split(": ")[1] for line in bad] == failing
    assert all(line.startswith("accept example-6.1 0.3 seed=1: ") for line in bad)
    (tmp_path / "a.json").write_text(json.dumps(point_dump(BASE_POINTS)))
    (tmp_path / "b.json").write_text(json.dumps(point_dump(change)))
    run = subprocess.run([sys.executable, str(TOOLS / "point_gate.py"), "compare",
                          str(tmp_path / "a.json"), str(tmp_path / "b.json")],
                         capture_output=True, text=True)
    assert run.returncode == (1 if failing else 0), run.stdout
    assert run.stdout.endswith("gate: FAIL\n" if failing else "gate: pass\n")


def test_point_gate_prints_an_unmatched_point_with_its_distance():
    gate = load_tool("point_gate")
    bad = gate.compare(point_dump(BASE_POINTS), point_dump([(1.0, "minimizer"), (2.5, "saddle")]))
    # the W-distance of two constants on example 6.1 is their h-weighted norm
    assert bad[0].startswith("accept example-6.1 0.3 seed=0: only in A: action=-2.0 "
                             "kind=saddle residual=1.000e-12 W-distance to nearest=")
    assert gate.compare(point_dump(BASE_POINTS), point_dump(BASE_POINTS, BASE_POINTS)) == [
        "the dumps hold different solves"]


def test_byte_gate_dumps_a_solution_set_point_by_point():
    gate = load_tool("byte_gate")
    prep = builtin_problem("example-6.1")
    text = (Path(__file__).parent / "pins" / "solve-example-6.1.json").read_text()
    sset = solution_set_from_doc(prep.problem, json.loads(text))
    points = gate._points(prep.problem, sset)
    assert [(p["kind"], p["action"]) for p in points] == [
        (p.kind, p.action_value) for p in sset.points]
    assert points[0]["z"] == prep.problem.pack_state(sset.points[0].state).tolist()
