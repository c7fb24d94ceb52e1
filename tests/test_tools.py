"""tools/byte_gate.py records each output's fingerprint, labels,
iterations and points, and `compare` gives two verdicts on two records:
bytes passes only when they differ in iteration counts alone, points
matches the point sets point by point."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from graphvar.problems import builtin_problem
from graphvar.solver import solution_set_from_doc

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "byte_gate.py"
BASE_POINTS = [(1.0, "minimizer"), (2.0, "saddle")]
STATS = {"deflation": {"new": 1}}


def load_gate():
    spec = importlib.util.spec_from_file_location("byte_gate", TOOL)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def solve(seed=0, sha="abc", start=("new", "duplicate"), deflation=("stalled",),
          iters=((12, 30), (8,)), points=BASE_POINTS, stats=STATS):
    """The record of an example-6.1 solve; each point is (offset, kind), a
    point whose 18 values all equal the offset."""
    return {"name": f"accept example-6.1 0.3 seed={seed}", "sha256": sha, "stats": stats,
            "start": list(start), "deflation": list(deflation),
            "iters": {"start": list(iters[0]), "deflation": list(iters[1])},
            "points": [{"z": [offset] * 18, "action": -offset, "kind": kind, "residual": 1e-12}
                       for offset, kind in points]}


INTERVAL = {"name": "interval example-6.1", "sha256": "def"}
BASE = [solve(), INTERVAL]


@pytest.mark.parametrize("change, failing", [
    (BASE, []),
    ([solve(start=("new", "captured")), INTERVAL],
     ["seed=0: start label 1: duplicate -> captured"]),
    ([solve(start=("diverged", "duplicate")), INTERVAL],
     ["seed=0: start label 0: new -> diverged"]),
    ([solve(sha="abd"), INTERVAL], ["seed=0: sha256 differs"]),
    ([solve(deflation=("stalled", "new")), INTERVAL], ["seed=0: deflation label count 1 -> 2"]),
    ([solve(stats={"deflation": {"new": 2}}), INTERVAL], ["seed=0: stats differs"]),
    ([solve(), INTERVAL | {"sha256": "deg"}], ["interval example-6.1: sha256 differs"]),
    ([solve()], ["the records hold different outputs"]),
])
def test_bytes_verdict_fails_on_any_fingerprint_or_label_change(change, failing):
    bytes_bad, _, _ = load_gate().compare(BASE, change)
    assert [line.removeprefix("accept example-6.1 0.3 ") for line in bytes_bad] == failing


@pytest.mark.parametrize("iters, moved", [
    (((12, 30), (8,)), 0),
    (((12, 41), (8,)), 1),
    (((12, 31), (9,)), 2),
])
def test_bytes_verdict_counts_iteration_changes_without_failing_on_them(iters, moved):
    assert load_gate().compare(BASE, [solve(iters=iters), INTERVAL]) == ([], [], moved)


@pytest.mark.parametrize("change, failing", [
    ([(1.0 + 1e-9, "minimizer"), (2.0, "saddle")], []),  # last digits alone pass
    ([(2.0, "saddle"), (1.0, "minimizer")], []),  # order does not matter
    ([(1.0, "minimizer"), (2.0, "minimizer")], ["only in A", "only in B"]),
    ([(1.0, "minimizer"), (2.5, "saddle")], ["only in A", "only in B"]),
    ([(1.0, "minimizer")], ["2 -> 1 points", "only in A"]),
    ([(1.0, "minimizer"), (2.0, "saddle"), (3.0, "saddle")], ["2 -> 3 points", "only in B"]),
])
def test_points_verdict_matches_points_by_kind_within_distinct_tol(change, failing):
    bytes_bad, points_bad, _ = load_gate().compare(
        [solve(0), solve(1)], [solve(0), solve(1, points=change)])
    assert bytes_bad == []  # the points alone are no part of the bytes verdict
    assert [line.split(": ")[1] for line in points_bad] == failing
    assert all(line.startswith("accept example-6.1 0.3 seed=1: ") for line in points_bad)


def test_points_verdict_prints_an_unmatched_point_with_its_distance():
    gate = load_gate()
    _, bad, _ = gate.compare([solve()], [solve(points=[(1.0, "minimizer"), (2.5, "saddle")])])
    # the W-distance of two constants on example 6.1 is their h-weighted norm
    assert bad[0].startswith("accept example-6.1 0.3 seed=0: only in A: action=-2.0 "
                             "kind=saddle residual=1.000e-12 W-distance to nearest=")
    assert gate.compare([solve()], [solve(), solve(1)])[1] == [
        "the records hold different outputs"]


@pytest.mark.parametrize("change, code, verdicts", [
    (BASE, 0, "bytes: pass\npoints: pass\n"),
    ([solve(sha="abd"), INTERVAL], 1, "bytes: FAIL\npoints: pass\n"),
    ([solve(points=BASE_POINTS[:1]), INTERVAL], 4, "bytes: pass\npoints: FAIL\n"),
    ([solve(sha="abd", points=BASE_POINTS[:1]), INTERVAL], 5, "bytes: FAIL\npoints: FAIL\n"),
])
def test_compare_exit_status_tells_the_verdicts_apart(tmp_path, change, code, verdicts):
    for name, records in (("a", BASE), ("b", change)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    run = subprocess.run([sys.executable, str(TOOL), "compare", str(tmp_path / "a.jsonl"),
                          str(tmp_path / "b.jsonl")], capture_output=True, text=True)
    assert run.returncode == code, run.stdout
    assert run.stdout.endswith(verdicts)


@pytest.mark.parametrize("argv", [["--points", "out.json"], ["compare", "a.jsonl"]])
def test_byte_gate_exits_2_with_a_usage_line_on_a_bad_argument(argv):
    run = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "usage: python3 tools/byte_gate.py [compare A B]\n"


def _imports(path):
    tree = ast.parse(path.read_text())
    return [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names] + [
        node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]


def test_the_gate_and_the_benchmark_import_nothing_of_each_other():
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    assert not [m for m in _imports(TOOL)
                if m.split(".")[0] in {"perfbench"} | {path.stem for path in bench}]
    assert not [m for path in bench for m in _imports(path)
                if m.split(".")[0] in ("tools", TOOL.stem)]


def test_a_solve_record_holds_labels_iterations_and_points():
    gate = load_gate()
    sset = SimpleNamespace(points=[], outcomes=[
        ("start", 0, "new", 12), ("start", 1, "duplicate", 30), ("deflation", 0, "stalled", 8)])
    assert gate._solved("x", None, sset) == {
        "name": "x", "start": ["new", "duplicate"], "deflation": ["stalled"],
        "iters": {"start": [12, 30], "deflation": [8]}, "points": []}
    prep = builtin_problem("example-6.1")
    text = (Path(__file__).parent / "pins" / "solve-example-6.1.json").read_text()
    sset = solution_set_from_doc(prep.problem, json.loads(text))
    points = gate._solved("x", prep.problem, sset)["points"]
    assert [(p["kind"], p["action"]) for p in points] == [
        (p.kind, p.action_value) for p in sset.points]
    assert points[0]["z"] == prep.problem.pack_state(sset.points[0].state).tolist()
