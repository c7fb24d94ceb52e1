"""Source-level guards: the library's behaviour is set by its arguments
alone, with no environment variables and no threads; the bundled problems
and their interval reports load nothing past what they run; and every name
the benchmark's layer trace wraps still exists, with the arguments its hooks
read at the positions they read them."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import graphvar
from graphvar import calculus, cli, functionals, intervals, solver
from graphvar.functionals import Problem
from graphvar.nonlinearity import NonlinearityModel

FORBIDDEN = re.compile(r"os\.environ|getenv|concurrent\.futures|threading")
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
# what `cls` is in a loop over the workload's types
CLS_LOOPS = {"nonlinearity_types": NonlinearityModel, "problem_types": Problem}
# the arguments the layer trace's hooks read by position
HOOK_ARGS = {solver._newton_polish: {4: "iters"},
             solver._deflated_newton: {0: "prob", 2: "knowns", 4: "cfg"}}


def test_library_reads_no_environment_and_starts_no_threads():
    src = Path(graphvar.__file__).parent
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.glob("**/*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if FORBIDDEN.search(line)]
    assert hits == []


# builds both bundled problems and writes their interval reports into argv[1],
# then prints the numpy submodules that are imported
BUILD_AND_REPORT = """
import json, sys
from pathlib import Path
from graphvar.cli import main
from graphvar.problems import BUILTIN_KEYS
for key in BUILTIN_KEYS:
    assert main(["interval", "--reproduce", key, "-o", str(Path(sys.argv[1]) / key)]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy."))))
"""


def test_bundled_problems_and_reports_leave_numpy_polynomial_unimported(tmp_path):
    # numpy loads numpy.polynomial on first use; the bundled models are closed
    # branch formulas that need no quadrature when they are built
    src = Path(graphvar.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", BUILD_AND_REPORT, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert "numpy.random" in loaded  # the check sees lazily loaded submodules
    assert "numpy.polynomial" not in loaded


def _wrap_calls(node, owners, found):
    """(owner expression, owner object, names) of every wrap_any call under
    `node`; the owner object is None when `owners` does not map it."""
    if isinstance(node, ast.For) and ast.unparse(node.target) == "cls":
        loop = ast.unparse(node.iter)
        owners = {**owners, "cls": next((c for k, c in CLS_LOOPS.items() if k in loop), None)}
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "wrap_any"):
        owner = ast.unparse(node.args[0])
        found.append((owner, owners.get(owner), ast.literal_eval(node.args[1])))
    for child in ast.iter_child_nodes(node):
        _wrap_calls(child, owners, found)
    return found


def test_benchmark_wraps_find_their_names():
    # a wrap whose names are all gone reports its layer's metrics as absent
    owners = {"gv": graphvar, "cli": cli, "functionals": functionals,
              "calculus": calculus, "solver": solver, "intervals": intervals,
              "gv.WeightedGraph": graphvar.WeightedGraph, "np.linalg": np.linalg}
    calls = _wrap_calls(ast.parse(LAYERS.read_text()), owners, [])
    assert {NonlinearityModel, Problem, solver} <= {obj for _, obj, _ in calls}
    unmapped = [owner for owner, obj, _ in calls if obj is None]
    assert unmapped == []
    missing = [(owner, names) for owner, obj, names in calls
               if not any(hasattr(obj, name) for name in names)]
    assert missing == []
    for fn, want in HOOK_ARGS.items():
        params = list(inspect.signature(fn).parameters)
        assert {i: params[i] for i in want} == want, fn.__name__
