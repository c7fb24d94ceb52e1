#!/usr/bin/env python3
"""Fingerprint the outputs a solver or interval change must keep.

Run from anywhere; it imports graphvar from the `src` beside this file:

    python3 tools/byte_gate.py > gate.txt
    OPENBLAS_NUM_THREADS=1 python3 tools/byte_gate.py > gate-1thread.txt

Each output is one line: its sha256, and for a solve its outcome labels and
iteration counts.
Run it in two checkouts with the same BLAS setting and `diff` the files;
any line that differs names the output that changed.  It covers:

- the 44 acceptance solves: example-6.1 at lambda = 0.15, 0.3, 0.5 and
  example-6.2 at lambda = 1.0, at seeds 0-9 and 42, default SolverConfig;
  the sha256 is of `solution_set_to_json`, the labels are every start's and
  deflation attempt's outcome in order, then the iterations of each, in the
  same order (`start_iters=`, `deflation_iters=`);
- both seed-42 16-step sweeps (lambda 0.05 to 0.8): the CSV's sha256, and
  per lambda the manifest `stats` entry without its per-outcome start
  counts, which the labels on the same line give, and the iterations;
- both `interval --reproduce` reports.

Dense LAPACK results depend on the OpenBLAS thread count, so compare only
runs made with the same setting.  A full run takes about a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import graphvar as gv  # noqa: E402
from graphvar import cli  # noqa: E402
from graphvar.problems import BUILTIN_KEYS, builtin_problem  # noqa: E402
from graphvar.solver import solution_set_to_json  # noqa: E402

SOLVES = (("example-6.1", (0.15, 0.3, 0.5)), ("example-6.2", (1.0,)))
SEEDS = tuple(range(10)) + (42,)
SWEEP = ["--lambda-min", "0.05", "--lambda-max", "0.8", "--steps", "16", "--seed", "42"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _labels(sset) -> str:
    labels = {"start": [], "deflation": []}
    iters = {"start_iters": [], "deflation_iters": []}
    for phase, _, outcome, n in sset.outcomes:
        labels[phase].append(outcome)
        iters[phase + "_iters"].append(str(n))
    return " ".join(f"{key}={','.join(items)}"
                    for key, items in (labels | iters).items())


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # one line per output
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_HYPOTHESES):
        raise SystemExit(f"graphvar {' '.join(argv)} exited {code}")


def main() -> None:
    for key, lams in SOLVES:
        prep = builtin_problem(key)
        for lam in lams:
            for seed in SEEDS:
                sset = gv.find_three(prep.problem, lam, gv.SolverConfig(seed=seed),
                                     start_radius=1.0 + max(prep.deltas))
                text = solution_set_to_json(sset).encode()
                print(f"solve {key} {lam} seed={seed} {_sha(text)} {_labels(sset)}")

    solved = []
    find_three = cli.find_three

    def recording(*args, **kwargs):
        solved.append(find_three(*args, **kwargs))
        return solved[-1]

    cli.find_three = recording
    with tempfile.TemporaryDirectory() as tmp:
        for key in BUILTIN_KEYS:
            out = Path(tmp) / f"sweep-{key}.csv"
            solved.clear()
            _run_cli(["sweep", "--reproduce", key, *SWEEP, "-o", str(out)])
            print(f"sweep {key} csv {_sha(out.read_bytes())}")
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            for entry, sset in zip(manifest["stats"], solved, strict=True):
                rest = {k: v for k, v in entry.items() if k != "start"}
                print(f"sweep {key} {json.dumps(rest, sort_keys=True)} {_labels(sset)}")
        for key in BUILTIN_KEYS:
            out = Path(tmp) / f"interval-{key}.json"
            _run_cli(["interval", "--reproduce", key, "-o", str(out)])
            print(f"interval {key} {_sha(out.read_bytes())}")
    cli.find_three = find_three


if __name__ == "__main__":
    main()
