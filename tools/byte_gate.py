#!/usr/bin/env python3
"""Record the outputs a solver or interval change must keep, and compare
two such records.

Run from anywhere; it imports graphvar from the `src` beside this file.
Run it in two checkouts with the same BLAS setting, then compare:

    OPENBLAS_NUM_THREADS=1 python3 tools/byte_gate.py > parent.jsonl  # parent
    OPENBLAS_NUM_THREADS=1 python3 tools/byte_gate.py > change.jsonl  # change
    python3 tools/byte_gate.py compare parent.jsonl change.jsonl

The record is one JSON line per output, with its `name`:

- the 44 acceptance solves: example-6.1 at lambda = 0.15, 0.3, 0.5 and
  example-6.2 at lambda = 1.0, at seeds 0-9 and 42, default SolverConfig;
  `sha256` is of `solution_set_to_json`;
- both seed-42 16-step sweeps (lambda 0.05 to 0.8): the CSV's `sha256`,
  and per lambda the manifest `stats` entry without its per-outcome start
  counts, which the labels give;
- both `interval --reproduce` reports' `sha256`.

A solve, the sweeps' as `sweep --reproduce` solved them, also has every
start's and deflation attempt's outcome label in order (`start`,
`deflation`), the iterations of each (`iters`), and its `points`, each as
its packed state, action, kind and residual.

Dense LAPACK results depend on the OpenBLAS thread count, so compare only
runs made with the same setting.  A run takes 6-8 s.

`compare` gives two verdicts and prints each line that fails one:

- bytes: every output is there, with the same `sha256`, `stats` and
  labels.  Iteration counts that differ are counted and do not fail it,
  since a change to when the multistart launches its starts can move them
  without moving a label.
- points: each solve has as many points, and each point has one of its
  kind within distinct_tol in the problem's product W-norm on the other
  side.  An unmatched point prints with its action, kind, residual and
  W-distance to the nearest point of the other side.  A change in bytes
  or in the last digits alone passes.

It exits 0 when both pass, 1 when only bytes fails, 4 when only points
fails, 5 when both fail, and 2 on a bad argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import graphvar as gv  # noqa: E402
from graphvar import cli  # noqa: E402
from graphvar.problems import BUILTIN_KEYS, builtin_problem  # noqa: E402
from graphvar.solver import solution_set_to_json  # noqa: E402

SOLVES = (("example-6.1", (0.15, 0.3, 0.5)), ("example-6.2", (1.0,)))
SEEDS = tuple(range(10)) + (42,)
SWEEP = ["--lambda-min", "0.05", "--lambda-max", "0.8", "--steps", "16", "--seed", "42"]
PHASES = ("start", "deflation")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _solved(name: str, prob, sset) -> dict:
    """The record of a solve: its labels, iterations and points."""
    rec = {"name": name, "start": [], "deflation": [], "iters": {"start": [], "deflation": []}}
    for phase, _, outcome, n in sset.outcomes:
        rec[phase].append(outcome)
        rec["iters"][phase].append(n)
    rec["points"] = [{"z": prob.pack_state(p.state).tolist(), "action": p.action_value,
                      "kind": p.kind, "residual": p.residual_sup} for p in sset.points]
    return rec


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # stdout holds the record
        code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_HYPOTHESES):
        raise SystemExit(f"graphvar {' '.join(argv)} exited {code}")


def record():
    """Yield the record of each output, in a fixed order."""
    for key, lams in SOLVES:
        prep = builtin_problem(key)
        for lam in lams:
            for seed in SEEDS:
                sset = gv.find_three(prep.problem, lam, gv.SolverConfig(seed=seed),
                                     start_radius=1.0 + max(prep.deltas))
                rec = _solved(f"accept {key} {lam!r} seed={seed}", prep.problem, sset)
                yield {"sha256": _sha(solution_set_to_json(sset).encode())} | rec

    solved = []
    find_three = cli.find_three

    def recording(*args, **kwargs):
        solved.append(find_three(*args, **kwargs))
        return solved[-1]

    cli.find_three = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for key in BUILTIN_KEYS:
                out = Path(tmp) / f"sweep-{key}.csv"
                solved.clear()
                _run_cli(["sweep", "--reproduce", key, *SWEEP, "-o", str(out)])
                yield {"name": f"sweep {key} csv", "sha256": _sha(out.read_bytes())}
                manifest = json.loads(Path(f"{out}.manifest.json").read_text())
                prob = builtin_problem(key).problem
                for entry, sset in zip(manifest["stats"], solved, strict=True):
                    rec = _solved(f"sweep {key} {sset.lam!r} seed={sset.seed}", prob, sset)
                    yield {"stats": {k: v for k, v in entry.items() if k != "start"}} | rec
            for key in BUILTIN_KEYS:
                out = Path(tmp) / f"interval-{key}.json"
                _run_cli(["interval", "--reproduce", key, "-o", str(out)])
                yield {"name": f"interval {key}", "sha256": _sha(out.read_bytes())}
    finally:
        cli.find_three = find_three


def _bytes_diff(ra: dict, rb: dict) -> list[str]:
    """A line for each field of two records of one output that differs,
    their iterations and points set aside."""
    lines = []
    for field in sorted((ra.keys() | rb.keys()) - {"iters", "points"}):
        x, y = ra.get(field), rb.get(field)
        if field not in PHASES or x is None or y is None:
            lines += [f"{field} differs"] if x != y else []
        elif len(x) != len(y):
            lines.append(f"{field} label count {len(x)} -> {len(y)}")
        else:
            lines += [f"{field} label {i}: {u} -> {v}"
                      for i, (u, v) in enumerate(zip(x, y)) if u != v]
    return lines


def _unmatched(prob, tol: float, mine: list[dict], theirs: list[dict]) -> list[str]:
    """A line for each point of `mine` with no point of `theirs` of its kind
    within tol."""
    lines = []
    for p in mine:
        dists = [prob.wnorm_vec(np.array(p["z"]) - np.array(q["z"])) for q in theirs]
        if any(d <= tol and q["kind"] == p["kind"] for d, q in zip(dists, theirs)):
            continue
        near = f"{min(dists):.6g}" if dists else "none"
        lines.append(f"action={p['action']!r} kind={p['kind']} "
                     f"residual={p['residual']:.3e} W-distance to nearest={near}")
    return lines


def compare(a: list[dict], b: list[dict]) -> tuple[list[str], list[str], int]:
    """The lines that fail the bytes verdict, those that fail the points
    verdict, and the number of iteration counts that differ."""
    if [r["name"] for r in a] != [r["name"] for r in b]:
        return ["the records hold different outputs"], ["the records hold different outputs"], 0
    tol = gv.SolverConfig().distinct_tol
    problems = {}
    bytes_bad, points_bad, moved = [], [], 0
    for ra, rb in zip(a, b):
        name = ra["name"]
        bytes_bad += [f"{name}: {line}" for line in _bytes_diff(ra, rb)]
        if "points" not in ra:
            continue
        for phase in PHASES:
            moved += sum(x != y for x, y in zip(ra["iters"][phase], rb["iters"][phase]))
        key = name.split()[1]
        prob = problems.setdefault(key, builtin_problem(key).problem)
        pa, pb = ra["points"], rb["points"]
        if len(pa) != len(pb):
            points_bad.append(f"{name}: {len(pa)} -> {len(pb)} points")
        points_bad += [f"{name}: only in A: {line}" for line in _unmatched(prob, tol, pa, pb)]
        points_bad += [f"{name}: only in B: {line}" for line in _unmatched(prob, tol, pb, pa)]
    return bytes_bad, points_bad, moved


def _read(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        for rec in record():
            print(json.dumps(rec))
        return 0
    if len(argv) != 4 or argv[1] != "compare":
        print("usage: python3 tools/byte_gate.py [compare A B]", file=sys.stderr)
        return 2
    a, b = _read(argv[2]), _read(argv[3])
    bytes_bad, points_bad, moved = compare(a, b)
    for verdict, bad in (("bytes", bytes_bad), ("points", points_bad)):
        for line in bad:
            print(f"{verdict}: {line}")
    print(f"outputs: {len(a)}; iteration counts that differ: {moved}")
    print("bytes: " + ("FAIL" if bytes_bad else "pass"))
    print("points: " + ("FAIL" if points_bad else "pass"))
    return (1 if bytes_bad else 0) | (4 if points_bad else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
