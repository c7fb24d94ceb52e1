#!/usr/bin/env python3
"""Compare the critical points that two versions of the solver find.

Run from anywhere; it imports graphvar from the `src` beside this file.
`tools/byte_gate.py --points` writes the dumps, one per checkout, of the
point sets of the 44 acceptance solves and both seed-42 16-step sweeps:

    python3 tools/byte_gate.py --points parent.json > /dev/null  # parent checkout
    python3 tools/byte_gate.py --points change.json > /dev/null  # changed one
    python3 tools/point_gate.py compare parent.json change.json

`compare` matches the solves of two dumps one by one.  A point matches when
the other side has a point of the same kind within distinct_tol of it in
the problem's product W-norm.  It prints each point without a match (its
action, kind, residual and W-distance to the nearest point of the other
side), and each solve whose point count differs, and exits 1 if there is
any; a change in bytes or in the last digits alone passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphvar.problems import builtin_problem  # noqa: E402


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


def compare(a: dict, b: dict) -> list[str]:
    """The lines that fail the gate, one per solve or unmatched point."""
    names_a = [s["name"] for s in a["solves"]]
    if names_a != [s["name"] for s in b["solves"]]:
        return ["the dumps hold different solves"]
    tol = a["distinct_tol"]
    problems = {}
    bad = []
    for sa, sb in zip(a["solves"], b["solves"]):
        prob = problems.setdefault(sa["key"], builtin_problem(sa["key"]).problem)
        pa, pb = sa["points"], sb["points"]
        if len(pa) != len(pb):
            bad.append(f"{sa['name']}: {len(pa)} -> {len(pb)} points")
        bad += [f"{sa['name']}: only in A: {line}" for line in _unmatched(prob, tol, pa, pb)]
        bad += [f"{sa['name']}: only in B: {line}" for line in _unmatched(prob, tol, pb, pa)]
    return bad


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] == "compare":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[2:])
        bad = compare(a, b)
        for line in bad:
            print(line)
        print(f"solves: {len(a['solves'])}; lines that differ: {len(bad)}")
        print("gate: " + ("FAIL" if bad else "pass"))
        return 1 if bad else 0
    print("usage: python3 tools/point_gate.py compare A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
