#!/usr/bin/env python3
"""Compare two `tools/byte_gate.py` outputs under the multistart's contract.

    python3 tools/gate_diff.py parent.txt change.txt

Exits 0 when every output line matches with its iteration counts set aside:
the same fingerprints, and the same start and deflation labels.  Otherwise
it prints each line that breaks this and exits 1.  It counts the iteration
counts (`start_iters=`, `deflation_iters=`) that differ: those alone do not
fail, since a change to when the multistart launches its starts can move
them without moving a label.
"""

from __future__ import annotations

import sys


def _split(line: str) -> tuple[str, dict[str, list[str]]]:
    """A gate line as (its fingerprint text, its labels per phase)."""
    head, sep, tail = line.rstrip("\n").partition(" start=")
    if not sep:
        return head, {}
    labels = {}
    for part in ("start=" + tail).split(" "):
        phase, _, items = part.partition("=")
        labels[phase] = items.split(",") if items else []
    return head, labels


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/gate_diff.py A B", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
        lines_a, lines_b = fa.readlines(), fb.readlines()
    bad = [] if len(lines_a) == len(lines_b) else [
        f"line count {len(lines_a)} != {len(lines_b)}"]
    iters_moved = 0
    for a, b in zip(lines_a, lines_b):
        (head_a, labels_a), (head_b, labels_b) = _split(a), _split(b)
        name = head_a[:100]
        if head_a != head_b:
            bad.append(f"differs: {name}")
            continue
        for phase in labels_a.keys() | labels_b.keys():
            got_a, got_b = labels_a.get(phase, []), labels_b.get(phase, [])
            if len(got_a) != len(got_b):
                bad.append(f"{phase} label count {len(got_a)} != {len(got_b)}: {name}")
                continue
            if phase.endswith("_iters"):
                iters_moved += sum(x != y for x, y in zip(got_a, got_b))
                continue
            bad += [f"{phase} label {x} -> {y}: {name}"
                    for x, y in zip(got_a, got_b) if x != y]
    for line in bad:
        print(line)
    print(f"iteration counts that differ: {iters_moved}")
    print("gate: " + ("FAIL" if bad else "pass"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
