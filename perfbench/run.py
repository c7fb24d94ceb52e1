#!/usr/bin/env python3
"""Benchmark for graphvar: two workloads through its public entry points.

Run from the root of a graphvar checkout:

    python3 perfbench/run.py --workload find-three --seed 42 --seconds 60 --trace 0

--trace 0 runs untraced passes and reports the end-to-end metrics.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead.  Spans go to
perfbench/out/spans-<workload>.npz.  Readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import os

# Fixed benchmark settings, the same on every commit.  They must be set
# before numpy loads.  The BLAS pool is one thread: with the default pool,
# example-6.2 solves took 9.2-14.4 s, and with one thread 10.4-11.1 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRAPHVAR_THREADS", None)  # the program's default, serial

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import layers
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
P90_MIN_CALLS = 100  # the 90th percentile needs ten calls beyond it
SETUP_REPS = 9
MIN_PASSES = 2

# The solver workload: find_three on both bundled examples with the default
# SolverConfig (64 starts).  The solver seed is fixed, so the work is the
# same for every workload seed, which only shuffles the order of the calls:
# solve time varies too much from solver seed to solver seed (README.md,
# "Seeds").
SOLVER_PLAN = (("example-6.1", (0.15, 0.3, 0.5)), ("example-6.2", (1.0,)))
SOLVER_SEED = 42
INTERVALS = {"example-6.1": "(0.0761374, 0.653027)",
             "example-6.2": "(0.0370613, 2.35996)"}
OP_ORDERS = (1, 2, 3)
OP_EXPONENT = 3.0
LATTICE_RADIUS = 10  # 441 vertices
OP_RTOL = 1e-9


@dataclass
class Call:
    """One top-level call: `run` is timed, `check` returns an error or None."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def check_solution(gv, prob, lam: float, cfg, sset) -> Optional[str]:
    points = list(sset.points)
    if len(points) < 3:
        return f"{len(points)} critical point(s), expected 3"
    for i, pt in enumerate(points):
        res = gv.residual(prob, lam, pt.state)
        if not res <= cfg.grad_tol:
            return f"point {i}: residual {res:.3e} > grad_tol {cfg.grad_tol:g}"
    dist = np.asarray(sset.distances, dtype=float)
    if not np.all(dist[~np.eye(len(points), dtype=bool)] > cfg.distinct_tol):
        return f"two points closer than distinct_tol {cfg.distinct_tol:g}"
    if not all(sset.nontrivial):
        return "a trivial point"
    return None


def solver_workload(gv, seed: int, work: Path) -> list[Call]:
    plan = [(key, lam) for key, lams in SOLVER_PLAN for lam in lams]
    random.Random(seed).shuffle(plan)
    preps = {key: gv.builtin_problem(key) for key, _ in SOLVER_PLAN}
    calls = []
    for key, lam in plan:
        prep = preps[key]
        cfg = gv.SolverConfig(seed=SOLVER_SEED)
        radius = 1.0 + max(prep.deltas)  # the start radius `graphvar solve` uses

        def run(prob=prep.problem, lam=lam, cfg=cfg, radius=radius):
            return gv.find_three(prob, lam, cfg, start_radius=radius)

        def check(sset, prob=prep.problem, lam=lam, cfg=cfg):
            return check_solution(gv, prob, lam, cfg, sset)

        calls.append(Call(f"find_three {key} lambda={lam}", run, check))
    return calls


def lattice_docs(seed: int) -> tuple[dict, dict]:
    """Square-lattice ball with random measures, weights and a function."""
    rng = np.random.default_rng(seed)
    span = range(-LATTICE_RADIUS, LATTICE_RADIUS + 1)
    ident = {(i, j): f"x{i + LATTICE_RADIUS:02d}_{j + LATTICE_RADIUS:02d}"
             for i in span for j in span}
    pairs = [(ident[i, j], ident[i + di, j + dj]) for (i, j) in ident
             for di, dj in ((0, 1), (1, 0)) if (i + di, j + dj) in ident]
    mu = rng.uniform(0.5, 2.0, len(ident))
    w = rng.uniform(0.5, 2.0, len(pairs))
    u = rng.uniform(-1.0, 1.0, len(ident))
    graph = {"vertices": [{"id": v, "mu": float(m)} for v, m in zip(ident.values(), mu)],
             "edges": [{"a": a, "b": b, "w": float(x)} for (a, b), x in zip(pairs, w)]}
    func = {"values": {v: float(x) for v, x in zip(ident.values(), u)}}
    return graph, func


def cli_call(gv, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gv.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def interval_op_workload(gv, seed: int, work: Path) -> list[Call]:
    graph_doc, func_doc = lattice_docs(seed)
    graph_path, u_path = work / "graph.json", work / "u.json"
    graph_path.write_text(json.dumps(graph_doc))
    u_path.write_text(json.dumps(func_doc))
    reference: dict[int, np.ndarray] = {}

    def expected(m: int) -> np.ndarray:
        if m not in reference:
            g = gv.build_graph(graph_doc)
            u = np.array([func_doc["values"][v] for v in g.vertices])
            reference[m] = gv.calculus.poly_lap_apply_arr(g, u, m, OP_EXPONENT)
        return reference[m]

    calls = []
    for key, interval in INTERVALS.items():
        argv = ["interval", "--reproduce", key, "-o", str(work / f"interval-{key}.json")]

        def check_interval(result, interval=interval):
            code, out, err = result
            if code != 0:
                return f"exit code {code}: {err.strip()}"
            if f"lambda interval: {interval}" not in out:
                return f"printed {out.strip()!r}, expected {interval}"
            return None

        calls.append(Call(f"interval {key}", lambda argv=argv: cli_call(gv, argv),
                          check_interval))
    for m in OP_ORDERS:
        out_path = work / f"op-m{m}.json"
        argv = ["op", "poly_lap", "--graph", str(graph_path), "--u", str(u_path),
                "--m", str(m), "--p", str(OP_EXPONENT), "-o", str(out_path)]

        def check_op(result, m=m, out_path=out_path):
            code, _, err = result
            if code != 0:
                return f"exit code {code}: {err.strip()}"
            values = json.loads(out_path.read_text())["values"]
            got = np.array([values[v["id"]] for v in graph_doc["vertices"]])
            ref = expected(m)
            gap = float(np.max(np.abs(got - ref)))
            if not gap <= OP_RTOL * float(np.max(np.abs(ref))):
                return f"differs from poly_lap_apply_arr by {gap:.3e}"
            return None

        calls.append(Call(f"op poly_lap m={m}", lambda argv=argv: cli_call(gv, argv),
                          check_op))
    return calls


WORKLOADS = {"find-three": solver_workload, "interval-op": interval_op_workload}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Measured:
    untraced_wall: list = field(default_factory=list)  # whole passes only
    traced_wall: list = field(default_factory=list)
    call_s: dict = field(default_factory=dict)  # label -> untraced call times
    call_cpu: dict = field(default_factory=dict)  # label -> their CPU times
    attempted: int = 0
    failures: list = field(default_factory=list)


def medians(samples: dict) -> list:
    """Each distinct call's median over its samples."""
    return [statistics.median(times) for times in samples.values()]


def one_pass(calls: list[Call], tr: Optional[Tracer], traced: bool, m: Measured,
             deadline: Optional[float] = None) -> int:
    """Make the calls in order and check them; return how many were made.

    With a deadline, a call whose median so far would end past it is skipped.
    """
    done = []
    if tr is not None:
        tr.on = traced
    w0 = time.perf_counter()
    for call in calls:
        times = m.call_s.get(call.label)
        if deadline is not None and times:
            if time.perf_counter() + statistics.median(times) > deadline:
                continue
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out, err = call.run(), None
        except Exception as exc:  # a failing call is counted; the run goes on
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        done.append((call, out, err, time.perf_counter() - t0, time.process_time() - c0))
    wall = time.perf_counter() - w0
    if tr is not None:
        tr.on = False
    for call, out, err, dt, cpu in done:  # checks run outside the timed calls
        m.attempted += 1
        err = err or call.check(out)
        if err:
            m.failures.append(f"{call.label}: {err}")
        if not traced:
            m.call_s.setdefault(call.label, []).append(dt)
            m.call_cpu.setdefault(call.label, []).append(cpu)
    if traced:
        m.traced_wall.append(wall)
    elif len(done) == len(calls):
        m.untraced_wall.append(wall)
    return len(done)


def measure(calls: list[Call], seconds: float, tr: Optional[Tracer]) -> Measured:
    """Make at least two whole passes, then use the rest of `seconds`.

    Untraced, later passes make only the calls that still fit, until none
    does.  With a tracer, whole passes alternate untraced and traced until
    the next one would end past `seconds`.
    """
    m = Measured()
    start = time.perf_counter()
    i = 0
    while True:
        traced = tr is not None and i % 2 == 1
        cut = start + seconds if tr is None and i >= MIN_PASSES else None
        made = one_pass(calls, tr, traced, m, cut)
        i += 1
        if tr is None:
            if made == 0:
                return m
            continue
        typical = statistics.median(m.untraced_wall + m.traced_wall)
        if i >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads() -> Optional[int]:
    """Threads in the BLAS pool numpy loaded, when it is OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "graphvar").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "blas_threads_reason": "fixed at 1 for steadiness: example-6.2 spread "
                               "9.2-14.4 s on the default pool, 10.4-11.1 s on one thread",
        "graphvar_threads": os.environ.get("GRAPHVAR_THREADS", "unset (default 1)"),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def import_graphvar():
    """Import graphvar and its CLI afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "graphvar" or n.startswith("graphvar.")]:
        del sys.modules[name]
    importlib.import_module("graphvar.cli")
    return sys.modules["graphvar"]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "graphvar" / "__init__.py").is_file():
        print(f"error: no graphvar sources under {SRC}; run from the root of a "
              "graphvar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gv = import_graphvar()
    if SRC.resolve() not in Path(gv.__file__).resolve().parents:
        print(f"error: graphvar was imported from {gv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tr = None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            calls = gv = None  # free the previous import before the next
            gc.collect()
            t0 = time.perf_counter()
            gv = import_graphvar()
            calls = WORKLOADS[args.workload](gv, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        if args.trace:
            tr = Tracer()
            preps = [gv.builtin_problem(k) for k in INTERVALS]  # both examples
            layers.instrument(tr, gv, [type(p.problem) for p in preps],
                              [type(p.problem.nonlinearity) for p in preps])
        m = measure(calls, args.seconds, tr)
    finally:
        if tr is not None:
            tr.restore()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(m.failures)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(m.untraced_wall)} untraced + {len(m.traced_wall)} traced passes, "
          f"{m.attempted} calls, {failed} failed, fail_ratio {failed / m.attempted:g}")
    print("pass wall_s: untraced " + " ".join(f"{w:.4g}" for w in m.untraced_wall)
          + " | traced " + " ".join(f"{w:.4g}" for w in m.traced_wall))
    for line in m.failures[:20]:
        print("check failed: " + line)

    # a call's time is its median over the passes and a pass is the sum of
    # its calls, so a burst of machine noise in one pass moves it less
    per_call = medians(m.call_s)
    all_calls = [t for times in m.call_s.values() for t in times]
    end_to_end = {
        "wall_s": sum(per_call),
        "cpu_s": sum(medians(m.call_cpu)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"samples: {len(all_calls)} untraced calls, {len(per_call)} distinct, "
          f"setup_s over {SETUP_REPS} imports and set-ups")
    for label, t in zip(m.call_s, per_call):
        print(f"call {label}: median {t:.4g} s over {len(m.call_s[label])}")
    # printed only: a median over a few unlike calls spreads too widely
    print(f"call_s.p50 {statistics.median(per_call):.6g} s over {len(per_call)} distinct calls")
    if len(all_calls) >= P90_MIN_CALLS:
        print(f"call_s.p90 {np.percentile(all_calls, 90):.6g} s over {len(all_calls)} calls "
              "(printed only: no other workload makes enough calls)")
    if args.trace:
        for name, unit in END_TO_END:  # printed; the result holds the layers
            print(f"untraced {name} {end_to_end[name]:.6g} {unit}")
        overhead = statistics.median(m.traced_wall) - statistics.median(m.untraced_wall)
        values = layers.per_layer_metrics(tr, len(m.traced_wall), overhead)
        units = dict(layers.PER_LAYER)
        tr.save(str(OUT / f"spans-{args.workload}.npz"), env)
    else:
        values, units = end_to_end, dict(END_TO_END)
    metrics = {}
    for name, value in values.items():
        if value is None:
            print(f"metric {name} absent")
            continue
        print(f"metric {name} {value:.6g} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": m.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
