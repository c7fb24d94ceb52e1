import argparse
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphvar as gv
from graphvar import calculus, solver
from graphvar.calculus import poly_lap_apply_arr
from graphvar.cli import build_parser, main
from graphvar.graph import function_from_doc, function_to_doc
from graphvar.nonlinearity import nonlinearity_to_doc

README = Path(__file__).resolve().parents[1] / "README.md"


def write_graph(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GOOD = {
    "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
    "edges": [{"a": "a", "b": "b", "w": 2.0}],
}


def test_validate_ok(tmp_path, capsys):
    path = write_graph(tmp_path, gv.serialize(gv.grid3x3()))
    assert main(["validate", path]) == 0
    assert "9 vertices" in capsys.readouterr().out


def test_validate_zero_weight_exit2_names_edge(tmp_path, capsys):
    bad = {"vertices": GOOD["vertices"], "edges": [{"a": "a", "b": "b", "w": 0.0}]}
    path = write_graph(tmp_path, bad)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "'b'" in err


@pytest.mark.parametrize("field, bad", [("mu", "1.0"), ("mu", True), ("w", "2")])
def test_validate_non_number_exit2(tmp_path, capsys, field, bad):
    doc = json.loads(json.dumps(GOOD))
    (doc["edges"] if field == "w" else doc["vertices"])[0][field] = bad
    assert main(["validate", write_graph(tmp_path, doc)]) == 2
    assert f"{field} of " in capsys.readouterr().err


@pytest.mark.parametrize("field, bad", [("id", True), ("id", 1.0), ("a", 0), ("b", None)])
def test_validate_non_string_id_exit2(tmp_path, capsys, field, bad):
    doc = json.loads(json.dumps(GOOD))
    (doc["vertices"] if field == "id" else doc["edges"])[0][field] = bad
    assert main(["validate", write_graph(tmp_path, doc)]) == 2
    assert f"{field} of " in capsys.readouterr().err


def test_validate_missing_file_exit1(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


def test_validate_malformed_json_exit1(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 1


@pytest.mark.parametrize("command", ["validate", "interval"])
def test_non_utf8_input_exit1(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    argv = {"validate": ["validate", str(path)],
            "interval": ["interval", "--problem", str(path), "-o",
                         str(tmp_path / "rep.json")]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "Traceback" not in err


# what `op <name> --m 2 --p 3 --r 3` computes, from the library
OP_LIBRARY = {
    "gamma": lambda g, u, v: calculus.gamma(g, u, v),
    "grad_norm": lambda g, u, v: calculus.grad_norm(g, u),
    "laplacian": lambda g, u, v: calculus.laplacian(g, u),
    "m_grad_norm": lambda g, u, v: calculus.m_grad_norm(g, u, 2),
    "p_laplacian": lambda g, u, v: calculus.p_laplacian(g, u, 3.0),
    "poly_lap": lambda g, u, v: gv.VertexFunction(g, poly_lap_apply_arr(g, u.values, 2, 3.0)),
    "lr_norm": lambda g, u, v: calculus.lr_norm(g, u, 3.0),
    "integrate": lambda g, u, v: gv.integrate(g, u),
}


@pytest.mark.parametrize("name", sorted(OP_LIBRARY))
def test_op_round_trip(tmp_path, name):
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert set(next(a for a in subs.choices["op"]._actions if a.dest == "name").choices) == set(
        OP_LIBRARY)
    g = gv.lattice_ball(2)
    gpath = tmp_path / "g.json"
    gv.save_graph(g, str(gpath))
    rng = np.random.default_rng(3)
    u, v = (gv.VertexFunction(g, rng.uniform(-1, 1, g.n_vertices)) for _ in range(2))
    upath, vpath, out = tmp_path / "u.json", tmp_path / "v.json", tmp_path / "out.json"
    upath.write_text(json.dumps(function_to_doc(u)))
    vpath.write_text(json.dumps(function_to_doc(v)))
    assert main(["op", name, "--graph", str(gpath), "--u", str(upath), "--v", str(vpath),
                 "--m", "2", "--p", "3", "--r", "3", "-o", str(out)]) == 0
    want = OP_LIBRARY[name](g, u, v)
    if isinstance(want, float):
        assert out.read_text() == repr(want) + "\n"
    else:
        written = function_from_doc(g, json.loads(out.read_text())).values
        assert written.tobytes() == want.values.tobytes()


def test_op_integrate_prints_scalar(tmp_path, capsys):
    gpath = write_graph(tmp_path, GOOD)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"values": {"a": 0.0, "b": 1.0}}))
    assert main(["op", "integrate", "--graph", gpath, "--u", str(upath)]) == 0
    assert capsys.readouterr().out.strip() == "1.0"


@pytest.mark.parametrize("name", ["integrate", "lr_norm"])
def test_op_scalar_with_out_writes_the_line_and_a_manifest(tmp_path, capsys, name):
    gpath = write_graph(tmp_path, GOOD)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"values": {"a": 0.0, "b": 1.0}}))
    assert main(["op", name, "--graph", gpath, "--u", str(upath)]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(["op", name, "--graph", gpath, "--u", str(upath), "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed == "1.0\n"
    manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    assert (manifest["command"], manifest["outputs"]) == ("op", [str(out)])


def test_op_gamma_requires_second_function(tmp_path):
    gpath = write_graph(tmp_path, GOOD)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"values": {"a": 0.0, "b": 1.0}}))
    assert main(["op", "gamma", "--graph", gpath, "--u", str(upath)]) == 2


def test_interval_reproduce_61(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["interval", "--reproduce", "example-6.1", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is True
    assert abs(doc["lambda_lo"] - 0.07614) <= 1e-3 * 0.07614
    assert abs(doc["lambda_hi"] - 0.65303) <= 1e-3 * 0.65303
    stdout = capsys.readouterr().out
    assert "0.0761" in stdout and "0.65" in stdout
    manifest = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    assert manifest["command"] == "interval"
    assert manifest["tool_version"]


def test_interval_reproduce_62(tmp_path):
    out = tmp_path / "rep62.json"
    assert main(["interval", "--reproduce", "example-6.2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["valid"] is True
    assert abs(doc["lambda_lo"] - 0.0371) <= 2e-2 * 0.0371
    assert abs(doc["lambda_hi"] - 2.36) <= 2e-2 * 2.36


def test_interval_boundary_deltas_exit3_report_written(tmp_path):
    prep = gv.builtin_problem("example-6.1")
    k1, k2 = gv.kappa_finite(prep.problem)
    g1, g2 = prep.gammas
    out = tmp_path / "repfail.json"
    code = main(["interval", "--reproduce", "example-6.1",
                 "--delta1", repr(g1 * k1), "--delta2", repr(g2 * k2),
                 "-o", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    assert doc["valid"] is False
    failed = {h["name"] for h in doc["hypotheses"] if not h["pass"]}
    assert "F3" in failed


@pytest.mark.parametrize("flags", [["example-6.1", "--gamma1", "1e100"],
                                   ["example-6.2", "--gamma", "1e60"]])
def test_interval_huge_gamma_exits3_without_overflow(tmp_path, flags):
    # the sampled box reaches far past the middle seams, where the middle
    # branches' powers overflow; only the branch that wins may run there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["interval", "--reproduce", *flags, "-o", str(tmp_path / "r.json")]) == 3


def test_interval_overflowing_box_maximum_exits_2_without_a_warning(tmp_path, capsys):
    # with r2 = 1.01 the winning tail branch itself overflows on the
    # 1e100-wide box grid; the grid maximum is checked, not warned about
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["interval", "--reproduce", "example-6.1", "--r2", "1.01",
                     "--gamma2", "1e100", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflowed" in err
    assert not out.exists()


def test_interval_flag_falls_back_to_the_problem_value(tmp_path):
    prep = gv.builtin_problem("example-6.1")
    bare, one = tmp_path / "bare.json", tmp_path / "one.json"
    assert main(["interval", "--reproduce", "example-6.1", "-o", str(bare)]) == 0
    assert main(["interval", "--reproduce", "example-6.1",
                 "--gamma1", repr(prep.gammas[0]), "-o", str(one)]) == 0
    assert one.read_bytes() == bare.read_bytes()

    prep = gv.builtin_problem("example-6.2")
    out = tmp_path / "gamma.json"
    assert main(["interval", "--reproduce", "example-6.2", "--gamma", "1.5",
                 "-o", str(out)]) == 0
    config = json.loads((tmp_path / "gamma.json.manifest.json").read_text())["config"]
    assert (config["gammas"], config["deltas"]) == ([1.5], [prep.deltas[0]])


def test_interval_reports_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["interval", "--reproduce", "example-6.2", "-o", str(out1)]) == 0
    assert main(["interval", "--reproduce", "example-6.2", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_reproduce_61_expect_three(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["solve", "--reproduce", "example-6.1", "--lambda", "0.3",
                 "--seed", "42", "--starts", "16", "--expect-three",
                 "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["found_three"] is True
    assert len(doc["points"]) >= 3
    for pt in doc["points"]:
        assert pt["residual"] < 1e-8
        assert set(pt) >= {"u", "v", "action", "residual", "kind"}
    stdout = capsys.readouterr().out
    assert "distinct critical point" in stdout


def test_solve_manifest_counts_every_start_and_attempt(tmp_path, monkeypatch):
    attempts = []
    deflated = solver._deflated_newton
    monkeypatch.setattr(solver, "_deflated_newton",
                        lambda *a: attempts.append(1) or deflated(*a))
    out = tmp_path / "sol.json"
    assert main(["solve", "--reproduce", "example-6.1", "--lambda", "0.3",
                 "--seed", "7", "--starts", "6", "-o", str(out)]) == 0
    stats = json.loads((tmp_path / "sol.json.manifest.json").read_text())["stats"]
    assert set(stats["start"]) == set(stats["deflation"]) == set(solver.OUTCOMES)
    assert sum(stats["start"].values()) == 6 + 1
    assert sum(stats["deflation"].values()) == len(attempts) > 0
    assert stats["start"]["new"] + stats["deflation"]["new"] == len(
        json.loads(out.read_text())["points"])
    assert stats["start"]["diverged"] > 0  # r1 = 2 = p: unbounded below
    assert '"minimizer" labels are local' in stats["note"]
    # too few starts for the stopping rule: it ran to --starts
    assert stats["multistart"] == {
        "starts": 7, "n": 7 - stats["start"]["diverged"], "w": stats["start"]["new"],
        "stop": "cap", "estimate": None}


def test_solve_manifest_records_where_the_stopping_rule_stopped(tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", "--reproduce", "example-6.2", "--lambda", "1.0",
                 "--seed", "42", "-o", str(out)]) == 0
    stats = json.loads((tmp_path / "sol.json.manifest.json").read_text())["stats"]
    # two points and 17 starts that did not diverge: 2 * 16 / 13 < 2.5
    assert stats["multistart"] == {"starts": 17, "n": 17, "w": 2, "stop": "rule",
                                   "estimate": 32 / 13}
    assert sum(stats["start"].values()) == 17
    assert stats["cells"] == 28  # the 169-vertex ball up to its eight symmetries


def test_manifest_describes_the_last_multistart_of_a_solve(tmp_path):
    # at lambda = 1e-9 the quotient finds one point, and the search of the
    # problem that follows finds no other: each ran its five starts to the
    # cap, which the ten counted together would read as a stop by the rule
    out = tmp_path / "sol.json"
    assert main(["solve", "--reproduce", "example-6.1", "--lambda", "1e-9",
                 "--seed", "42", "--starts", "4", "-o", str(out)]) == 0
    stats = json.loads((tmp_path / "sol.json.manifest.json").read_text())["stats"]
    assert sum(stats["start"].values()) == 10 and stats["start"]["new"] == 1
    assert stats["multistart"] == {"starts": 5, "n": 5, "w": 0, "stop": "cap",
                                   "estimate": None}


def test_manifest_notes_local_labels_from_the_growth_exponents(tmp_path):
    # example 6.1 has alpha = 4 - r1 = 2 = p: not coercive, even when no
    # start happens to diverge
    out = tmp_path / "sol.json"
    assert main(["solve", "--reproduce", "example-6.1", "--lambda", "1e-9",
                 "--seed", "42", "--starts", "4", "-o", str(out)]) == 0
    stats = json.loads((tmp_path / "sol.json.manifest.json").read_text())["stats"]
    assert stats["start"]["diverged"] == 0
    assert ("growth exponents (2.0, 2.0) are not all below the exponents (2.0, 3.0)"
            in stats["note"])
    assert '"minimizer" labels are local' in stats["note"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
@pytest.mark.parametrize("command", [
    ["solve", "--reproduce", "example-6.1", "--lambda", "0.3"],
    ["sweep", "--reproduce", "example-6.1", "--lambda-min", "0.2", "--lambda-max", "0.4",
     "--steps", "2"]])
def test_seed_outside_the_generator_key_range_exits_2(tmp_path, capsys, command, seed):
    out = tmp_path / "out"
    assert main(command + ["--seed", seed, "--starts", "2", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed must lie in [0, 2**128)" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--reproduce", "example-6.1", "--starts", "2", "--lambda", "nan"],
    ["solve", "--reproduce", "example-6.1", "--starts", "2", "--lambda", "0.3",
     "--grad-tol", "nan"],
    ["solve", "--reproduce", "example-6.1", "--starts", "2", "--lambda", "0.3",
     "--distinct-tol", "nan"],
    ["interval", "--reproduce", "example-6.1", "--gamma1", "nan"],
    ["solve", "--reproduce", "example-6.1", "--starts", "2", "--lambda", "inf"],
    ["solve", "--reproduce", "example-6.1", "--starts", "2", "--lambda", "0.3",
     "--grad-tol", "inf"],
    ["solve", "--reproduce", "example-6.1", "--starts", "2", "--lambda", "0.3",
     "--distinct-tol", "inf"],
    ["interval", "--reproduce", "example-6.1", "--delta1", "inf"]],
    ids=["lambda", "grad-tol", "distinct-tol", "gamma1", "lambda-inf", "grad-tol-inf",
         "distinct-tol-inf", "delta1-inf"])
def test_nan_parameter_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(command + ["-o", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_solve_tiny_lambda_exit4(tmp_path):
    out = tmp_path / "sol2.json"
    code = main(["solve", "--reproduce", "example-6.1", "--lambda", "1e-9",
                 "--seed", "42", "--starts", "4", "--expect-three",
                 "-o", str(out)])
    assert code == 4
    doc = json.loads(out.read_text())
    assert doc["found_three"] is False


def test_solve_problem_document(tmp_path):
    # a custom scalar problem document: small lattice, spike nonlinearity
    x0 = gv.lattice_ball_center(1)
    doc = {
        "mode": "locally_finite",
        "graph": {"builtin": "lattice_ball", "params": {"radius": 1}},
        "m": 1, "p": 3.0, "h": {"const": 4.0},
        "nonlinearity": {"builtin": "example_6_2",
                         "params": {"omega": 4.0 ** (1.0 / 3.0), "r": 5.0,
                                    "support": x0}},
        "gamma": (16.0 / 3.0) ** (1.0 / 3.0),
        "delta": 6.0 * 4.0 ** (1.0 / 3.0),
        "x0": x0, "h0": 4.0, "mu0": 1.0,
    }
    ppath = tmp_path / "problem.json"
    ppath.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["valid"] is True
    sol = tmp_path / "sol.json"
    code = main(["solve", "--problem", str(ppath), "--lambda", "1.0",
                 "--seed", "42", "--starts", "10", "--expect-three",
                 "-o", str(sol)])
    assert code == 0
    manifest = json.loads((tmp_path / "sol.json.manifest.json").read_text())
    assert str(ppath) in manifest["inputs"]
    assert len(manifest["inputs"][str(ppath)]) == 64  # sha256 hex digest


def test_sweep_rows_and_validation(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--reproduce", "example-6.1",
                 "--lambda-min", "0.2", "--lambda-max", "0.4", "--steps", "2",
                 "--seed", "42", "--starts", "8", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,solutions_found,min_action,max_residual"
    assert len(lines) == 3
    for row in lines[1:]:  # both rows are inside the admissible interval
        fields = row.split(",")
        assert int(fields[1]) >= 3
        assert float(fields[3]) < 1e-8
    stats = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())["stats"]
    assert [s["lambda"] for s in stats] == [0.2, 0.4]
    assert all(sum(s["start"].values()) == 8 + 1 for s in stats)
    assert all(s["multistart"]["starts"] == 8 + 1 for s in stats)
    assert all(s["cells"] == 3 for s in stats)  # corners, edge midpoints, centre
    assert main(["sweep", "--reproduce", "example-6.1", "--lambda-min", "0.2",
                 "--lambda-max", "0.4", "--steps", "1", "-o", str(out)]) == 2
    assert main(["sweep", "--reproduce", "example-6.1", "--lambda-min", "0.4",
                 "--lambda-max", "0.2", "--steps", "3", "-o", str(out)]) == 2


def test_sweep_infinite_lambda_max_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--reproduce", "example-6.1", "--lambda-min", "0.05",
                 "--lambda-max", "inf", "--steps", "3", "--starts", "2",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "need 0 < --lambda-min < --lambda-max < inf, got (0.05, inf)" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_manifest_config_records_the_effective_configuration(tmp_path):
    def config(name):
        return json.loads((tmp_path / f"{name}.manifest.json").read_text())["config"]

    # the builtin's flags: the two radii write the same report bytes, so
    # only the config tells the runs apart
    for radius in ("4", "6"):
        assert main(["interval", "--reproduce", "example-6.2", "--radius", radius,
                     "-o", str(tmp_path / f"r{radius}.json")]) == 0
    four, six = config("r4.json"), config("r6.json")
    assert (four["builtin"], four["radius"], six["radius"]) == ("example-6.2", 4, 6)
    assert (four["r_tail"], four["x0"], six["x0"]) == (5.0, "v04_04", "v06_06")
    assert (four["h0"], four["mu0"]) == (4.0, 1.0)
    assert "r1" not in four

    solve = ["solve", "--reproduce", "example-6.1", "--lambda", "0.3", "--seed", "7",
             "--starts", "2"]
    assert main(solve + ["--r1", "1.5", "-o", str(tmp_path / "a.json")]) == 0
    assert main(solve + ["-o", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() != (tmp_path / "b.json").read_bytes()
    assert (config("a.json")["r1"], config("b.json")["r1"]) == (1.5, 2.0)
    assert config("a.json")["r2"] == 3.0 and "radius" not in config("a.json")

    # sweep records the solver tolerances that solve does
    assert main(["sweep", "--reproduce", "example-6.1", "--lambda-min", "0.2",
                 "--lambda-max", "0.4", "--steps", "2", "--starts", "2",
                 "--max-iters", "500", "--grad-tol", "1e-9", "--distinct-tol", "1e-3",
                 "-o", str(tmp_path / "sweep.csv")]) == 0
    swept = config("sweep.csv")
    assert {k: swept[k] for k in ("builtin", "starts", "max_iters", "grad_tol",
                                  "distinct_tol")} == {
        "builtin": "example-6.1", "starts": 2, "max_iters": 500, "grad_tol": 1e-9,
        "distinct_tol": 1e-3}
    solved = config("b.json")
    assert set(solved) - set(swept) == {"lambda", "expect_three"}


def test_missing_problem_flag_is_validation_error(tmp_path):
    assert main(["interval", "-o", str(tmp_path / "x.json")]) == 2


def test_reports_reparse_under_own_readers(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["interval", "--reproduce", "example-6.1", "-o", str(out)]) == 0
    from graphvar.intervals import IntervalReport
    rep = IntervalReport.from_doc(json.loads(out.read_text()))
    assert rep.valid and rep.theorem == "T1.1"
    assert rep.to_doc() == json.loads(out.read_text())

    sol = tmp_path / "sol.json"
    assert main(["solve", "--reproduce", "example-6.1", "--lambda", "0.3",
                 "--seed", "42", "--starts", "8", "-o", str(sol)]) == 0
    prep = gv.builtin_problem("example-6.1")
    sset = gv.solution_set_from_doc(prep.problem, json.loads(sol.read_text()))
    assert len(sset.points) >= 1
    assert all(isinstance(p.state, gv.StatePair) for p in sset.points)


def test_op_manifest_written(tmp_path):
    gpath = write_graph(tmp_path, GOOD)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"values": {"a": 0.0, "b": 1.0}}))
    out = tmp_path / "out.json"
    assert main(["op", "laplacian", "--graph", gpath, "--u", str(upath),
                 "-o", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["command"] == "op"
    assert gpath in manifest["inputs"]


def test_op_validates_order_exponent_pair(tmp_path):
    gpath = write_graph(tmp_path, GOOD)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"values": {"a": 0.0, "b": 1.0}}))
    assert main(["op", "poly_lap", "--graph", gpath, "--u", str(upath),
                 "--m", "0", "--p", "2.0"]) == 2


def test_op_reads_only_its_own_parameters(tmp_path):
    # m_grad_norm ignores p and p_laplacian ignores m
    gpath = write_graph(tmp_path, GOOD)
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps({"values": {"a": 0.0, "b": 1.0}}))
    assert main(["op", "m_grad_norm", "--graph", gpath, "--u", str(upath),
                 "--m", "2", "--p", "1"]) == 0
    assert main(["op", "p_laplacian", "--graph", gpath, "--u", str(upath),
                 "--m", "0", "--p", "3"]) == 0


def test_op_poly_lap_writes_the_adjoint_values(tmp_path):
    g = gv.lattice_ball(2)
    gpath = tmp_path / "g.json"
    gv.save_graph(g, str(gpath))
    u = gv.VertexFunction(g, np.random.default_rng(7).uniform(-1, 1, g.n_vertices))
    upath = tmp_path / "u.json"
    upath.write_text(json.dumps(function_to_doc(u)))
    out = tmp_path / "out.json"
    for m in (1, 2, 3):
        assert main(["op", "poly_lap", "--graph", str(gpath), "--u", str(upath),
                     "--m", str(m), "--p", "3", "-o", str(out)]) == 0
        written = function_from_doc(g, json.loads(out.read_text())).values
        assert written.tobytes() == poly_lap_apply_arr(g, u.values, m, 3.0).tobytes()
        ref = gv.poly_lap_pointwise(g, u, m, 3.0).values
        assert np.all(np.abs(written - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def _coupled_problem_doc():
    prep = gv.builtin_problem("example-6.1")
    prob = prep.problem
    return {
        "name": "coupled", "mode": "finite", "graph": {"builtin": "grid3x3"},
        "nonlinearity": nonlinearity_to_doc(prob.nonlinearity),
        "m1": 2, "m2": 2, "p": 2.0, "q": 3.0,
        "h1": {"const": 9.0}, "h2": {"const": 9.0},
        "gamma1": prep.gammas[0], "gamma2": prep.gammas[1],
        "delta1": prep.deltas[0], "delta2": prep.deltas[1],
    }


def _scalar_problem_doc():
    x0 = gv.lattice_ball_center(1)
    return {
        "name": "scalar", "mode": "locally_finite",
        "graph": {"builtin": "lattice_ball", "params": {"radius": 1}},
        "m": 1, "p": 3.0, "h": {"const": 4.0},
        "nonlinearity": {"builtin": "example_6_2",
                         "params": {"omega": 4.0 ** (1.0 / 3.0), "r": 5.0,
                                    "support": x0}},
        "gamma": (16.0 / 3.0) ** (1.0 / 3.0), "delta": 6.0 * 4.0 ** (1.0 / 3.0),
        "x0": x0, "h0": 4.0, "mu0": 1.0,
    }


@pytest.mark.parametrize("graph, cells", [
    ({"builtin": "grid3x3"}, 3),
    # a path whose two edges differ in weight: no two vertices alike
    ({"vertices": [{"id": v, "mu": 1.0} for v in "abc"],
      "edges": [{"a": "a", "b": "b", "w": 1.0}, {"a": "b", "b": "c", "w": 2.0}]}, 3),
    ({"vertices": [{"id": v, "mu": 1.0} for v in "abcd"],
      "edges": [{"a": "a", "b": "b", "w": 1.0}, {"a": "b", "b": "c", "w": 2.0},
                {"a": "c", "b": "d", "w": 1.0}]}, 2),
])
def test_solve_manifest_counts_the_cells_of_the_quotient(tmp_path, graph, cells):
    ppath, out = tmp_path / "problem.json", tmp_path / "sol.json"
    ppath.write_text(json.dumps({**_coupled_problem_doc(), "graph": graph}))
    assert main(["solve", "--problem", str(ppath), "--lambda", "0.3", "--starts", "2",
                 "-o", str(out)]) == 0
    stats = json.loads((tmp_path / "sol.json.manifest.json").read_text())["stats"]
    assert stats["cells"] == cells


@pytest.mark.parametrize("delta", [-10.0, -1.0])
def test_solve_start_radius_from_a_negative_delta_exits_2(tmp_path, capsys, delta):
    # the start radius is 1 + delta: -9 and 0
    ppath, out = tmp_path / "problem.json", tmp_path / "sol.json"
    ppath.write_text(json.dumps({**_scalar_problem_doc(), "delta": delta}))
    assert main(["solve", "--problem", str(ppath), "--lambda", "1.0", "--starts", "2",
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "start radius must be positive and finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags,want", [
    (["--reproduce", "example-6.1", "--gamma1", "1e200"], "overflowed"),
    (["--reproduce", "example-6.1", "--delta1", "1e200"], "overflowed"),
    (["--reproduce", "example-6.2", "--delta", "1e200"], "overflowed"),
    (1e60, "overflowed"),
    (float("nan"), "omega must be positive and finite"),
    (float("inf"), "omega must be positive and finite")],
    ids=["gamma1", "delta1", "delta", "document-omega-1e60", "document-omega-nan",
         "document-omega-inf"])
def test_out_of_range_parameter_exits_2(tmp_path, capsys, flags, want):
    # the large values overflow float arithmetic: gamma ** l, the report's F, w ** 6
    if not isinstance(flags, list):  # the omega of a problem document's builtin
        doc = _scalar_problem_doc()
        doc["nonlinearity"]["params"]["omega"] = flags
        ppath = tmp_path / "problem.json"
        ppath.write_text(json.dumps(doc))
        flags = ["--problem", str(ppath)]
    out = tmp_path / "rep.json"
    assert main(["interval", *flags, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert want in err
    assert not out.exists()


@pytest.mark.parametrize("make_doc, field, bad, want", [
    (_scalar_problem_doc, "p", "3", "p must be a number"),
    (_scalar_problem_doc, "gamma", "1.7", "gamma must be a number"),
    (_scalar_problem_doc, "h", {"const": "4"}, "'const' must be a number"),
    (_scalar_problem_doc, "h", True, "a potential must be a number"),
    (_scalar_problem_doc, "mu0", "1", "mu0 must be a number"),
    (_scalar_problem_doc, "graph", {"builtin": "lattice_ball", "params": {"radius": "1"}},
     "'radius' must be a number"),
    (_coupled_problem_doc, "q", "3", "q must be a number"),
    (_coupled_problem_doc, "delta2", False, "delta2 must be a number"),
    (_coupled_problem_doc, "h2", {"values": {"v00": "9"}}, "a vertex value must be"),
    (_coupled_problem_doc, "nonlinearity", {"builtin": "example_6_1",
                                            "params": {"omega1": "3", "omega2": 2.0}},
     "'omega1' must be a number"),
    # a NaN table value passed the table checks and failed later as an overflow
    (_scalar_problem_doc, "nonlinearity",
     {"table": {"s": [0.0, 1.0], "t": [0.0, 1.0], "values": [[0.0, 0.0], [float("nan"), 1.0]]}},
     "table 'table' has a node or value that is not finite"),
    # a bool x0 and an int support read as the vertex ids "True" and "5"
    (_scalar_problem_doc, "x0", True, "x0 must be a string, got True"),
    (_scalar_problem_doc, "nonlinearity", {"builtin": "example_6_2",
                                           "params": {"omega": 2.0, "support": 5}},
     "nonlinearity parameter 'support' must be a string, got 5")],
    ids=["p", "gamma", "const", "bool-potential", "mu0", "radius", "q", "delta2",
         "values", "omega1", "nan-table-value", "bool-x0", "int-support"])
def test_problem_document_non_number_exits_2(tmp_path, capsys, make_doc, field, bad, want):
    doc = make_doc()
    ppath, out = tmp_path / "problem.json", tmp_path / "rep.json"
    ppath.write_text(json.dumps({**doc, field: bad}))
    assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and want in err, err
    assert not out.exists()


@pytest.mark.parametrize("radius", [1.7, 0.0])
def test_problem_document_lattice_radius_must_be_an_integer(tmp_path, capsys, radius):
    # a radius of 1.7 built the radius-1 ball
    doc = {**_scalar_problem_doc(),
           "graph": {"builtin": "lattice_ball", "params": {"radius": radius}}}
    ppath, out = tmp_path / "problem.json", tmp_path / "rep.json"
    ppath.write_text(json.dumps(doc))
    assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 2
    assert "lattice_ball radius must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("potential", [4.0, {"const": 4.0}, "values"])
def test_problem_document_potential_forms_agree(tmp_path, potential):
    doc = _scalar_problem_doc()
    if potential == "values":
        potential = {"values": {v: 4.0 for v in gv.lattice_ball(1).vertices}}
    ppath, out = tmp_path / "problem.json", tmp_path / "rep.json"
    ppath.write_text(json.dumps({**doc, "h": potential}))
    assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 0
    ppath.write_text(json.dumps(doc))
    assert main(["interval", "--problem", str(ppath), "-o", str(tmp_path / "ref.json")]) == 0
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("make_doc", [_coupled_problem_doc, _scalar_problem_doc])
def test_malformed_problem_fields_exit_with_a_code(tmp_path, make_doc):
    # every top-level field replaced by a value of the wrong type or range
    # ends in a report or a validation error, never in an uncaught exception
    good = make_doc()
    ppath, out = tmp_path / "problem.json", tmp_path / "rep.json"
    ppath.write_text(json.dumps(good))
    assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 0
    for field in good:
        for bad in (None, "x", [], {}, -1, True):
            ppath.write_text(json.dumps({**good, field: bad}))
            code = main(["interval", "--problem", str(ppath), "-o", str(out)])
            assert code in (0, 2, 3), (field, bad)


@pytest.mark.parametrize("make_doc, field", [(_coupled_problem_doc, "m1"),
                                              (_scalar_problem_doc, "m")])
def test_problem_document_order_is_not_truncated(tmp_path, capsys, make_doc, field):
    ppath, out = tmp_path / "problem.json", tmp_path / "rep.json"
    good = make_doc()
    ppath.write_text(json.dumps({**good, field: float(good[field])}))
    assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 0
    for bad in (good[field] + 0.7, str(good[field])):
        ppath.write_text(json.dumps({**good, field: bad}))
        assert main(["interval", "--problem", str(ppath), "-o", str(out)]) == 2
        assert "order m must be an integer" in capsys.readouterr().err


def test_readme_command_examples_parse():
    # every `graphvar ...` line of README's "Command line" block, with its
    # backslash continuations joined, is accepted by the parser (not run)
    block = README.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    text = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("graphvar ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
