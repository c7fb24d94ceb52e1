import json

import numpy as np
import pytest

import graphvar as gv
from graphvar.errors import (
    BadParam,
    DanglingEdge,
    DomainMismatch,
    DuplicateEdge,
    NonPositiveMeasure,
    NonPositiveWeight,
    SelfLoop,
    UnknownVertex,
)
from graphvar.graph import function_from_doc

from conftest import oracle_integrate, random_graph, random_vf


def test_p2_smallest_connected_case(p2):
    assert p2.n_vertices == 2
    assert p2.degree("a") == 2.0
    assert p2.degree("b") == 2.0


def test_negative_weight_rejected():
    with pytest.raises(NonPositiveWeight):
        gv.build_graph({
            "vertices": [{"id": "a", "mu": 1}, {"id": "b", "mu": 1}],
            "edges": [{"a": "a", "b": "b", "w": -1.0}],
        })


def test_zero_weight_rejected_and_names_edge():
    with pytest.raises(NonPositiveWeight, match="'a'.*'b'"):
        gv.build_graph({
            "vertices": [{"id": "a", "mu": 1}, {"id": "b", "mu": 1}],
            "edges": [{"a": "a", "b": "b", "w": 0.0}],
        })


def test_nonpositive_measure_rejected():
    with pytest.raises(NonPositiveMeasure):
        gv.WeightedGraph(["a"], {"a": 0.0}, [])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        gv.WeightedGraph(["a"], {"a": 1.0}, [("a", "a", 1.0)])


def test_duplicate_edge_rejected_even_reversed():
    with pytest.raises(DuplicateEdge):
        gv.WeightedGraph(["a", "b"], {"a": 1.0, "b": 1.0},
                         [("a", "b", 1.0), ("b", "a", 2.0)])


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge):
        gv.WeightedGraph(["a"], {"a": 1.0}, [("a", "b", 1.0)])


def test_unknown_vertex_degree(p2):
    with pytest.raises(UnknownVertex):
        p2.degree("zz")


def test_grid3x3_shape():
    g = gv.grid3x3()
    assert g.n_vertices == 9
    assert g.n_edges == 12  # 3x3 grid: 2 * 3 * 2 edges
    assert g.total_measure() == 9.0


def test_isolated_vertex_allowed_degree_zero():
    g = gv.WeightedGraph(["a", "b", "c"], {"a": 1, "b": 1, "c": 1}, [("a", "b", 1.0)])
    assert g.degree("c") == 0.0


def test_integrate_examples(p2):
    grid = gv.grid3x3()
    assert gv.integrate(grid, gv.VertexFunction.constant(grid, 1.0)) == 9.0
    assert gv.integrate(grid, gv.VertexFunction.zeros(grid)) == 0.0
    u = gv.VertexFunction.from_dict(p2, {"a": 0.0, "b": 1.0})
    assert gv.integrate(p2, u) == 1.0


def test_integrate_domain_mismatch(p2, grid):
    with pytest.raises(DomainMismatch):
        gv.integrate(p2, gv.VertexFunction.zeros(grid))


def test_integrate_linearity_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = random_graph(rng)
        u, v = random_vf(rng, g), random_vf(rng, g)
        a, b = rng.uniform(-2, 2, 2)
        lin = gv.VertexFunction(g, a * u.values + b * v.values)
        lhs = gv.integrate(g, lin)
        rhs = a * gv.integrate(g, u) + b * gv.integrate(g, v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert abs(gv.integrate(g, u) - oracle_integrate(g, u.as_dict())) < 1e-12


def test_lattice_ball_radius_one():
    g = gv.lattice_ball(1)
    assert g.n_vertices == 9
    center = gv.lattice_ball_center(1)
    assert g.degree(center) == 8.0  # 4 incident edges of weight 2
    assert len(g.neighbors(center)) == 4


def test_lattice_ball_radius_six():
    g = gv.lattice_ball(6)
    assert g.n_vertices == 169
    assert g.n_edges == 312
    assert g.degree(gv.lattice_ball_center(6)) == 8.0


def test_lattice_ball_bad_radius():
    with pytest.raises(BadParam):
        gv.lattice_ball(0)
    with pytest.raises(BadParam):
        gv.generate_builtin("lattice_ball", radius=0)
    # 1.7 was truncated to the radius-1 ball
    for radius in (1.7, 0.5, np.nan, np.inf, True, "2"):
        with pytest.raises(BadParam, match="must be an integer >= 1"):
            gv.lattice_ball(radius)
        with pytest.raises(BadParam, match="must be an integer >= 1"):
            gv.generate_builtin("lattice_ball", radius=radius)
        with pytest.raises(BadParam, match="must be an integer >= 1"):
            gv.lattice_ball_center(radius)
    # integral values are taken, as the Sobolev orders are
    for radius in (2.0, np.int64(2), np.float64(2.0)):
        assert gv.lattice_ball(radius) == gv.lattice_ball(2)
        assert gv.lattice_ball_center(radius) == gv.lattice_ball_center(2)


@pytest.mark.parametrize("field, bad", [("id", True), ("id", 1.0), ("a", 1), ("b", None)])
def test_build_graph_takes_only_string_ids(field, bad):
    # {"id": true} was read as vertex "True" and {"id": 1.0} as "1.0"
    doc = {"vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
           "edges": [{"a": "a", "b": "b", "w": 2.0}]}
    (doc["vertices"] if field == "id" else doc["edges"])[0][field] = bad
    with pytest.raises(BadParam, match=f"^{field} of an? (vertex|edge) must be a string"):
        gv.build_graph(doc)


def test_generate_builtin_dispatch():
    assert gv.generate_builtin("grid3x3").n_vertices == 9
    assert gv.generate_builtin("lattice_ball", radius=2).n_vertices == 25
    with pytest.raises(BadParam):
        gv.generate_builtin("nope")
    with pytest.raises(BadParam):
        gv.generate_builtin("grid3x3", radius=1)


def test_serialize_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng)
        assert gv.build_graph(gv.serialize(g)) == g


def test_file_round_trip(tmp_path):
    g = gv.grid3x3()
    path = tmp_path / "g.json"
    gv.save_graph(g, str(path))
    assert gv.load_graph(str(path)) == g
    doc = json.loads(path.read_text())
    assert {"vertices", "edges"} <= set(doc)


def test_vertex_function_validation(p2):
    with pytest.raises(DomainMismatch):
        gv.VertexFunction.from_dict(p2, {"a": 1.0})
    with pytest.raises(BadParam):
        gv.VertexFunction(p2, np.array([np.nan, 0.0]))
    u = gv.VertexFunction.from_dict(p2, {"a": 1.0, "b": 2.0})
    assert u.value("b") == 2.0
    assert u.as_dict() == {"a": 1.0, "b": 2.0}


@pytest.mark.parametrize("bad", ["0.5", True, None, [1.0]])
def test_vertex_function_document_takes_only_numbers(p2, bad):
    assert function_from_doc(p2, {"values": {"a": 0.5, "b": 1}}).as_dict() == {
        "a": 0.5, "b": 1.0}
    with pytest.raises(BadParam, match="a vertex value must be a number"):
        function_from_doc(p2, {"values": {"a": 0.5, "b": bad}})


def test_equal_graphs_hash_equal():
    assert len({gv.grid3x3(), gv.grid3x3()}) == 1
    rng = np.random.default_rng(12)
    g = random_graph(rng)
    assert hash(gv.build_graph(gv.serialize(g))) == hash(g)


def test_vertex_function_leaves_the_callers_array_alone(p2):
    arr = np.array([1.0, 2.0])
    u = gv.VertexFunction(p2, arr)
    assert arr.flags.writeable
    arr[0] = 5.0
    assert u.values[0] == 1.0
    assert not u.values.flags.writeable


def test_vertex_order_is_lexicographic():
    g = gv.WeightedGraph(["z", "a", "m"], {"z": 1, "a": 1, "m": 1}, [])
    assert g.vertices == ("a", "m", "z")
