"""KNN scene graph: construction, spatial relations, modulation, serialization."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan.graph import (
    DEFAULT_K,
    DEFAULT_MODULATION_WEIGHT,
    NEAR_DISTANCE,
    build_graph,
    classify_relation,
    graph_to_dict,
    knn_ids,
    modulate,
    serialize_for_prompt,
)
from sceneplan.scene import Aabb, ObjectInstance, SceneModel
from tests.conftest import make_random_scene
from tests.oracles import oracle_knn, oracle_modulated_sets, oracle_serialize_for_prompt


def _at(oid: int, x: float, y: float, z: float, category: str = "box") -> ObjectInstance:
    return ObjectInstance(
        oid, category, (x, y, z), Aabb((x - 0.1, y - 0.1, z - 0.1), (x + 0.1, y + 0.1, z + 0.1))
    )


@st.composite
def _knn_layouts(draw) -> SceneModel:
    """1-40 objects laid out to stress the KNN bucket grid.

    Each scene draws x and y from a pool of at most four values, and z from
    three, so duplicate centroids, equal-distance ties and sparse far-apart
    clusters abound.  Layouts cover points that differ only in z (one bucket holds
    them all), colinear points, and spans of +-1e308 whose x/y extent
    overflows to inf.
    """
    ids = draw(st.lists(st.integers(0, 200), min_size=1, max_size=40, unique=True))
    layout = draw(st.sampled_from(["plane", "z-only", "colinear", "diagonal", "huge"]))
    scale = draw(st.sampled_from([1.0, 0.25, 3e-7, 1e-300, 1e300]))
    if layout == "huge":
        values = [-1e308, -1.0, 0.0, 2.5, 1e308]
    else:
        spread = st.sampled_from([-2, 0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
        values = [v * scale for v in draw(st.lists(spread, min_size=1, max_size=4))]
    coord = st.sampled_from(values)
    objects = []
    for i in ids:
        x, y, z = draw(coord), draw(coord), draw(st.sampled_from([0.0, scale, values[-1]]))
        if layout == "z-only":
            x = y = scale
        elif layout == "colinear":
            y = scale
        elif layout == "diagonal":
            y = x
        objects.append(_at(i, x, y, z))
    return SceneModel(layout, tuple(objects), category_vocab_size=1)


class TestRelations:
    ANCHOR = _at(0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "other, kind",
        [
            (_at(1, 2.0, 0.5, 0.5), "right-of"),
            (_at(1, -2.0, 0.5, 0.5), "left-of"),
            (_at(1, 0.5, 2.0, 0.5), "in-front-of"),
            (_at(1, 0.5, -2.0, 0.5), "behind"),
            (_at(1, 0.5, 0.5, 2.0), "above"),
            (_at(1, 0.5, 0.5, -2.0), "below"),
        ],
    )
    def test_dominant_axis_selects_kind(self, other, kind):
        assert classify_relation(self.ANCHOR, other).kind == kind

    def test_near_overrides_axis(self):
        other = _at(1, NEAR_DISTANCE * 0.5, 0.0, 0.0)
        relation = classify_relation(self.ANCHOR, other)
        assert relation.kind == "near"
        assert relation.distance == pytest.approx(NEAR_DISTANCE * 0.5)

    def test_identical_centroids_are_near(self):
        assert classify_relation(self.ANCHOR, _at(1, 0.0, 0.0, 0.0)).kind == "near"

    def test_opposite_kinds_are_symmetric(self):
        a, b = self.ANCHOR, _at(1, 3.0, 0.0, 0.0)
        assert classify_relation(a, b).kind == "right-of"
        assert classify_relation(b, a).kind == "left-of"


class TestKnnConstruction:
    def test_knn_matches_brute_force_oracle(self):
        for seed in range(10):
            scene = make_random_scene(seed)
            centroids = {o.id: o.centroid for o in scene.objects}
            for k in (1, 2, 3, 5):
                assert knn_ids(scene, k) == oracle_knn(centroids, k)

    def test_distance_ties_break_toward_lower_id(self):
        scene_objs = (
            _at(0, 0.0, 0.0, 0.0),
            _at(2, 1.0, 0.0, 0.0),
            _at(1, -1.0, 0.0, 0.0),
            _at(3, 5.0, 0.0, 0.0),
        )
        from sceneplan.scene import SceneModel

        scene = SceneModel("ties", scene_objs, category_vocab_size=1)
        assert knn_ids(scene, 1)[0] == [1]
        assert knn_ids(scene, 2)[0] == [1, 2]

    def test_out_degree_is_min_k_nminus1(self):
        scene = make_random_scene(3, n_objects=4)
        graph = build_graph(scene, k=7)
        for node_id in graph.nodes:
            assert len(graph.edges[node_id]) == 3

    def test_default_k_is_two(self):
        scene = make_random_scene(4, n_objects=6)
        assert build_graph(scene).k == DEFAULT_K == 2

    def test_initial_weights_are_one(self):
        graph = build_graph(make_random_scene(5, n_objects=8))
        assert all(n.weight == 1.0 for n in graph.nodes.values())
        assert all(e.weight == 1.0 for out in graph.edges.values() for e in out.values())

    def test_rejects_bad_inputs(self):
        scene = make_random_scene(6, n_objects=3)
        with pytest.raises(ValueError, match="k must be positive"):
            build_graph(scene, k=0)
        from sceneplan.scene import SceneModel

        with pytest.raises(ValueError, match="no objects"):
            build_graph(SceneModel("empty", (), category_vocab_size=0))

    def test_edge_relation_is_dst_relative_to_src(self):
        from sceneplan.scene import SceneModel

        scene = SceneModel(
            "pair", (_at(0, 0.0, 0.0, 0.0), _at(1, 2.0, 0.0, 0.0)), category_vocab_size=1
        )
        graph = build_graph(scene, k=1)
        assert graph.edges[0][1].relation.kind == "right-of"
        assert graph.edges[1][0].relation.kind == "left-of"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(scene=_knn_layouts(), k=st.integers(1, 5))
    def test_bucket_grid_matches_oracle_on_hard_layouts(self, scene, k):
        assert knn_ids(scene, k) == oracle_knn({o.id: o.centroid for o in scene.objects}, k)

    @pytest.mark.parametrize("k", [2, 4])
    def test_bucket_grid_matches_oracle_on_1000_objects(self, k):
        scene = make_random_scene(11, n_objects=1000)
        assert knn_ids(scene, k) == oracle_knn({o.id: o.centroid for o in scene.objects}, k)


class TestModulation:
    def test_touched_sets_match_oracle(self):
        scene = make_random_scene(7, n_objects=12)
        graph = build_graph(scene)
        neighbors = knn_ids(scene, graph.k)
        mentioned = [1, 4, 9]
        record = modulate(graph, mentioned)
        nodes, edges = oracle_modulated_sets(set(mentioned), neighbors)
        assert record.touched_nodes == nodes
        assert record.touched_edges == edges

    def test_shared_neighbor_scaled_once_per_call(self):
        # Three collinear objects: 0 and 2 both have 1 as nearest neighbor.
        from sceneplan.scene import SceneModel

        scene = SceneModel(
            "line",
            (_at(0, 0.0, 0.0, 0.0), _at(1, 1.0, 0.0, 0.0), _at(2, 2.0, 0.0, 0.0)),
            category_vocab_size=1,
        )
        graph = build_graph(scene, k=1)
        modulate(graph, [0, 2], w_l=2.0)
        assert graph.nodes[1].weight == 2.0

    def test_duplicate_mentions_scale_once(self):
        graph = build_graph(make_random_scene(8, n_objects=5))
        record = modulate(graph, [2, 2, 2], w_l=3.0)
        assert graph.nodes[2].weight == 3.0
        assert record.mentioned_ids == (2, 2, 2)

    def test_modulation_accumulates_across_calls(self):
        graph = build_graph(make_random_scene(9, n_objects=5))
        modulate(graph, [0], w_l=2.0)
        modulate(graph, [0], w_l=2.0)
        assert graph.nodes[0].weight == 4.0

    def test_untouched_elements_keep_weight_one(self):
        scene = make_random_scene(10, n_objects=10)
        graph = build_graph(scene)
        record = modulate(graph, [0])
        for node_id, node in graph.nodes.items():
            expected = DEFAULT_MODULATION_WEIGHT if node_id in record.touched_nodes else 1.0
            assert node.weight == expected
        for src, out in graph.edges.items():
            for dst, edge in out.items():
                expected = DEFAULT_MODULATION_WEIGHT if (src, dst) in record.touched_edges else 1.0
                assert edge.weight == expected

    def test_unit_weight_changes_nothing(self):
        graph = build_graph(make_random_scene(11, n_objects=6))
        before = {i: n.weight for i, n in graph.nodes.items()}
        record = modulate(graph, [0, 1], w_l=1.0)
        assert {i: n.weight for i, n in graph.nodes.items()} == before
        assert record.touched_nodes  # still reported as touched

    def test_empty_mention_list_touches_nothing(self):
        graph = build_graph(make_random_scene(12, n_objects=6))
        record = modulate(graph, [])
        assert record.touched_nodes == frozenset()
        assert record.touched_edges == frozenset()
        assert all(n.weight == 1.0 for n in graph.nodes.values())

    def test_unknown_id_raises(self):
        graph = build_graph(make_random_scene(14, n_objects=4))
        with pytest.raises(KeyError, match="999"):
            modulate(graph, [999])

    def test_nonpositive_weight_raises(self):
        graph = build_graph(make_random_scene(15, n_objects=4))
        for w_l in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="w_l must be positive"):
                modulate(graph, [0], w_l=w_l)

    def test_weight_leaving_positive_finite_range_raises_and_scales_nothing(self):
        for w_l in (1e300, 1e-300):
            graph = build_graph(make_random_scene(16, n_objects=4))
            modulate(graph, [0], w_l=w_l, step_index=1)
            before = graph_to_dict(graph)
            with pytest.raises(ValueError, match="step 2"):
                modulate(graph, [0], w_l=w_l, step_index=2)
            assert graph_to_dict(graph) == before


class TestSerialization:
    def test_prompt_ranking_weight_desc_then_id_asc(self, kitchen):
        graph = build_graph(kitchen)
        modulate(graph, [4])  # kettle
        text = serialize_for_prompt(graph)
        node_lines = [l for l in text.splitlines() if "(w=" in l]
        weights = []
        for line in node_lines:
            w = float(line.split("(w=")[1].rstrip(")"))
            node_id = int(line.split("#")[1].split(" ")[0])
            weights.append((-w, node_id))
        assert weights == sorted(weights)

    def test_one_line_per_node_and_per_edge(self, kitchen):
        graph = build_graph(kitchen)
        modulate(graph, [4])
        lines = serialize_for_prompt(graph).splitlines()
        assert len(lines) == len(graph.nodes) + sum(map(len, graph.edges.values()))
        assert len([l for l in lines if "(w=" in l]) == len(graph.nodes)

    def test_serialization_is_deterministic(self, kitchen):
        a = build_graph(kitchen)
        b = build_graph(kitchen)
        modulate(a, [2, 8])
        modulate(b, [2, 8])
        assert serialize_for_prompt(a) == serialize_for_prompt(b)
        assert graph_to_dict(a) == graph_to_dict(b)

    def test_graph_to_dict_sorted_and_complete(self, kitchen):
        graph = build_graph(kitchen)
        snapshot = graph_to_dict(graph)
        assert snapshot["k"] == graph.k
        ids = [n["id"] for n in snapshot["nodes"]]
        assert ids == sorted(ids)
        assert len(snapshot["edges"]) == sum(map(len, graph.edges.values()))
        keys = [(e["src"], e["dst"]) for e in snapshot["edges"]]
        assert keys == sorted(keys)


@st.composite
def _lattice_scenes(draw) -> SceneModel:
    """1-8 objects with scattered ids on a coarse lattice: shared centroids and ties abound."""
    ids = draw(st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True))
    coord = st.sampled_from([0.0, 0.5, 1.0])
    category = st.sampled_from(["box", "cup", "sink"])
    objects = tuple(_at(i, draw(coord), draw(coord), draw(coord), draw(category)) for i in ids)
    return SceneModel("lattice", objects, category_vocab_size=3)


class TestOracleAgreement:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4))
    def test_outputs_match_oracles_through_random_modulation(self, data, k):
        scene = data.draw(_lattice_scenes())
        by_id = {obj.id: obj for obj in scene.objects}
        ids = sorted(by_id)
        knn = oracle_knn({i: obj.centroid for i, obj in by_id.items()}, k)
        node_weights = dict.fromkeys(ids, 1.0)
        edge_weights = {(i, j): 1.0 for i in ids for j in knn[i]}
        graph = build_graph(scene, k=k)

        def check() -> None:
            assert serialize_for_prompt(graph) == oracle_serialize_for_prompt(
                scene.objects, k, node_weights
            )
            edges = []
            for i, j in sorted(edge_weights):
                relation = classify_relation(by_id[i], by_id[j])
                edges.append(
                    {
                        "src": i,
                        "dst": j,
                        "kind": relation.kind,
                        "weight": edge_weights[(i, j)],
                        "distance": relation.distance,
                    }
                )
            nodes = [
                {"id": i, "category": by_id[i].category, "weight": node_weights[i]} for i in ids
            ]
            assert graph_to_dict(graph) == {"k": k, "nodes": nodes, "edges": edges}

        check()
        mentions = st.lists(st.sampled_from(ids), max_size=3)
        scales = st.sampled_from([0.5, 2.0, 3.0])
        steps = data.draw(st.lists(st.tuples(mentions, scales), max_size=4))
        for step, (mentioned, w_l) in enumerate(steps):
            record = modulate(graph, mentioned, w_l=w_l, step_index=step)
            nodes, edges = oracle_modulated_sets(set(mentioned), knn)
            assert record.touched_nodes == nodes
            assert record.touched_edges == edges
            for i in nodes:
                node_weights[i] *= w_l
            for key in edges:
                edge_weights[key] *= w_l
            check()
