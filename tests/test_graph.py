"""KNN scene graph: construction, spatial relations, modulation, serialization."""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneplan import graph
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
from sceneplan.scene import ObjectInstance, SceneModel
from tests.conftest import make_random_scene
from tests.oracles import oracle_knn, oracle_modulated_sets, oracle_serialize_for_prompt


def _at(oid: int, x: float, y: float, z: float, category: str = "box") -> ObjectInstance:
    return ObjectInstance(
        oid, category, (x, y, z), ((x - 0.1, y - 0.1, z - 0.1), (x + 0.1, y + 0.1, z + 0.1))
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


@st.composite
def _clustered_layouts(draw) -> SceneModel:
    """200-1000 objects in dense furniture clusters with empty floor between them.

    Each cluster packs its objects within a few centimetres to half a metre
    of its centre, so their k nearest lie inside the bucket neighbourhood.
    A few lone objects stand in the gaps, with no one in their
    neighbourhood, so the ring scan beyond it runs too.
    """
    n = draw(st.integers(200, 1000))
    room = draw(st.sampled_from([8.0, 20.0, 60.0]))
    spread = draw(st.sampled_from([0.02, 0.1, 0.5]))
    clusters = draw(st.integers(2, 12))
    loners = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    centres = [(rng.uniform(0, room), rng.uniform(0, room)) for _ in range(clusters)]
    objects = []
    for oid in rng.sample(range(10 * n), n):
        if len(objects) < loners:
            x, y = rng.uniform(0, room), rng.uniform(0, room)
        else:
            cx, cy = rng.choice(centres)
            x, y = cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread)
        objects.append(_at(oid, x, y, rng.choice([0.0, 0.4, 0.9, 1.8])))
    return SceneModel("clustered", tuple(objects), category_vocab_size=1)


@st.composite
def _dyadic_layouts(draw) -> tuple[SceneModel, float]:
    """2-120 objects at multiples of 1/16 m, and the ``cx`` of a mirror ``x -> cx - x``.

    Every coordinate, every coordinate difference and every sum of squares
    of them is exact in binary, so each ``math.dist`` is correctly rounded
    from exact inputs, whatever the order of the axes.
    """
    ids = draw(st.lists(st.integers(0, 10**4), min_size=2, max_size=120, unique=True))
    lattice = st.integers(0, 160).map(lambda i: i / 16)
    objects = tuple(
        _at(i, draw(lattice), draw(lattice), draw(st.integers(0, 8)) / 4) for i in ids
    )
    return SceneModel("dyadic", objects, category_vocab_size=1), draw(lattice)


def _ring_scans(scene: SceneModel, k: int) -> tuple[dict[int, list[int]], list[tuple]]:
    """``knn_ids(scene, k)`` and the arguments of every ``ring_cells`` call it made."""
    with mock.patch.object(graph, "ring_cells", wraps=graph.ring_cells) as rings:
        neighbors = knn_ids(scene, k)
    return neighbors, [call.args for call in rings.call_args_list]


def _line_of_16(near_x: float) -> SceneModel:
    """16 objects on the x axis spanning 8 m: one bucket per metre, ``ring_bound`` just under 1.

    Object 10 sits at x = 2, on the left edge of bucket 2.  Object 11 sits at
    ``near_x`` in its 3 x 3 neighbourhood.  Object 1 sits in ring 2, at
    x = 1 - 2**-53, whose distance from object 10 rounds to exactly 1.0.
    """
    xs = {15: 0.0, 1: 1 - 2.0**-53, 10: 2.0, 11: near_x, 14: 8.0}
    xs.update((oid, 6.0 + oid / 8) for oid in (0, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13))
    objects = tuple(_at(i, x, 0.0, 0.0) for i, x in xs.items())
    return SceneModel("line", objects, category_vocab_size=1)


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
        assert classify_relation(self.ANCHOR, other)[0] == kind

    def test_near_overrides_axis(self):
        other = _at(1, NEAR_DISTANCE * 0.5, 0.0, 0.0)
        kind, distance = classify_relation(self.ANCHOR, other)
        assert kind == "near"
        assert distance == pytest.approx(NEAR_DISTANCE * 0.5)

    def test_identical_centroids_are_near(self):
        assert classify_relation(self.ANCHOR, _at(1, 0.0, 0.0, 0.0)) == ("near", 0.0)

    def test_opposite_kinds_are_symmetric(self):
        a, b = self.ANCHOR, _at(1, 3.0, 0.0, 0.0)
        assert classify_relation(a, b)[0] == "right-of"
        assert classify_relation(b, a)[0] == "left-of"


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
        for node_id in graph.weights:
            assert len(graph.edges[node_id]) == 3

    def test_default_k_is_two(self):
        scene = make_random_scene(4, n_objects=6)
        assert build_graph(scene).k == DEFAULT_K == 2

    def test_initial_weights_are_one(self):
        graph = build_graph(make_random_scene(5, n_objects=8))
        assert all(w == 1.0 for w in graph.weights.values())
        assert all(graph.edge_weights[src] == 1.0 for src, out in graph.edges.items() for _ in out)

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
        assert graph.edges[0][1][0] == "right-of"
        assert graph.edges[1][0][0] == "left-of"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(scene=_knn_layouts(), k=st.integers(1, 5))
    def test_bucket_grid_matches_oracle_on_hard_layouts(self, scene, k):
        assert knn_ids(scene, k) == oracle_knn({o.id: o.centroid for o in scene.objects}, k)

    @pytest.mark.parametrize("k", [2, 4])
    def test_bucket_grid_matches_oracle_on_1000_objects(self, k):
        scene = make_random_scene(11, n_objects=1000)
        assert knn_ids(scene, k) == oracle_knn({o.id: o.centroid for o in scene.objects}, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_close_pair_far_from_the_rest_finds_k_neighbors(self, k):
        # The pair's nearest neighbor sits in its own bucket and every other
        # object at least two rings out: the scan must go on until it has k.
        far = [_at(i, 5.0 + (i % 6), 5.0 + (i // 6) % 6, 0.0) for i in range(2, 32)]
        scene = SceneModel(
            "pair", (_at(0, 0.0, 0.0, 0.0), _at(1, 0.01, 0.0, 0.0), *far), category_vocab_size=1
        )
        assert knn_ids(scene, k) == oracle_knn({o.id: o.centroid for o in scene.objects}, k)

    def test_ring_two_tie_at_one_bucket_size_goes_to_the_lower_id(self):
        # Object 11 in the neighbourhood and object 1 in ring 2 are both at
        # distance 1.0 from object 10: the scan must go on to ring 2 and
        # take object 1.
        scene = _line_of_16(3.0)
        assert knn_ids(scene, 1)[10] == [1]
        assert knn_ids(scene, 1) == oracle_knn({o.id: o.centroid for o in scene.objects}, 1)

    def test_kth_best_exactly_at_ring_bound_scans_ring_two(self):
        # Object 11 lies at exactly ring_bound = 1 - (8 + 1 + 4) * 2**-50
        # from object 10.  The bound says only that ring 2 holds nothing
        # closer, so the scan must look there before it settles on object 11.
        ring_bound = 1 - 13 * 2.0**-50
        scene = _line_of_16(2.0 + ring_bound)
        by_id = scene.objects_by_id
        assert math.dist(by_id[10].centroid, by_id[11].centroid) == ring_bound
        neighbors, scans = _ring_scans(scene, 1)
        assert neighbors == oracle_knn({o.id: o.centroid for o in scene.objects}, 1)
        assert neighbors[10] == [11]
        assert (1, 8, 0, 2, 2) in scans

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(scene=_clustered_layouts(), k=st.sampled_from([1, 2, 4, 7]))
    def test_clustered_layouts_match_oracle_on_both_paths(self, scene, k):
        neighbors, scans = _ring_scans(scene, k)
        assert neighbors == oracle_knn({o.id: o.centroid for o in scene.objects}, k)
        # One ring-2 call per object whose neighbourhood did not settle it.
        fallbacks = sum(args[-1] == 2 for args in scans)
        assert 0 < fallbacks < len(scene.objects)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(layout=_dyadic_layouts(), k=st.integers(1, 5))
    def test_neighbors_survive_a_mirror_and_an_axis_swap(self, layout, k):
        # Both maps keep every distance and id, and move the buckets' edges.
        scene, mirror_x = layout
        expected = knn_ids(scene, k)
        mirrored = tuple(
            _at(o.id, mirror_x - o.centroid[0], o.centroid[1], o.centroid[2])
            for o in scene.objects
        )
        swapped = tuple(
            _at(o.id, o.centroid[1], o.centroid[0], o.centroid[2]) for o in scene.objects
        )
        for objects in (mirrored, swapped):
            assert knn_ids(SceneModel("mapped", objects, category_vocab_size=1), k) == expected
        # The mirror swaps left and right in every edge and keeps all else.
        swap = {"left-of": "right-of", "right-of": "left-of"}
        mirrored_edges = {
            src: {dst: (swap.get(kind, kind), distance) for dst, (kind, distance) in out.items()}
            for src, out in build_graph(scene, k=k).edges.items()
        }
        mirrored_scene = SceneModel("mirrored", mirrored, category_vocab_size=1)
        assert build_graph(mirrored_scene, k=k).edges == mirrored_edges


class TestLazyEdges:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**6), k=st.integers(1, 5))
    def test_lookups_in_any_order_give_the_oracle_graph(self, data, seed, k):
        scene = make_random_scene(seed)
        ids = [obj.id for obj in scene.objects]
        by_id = scene.objects_by_id
        knn = oracle_knn({obj.id: obj.centroid for obj in scene.objects}, k)
        expected = {
            src: {dst: classify_relation(by_id[src], by_id[dst]) for dst in sorted(knn[src])}
            for src in ids
        }
        looked_up = data.draw(st.lists(st.sampled_from(ids), unique=True))
        full_read = data.draw(st.sampled_from(["dict", "items", "values", "=="]))
        edges = build_graph(scene, k=k).edges
        ranked = mock.patch.object(
            graph._BucketGrid, "nearest", autospec=True, side_effect=graph._BucketGrid.nearest
        )
        with ranked as nearest:
            # Membership, size and the keys rank nothing.
            assert max(ids) + 1 not in edges
            assert (len(edges), list(edges), list(edges.keys())) == (len(ids), ids, ids)
            assert nearest.call_count == 0
            for count, src in enumerate(looked_up, start=1):
                assert edges[src] == expected[src]
                assert edges[src] is edges[src]
                assert nearest.call_count == count
            # Each way of reading the whole graph ranks every source not yet read, once.
            if full_read == "dict":
                assert dict(edges) == expected
            elif full_read == "items":
                assert list(edges.items()) == list(expected.items())
            elif full_read == "values":
                assert list(edges.values()) == list(expected.values())
            else:
                assert edges == expected
            assert nearest.call_count == len(ids)
        assert dict(edges) == expected
        assert list(edges) == ids
        assert len(edges) == len(ids)

    def test_unknown_source_raises_key_error(self):
        edges = build_graph(make_random_scene(4, n_objects=6)).edges
        with pytest.raises(KeyError):
            edges[99]
        assert edges.get(99) is None


class TestModulation:
    def test_touched_sets_match_oracle(self):
        scene = make_random_scene(7, n_objects=12)
        graph = build_graph(scene)
        neighbors = knn_ids(scene, graph.k)
        mentioned = [1, 4, 9]
        touched_nodes, touched_edges = modulate(graph, mentioned)
        nodes, edges = oracle_modulated_sets(set(mentioned), neighbors)
        assert touched_nodes == nodes
        assert touched_edges == edges

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
        assert graph.weights[1] == 2.0

    def test_duplicate_mentions_scale_once(self):
        graph = build_graph(make_random_scene(8, n_objects=5))
        touched = modulate(graph, [2, 2, 2], w_l=3.0)
        assert graph.weights[2] == 3.0
        assert touched == modulate(build_graph(make_random_scene(8, n_objects=5)), [2])

    def test_modulation_accumulates_across_calls(self):
        graph = build_graph(make_random_scene(9, n_objects=5))
        modulate(graph, [0], w_l=2.0)
        modulate(graph, [0], w_l=2.0)
        assert graph.weights[0] == 4.0

    def test_untouched_elements_keep_weight_one(self):
        scene = make_random_scene(10, n_objects=10)
        graph = build_graph(scene)
        touched_nodes, touched_edges = modulate(graph, [0])
        for node_id, weight in graph.weights.items():
            expected = DEFAULT_MODULATION_WEIGHT if node_id in touched_nodes else 1.0
            assert weight == expected
        for src, out in graph.edges.items():
            for dst in out:
                expected = DEFAULT_MODULATION_WEIGHT if (src, dst) in touched_edges else 1.0
                assert graph.edge_weights[src] == expected

    def test_unit_weight_changes_nothing(self):
        graph = build_graph(make_random_scene(11, n_objects=6))
        before = dict(graph.weights)
        touched_nodes, _ = modulate(graph, [0, 1], w_l=1.0)
        assert graph.weights == before
        assert touched_nodes  # still reported as touched

    def test_empty_mention_list_touches_nothing(self):
        graph = build_graph(make_random_scene(12, n_objects=6))
        assert modulate(graph, []) == (frozenset(), frozenset())
        assert all(w == 1.0 for w in graph.weights.values())

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
        text = serialize_for_prompt(graph, graph.weights)
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
        lines = serialize_for_prompt(graph, graph.weights).splitlines()
        assert len(lines) == len(graph.weights) + sum(map(len, graph.edges.values()))
        assert len([l for l in lines if "(w=" in l]) == len(graph.weights)

    def test_serialization_is_deterministic(self, kitchen):
        a = build_graph(kitchen)
        b = build_graph(kitchen)
        modulate(a, [2, 8])
        modulate(b, [2, 8])
        assert serialize_for_prompt(a, a.weights) == serialize_for_prompt(b, b.weights)
        assert graph_to_dict(a) == graph_to_dict(b)

    def test_ranks_by_the_weights_given_not_the_graphs(self, kitchen):
        modulated = build_graph(kitchen)
        modulate(modulated, [4])
        fresh = build_graph(kitchen)
        text = serialize_for_prompt(fresh, modulated.weights)
        assert text == serialize_for_prompt(modulated, modulated.weights)
        assert text != serialize_for_prompt(fresh, fresh.weights)
        assert set(fresh.weights.values()) == {1.0}

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
            assert serialize_for_prompt(graph, graph.weights) == oracle_serialize_for_prompt(
                scene.objects, k, node_weights
            )
            edges = []
            for i, j in sorted(edge_weights):
                kind, distance = classify_relation(by_id[i], by_id[j])
                edges.append(
                    {
                        "src": i,
                        "dst": j,
                        "kind": kind,
                        "weight": edge_weights[(i, j)],
                        "distance": distance,
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
            touched = modulate(graph, mentioned, w_l=w_l, step_index=step)
            nodes, edges = oracle_modulated_sets(set(mentioned), knn)
            assert touched == (nodes, edges)
            for i in nodes:
                node_weights[i] *= w_l
            for key in edges:
                edge_weights[key] *= w_l
            check()
