"""KNN spatial scene graph with multiplicative weight modulation.

Nodes are scene objects; each node gets a directed edge to its k nearest
neighbors by centroid distance (ties broken by lower object id).  Edges
carry a coarse spatial relation and never change after they are built.
Generating a plan step that mentions an object multiplies the weight of
that node, its neighbors, and the connecting edges by a configurable
factor, which in turn reorders the weight-ranked prompt serialization.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from itertools import repeat

from .scene import ObjectInstance, SceneModel, ring_cells

DEFAULT_K = 2
DEFAULT_MODULATION_WEIGHT = 2.0
NEAR_DISTANCE = 0.15  # meters; closer than this overrides axis-based kinds


class SceneGraph(namedtuple("SceneGraph", "categories weights edges edge_weights k")):
    """Per object id, its category, node weight, out-edges and out-edge weight.

    ``categories``, ``weights`` and ``edge_weights`` are dicts, and
    ``edges`` an :class:`OutEdges` mapping, all four keyed by object id in
    scene order.  ``edges[src][dst]`` is the ``(kind, distance)`` pair of
    :func:`classify_relation`, each inner dict in ascending dst order, and
    ``edge_weights[src]`` is the weight that every out-edge of ``src``
    carries: :func:`modulate` scales a node's out-edges together.  Only the
    two weight dicts change after :func:`build_graph`, in place.
    """

    @cached_property
    def prompt_text(self) -> tuple[dict[int, str], dict[int, str]]:
        """Per node, its node-line prefix and its out-edge lines, built on first use.

        The prefix is "<cat>#<id> (w=".  Each edge line is
        "\\n<cat>#<i> <kind> <cat>#<j>"; a node's lines are one string in
        ascending neighbor id order.  Neither depends on the weights, the only
        part of a graph that changes after :func:`build_graph`.  Kept in the
        instance ``__dict__``, outside the tuple fields, so equality still
        sees only the graph.
        """
        labels = {node_id: f"{category}#{node_id}" for node_id, category in self.categories.items()}
        prefixes = {node_id: label + " (w=" for node_id, label in labels.items()}
        edge_lines = {
            node_id: "".join(
                f"\n{labels[node_id]} {kind} {labels[dst]}" for dst, (kind, _) in out.items()
            )
            for node_id, out in self.edges.items()
        }
        return prefixes, edge_lines


def classify_relation(a: ObjectInstance, b: ObjectInstance) -> tuple[str, float]:
    """(kind, distance) of ``b`` relative to ``a``: the dominant centroid-difference axis.

    The distance, in meters, is ``sqrt(dx*dx + dy*dy + dz*dz)`` over the
    centroid differences.  Its squares overflow, so it is ``inf`` once a
    difference passes about 1.34e154, where ``math.dist``, which ranks the
    neighbours, stays finite.  Scene coordinates: +x right, +y front, +z
    up.  Anything closer than ``NEAR_DISTANCE`` is "near" regardless of
    direction; identical centroids are "near" at distance 0.
    """
    ca, cb = a.centroid, b.centroid
    dx = cb[0] - ca[0]
    dy = cb[1] - ca[1]
    dz = cb[2] - ca[2]
    distance = math.sqrt(dx * dx + dy * dy + dz * dz)
    if distance < NEAR_DISTANCE:
        return "near", distance
    ax, ay, az = abs(dx), abs(dy), abs(dz)
    if ax >= ay and ax >= az:
        kind = "right-of" if dx > 0 else "left-of"
    elif ay >= az:
        kind = "in-front-of" if dy > 0 else "behind"
    else:
        kind = "above" if dz > 0 else "below"
    return kind, distance


class _BucketGrid:
    """The objects of a scene in a uniform grid of square buckets over their centroids' x/y.

    Buckets are sized for about two objects each (Cleary 1979); one bucket
    holds them all when the x/y extent is zero or overflows.
    :meth:`nearest` ranks one object's neighbours by ``(math.dist, id)``
    against the objects of its bucket's 3 x 3 neighbourhood (rings 0 and 1
    around it, clipped to the grid), gathered by :meth:`near`.  Every
    centroid in ring ``d`` is at least ``(d - 1)`` bucket sizes away in x
    or y, so the neighbourhood's k best are final once the k-th lies
    strictly under ``ring_bound``, one bucket size less a rounding margin.
    Otherwise the object scans rings of growing ``d`` from 2 and stops by
    the same bound once it holds k.  Both tests are strict because the
    bound only says that no later object is closer: at equality one may tie
    the k-th best and win it with a lower id.
    """

    def __init__(self, objects: tuple[ObjectInstance, ...]) -> None:
        n = len(objects)
        xs = [obj.centroid[0] for obj in objects]
        ys = [obj.centroid[1] for obj in objects]
        x0, y0 = min(xs), min(ys)
        width, height = max(xs) - x0, max(ys) - y0
        # Square buckets of area width*height/(n/2), but no fewer than n/2 along
        # the longer side, so a colinear layout still spreads out.
        size = max(math.sqrt(width / n * 2) * math.sqrt(height), max(width, height) / n * 2)
        if 0 < size < math.inf:
            cols, rows = max(1, int(width / size)), max(1, int(height / size))
            cells = [
                (min(int((y - y0) / size), rows - 1), min(int((x - x0) / size), cols - 1))
                for x, y in zip(xs, ys)
            ]
        else:
            cols = rows = 1
            cells = [(0, 0)] * n
        self.rows, self.cols = rows, cols
        self.cell_of = {obj.id: cell for obj, cell in zip(objects, cells)}
        self.buckets: dict[tuple[int, int], list[ObjectInstance]] = {}
        for obj, cell in zip(objects, cells):
            self.buckets.setdefault(cell, []).append(obj)
        # Bucket indices come from rounded float division, so a centroid may sit
        # a few ulps of the extent past its bucket's edge; shrinking the ring
        # bound by more than that keeps it a true lower bound on math.dist.
        self.ring_bound = size * (1 - (cols + rows + 4) * 2.0**-50)

    def near(self, cell: tuple[int, int]) -> tuple[list[tuple[float, float, float]], list[int]]:
        """The centroids and the ids of the objects in the 3 x 3 neighbourhood of ``cell``."""
        row0, col0 = cell
        near_cols = range(max(col0 - 1, 0), min(col0 + 2, self.cols))
        near = [
            other
            for row in range(max(row0 - 1, 0), min(row0 + 2, self.rows))
            for col in near_cols
            for other in self.buckets.get((row, col), ())
        ]
        return [other.centroid for other in near], [other.id for other in near]

    def nearest(self, obj: ObjectInstance, k: int, near: tuple | None = None) -> list[int]:
        """The ids of the k other objects nearest ``obj``, nearest first, ties by lower id.

        ``near`` is :meth:`near` of ``obj``'s bucket, gathered here if not given.
        """
        rows, cols, ring_bound = self.rows, self.cols, self.ring_bound
        row0, col0 = cell = self.cell_of[obj.id]
        centroids, ids = near or self.near(cell)
        best = sorted(zip(map(math.dist, repeat(obj.centroid), centroids), ids))
        best.remove((0.0, obj.id))
        del best[k:]
        if len(best) < k or best[-1][0] >= ring_bound:
            last_ring = max(row0, rows - 1 - row0, col0, cols - 1 - col0)
            for d in range(2, last_ring + 1):
                if len(best) == k and (d - 1) * ring_bound > best[-1][0]:
                    break
                for ring_cell in ring_cells(rows, cols, row0, col0, d):
                    for other in self.buckets.get(ring_cell, ()):
                        best.append((math.dist(obj.centroid, other.centroid), other.id))
                best.sort()
                del best[k:]
        return [other_id for _, other_id in best]


def knn_ids(scene: SceneModel, k: int) -> dict[int, list[int]]:
    """The k nearest neighbor ids of every object (3-D distance, then lower id).

    Each object is ranked by :meth:`_BucketGrid.nearest`, the search that
    :class:`OutEdges` ranks with.
    """
    if not scene.objects:
        return {}
    grid = _BucketGrid(scene.objects)
    return {obj.id: grid.nearest(obj, k) for obj in scene.objects}


class OutEdges(Mapping):
    """The out-edges of every object, each source's ranked and classified when first read.

    Read-only.  The keys are the scene's object ids in scene order, and
    ``edges[src]`` is ``{dst: classify_relation(src, dst)}`` over the k
    nearest neighbours of ``src`` in ascending dst order.  Looking up one
    source ranks that object alone and keeps the result; ``in``, ``len``
    and iterating the keys rank nothing.  :meth:`items`, :meth:`values`
    and ``==`` read the whole graph, so they first fill every source not
    yet read, bucket by bucket, each bucket's neighbourhood gathered once.
    """

    def __init__(self, scene: SceneModel, k: int) -> None:
        self.scene, self.k = scene, k
        self._out: dict[int, dict[int, tuple[str, float]] | None] = dict.fromkeys(
            obj.id for obj in scene.objects
        )

    @cached_property
    def _grid(self) -> _BucketGrid:
        return _BucketGrid(self.scene.objects)

    def _edges_of(self, obj: ObjectInstance, near: tuple | None = None) -> dict:
        """Rank and classify the out-edges of ``obj``, and keep them."""
        by_id = self.scene.objects_by_id
        out = self._out[obj.id] = {
            dst: classify_relation(obj, by_id[dst])
            for dst in sorted(self._grid.nearest(obj, self.k, near))
        }
        return out

    def __getitem__(self, src: int) -> dict[int, tuple[str, float]]:
        out = self._out[src]
        if out is None:
            out = self._edges_of(self.scene.objects_by_id[src])
        return out

    def __contains__(self, src: object) -> bool:
        return src in self._out

    def __iter__(self):
        return iter(self._out)

    def __len__(self) -> int:
        return len(self._out)

    def _filled(self) -> dict[int, dict[int, tuple[str, float]]]:
        """Every source's out-edges, ranking those not yet read bucket by bucket."""
        out = self._out
        if None in out.values():
            grid = self._grid
            for cell, members in grid.buckets.items():
                todo = [obj for obj in members if out[obj.id] is None]
                if todo:
                    near = grid.near(cell)
                    for obj in todo:
                        self._edges_of(obj, near)
        return out

    def items(self):
        return self._filled().items()

    def values(self):
        return self._filled().values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._filled()!r})"


def build_graph(scene: SceneModel, k: int = DEFAULT_K) -> SceneGraph:
    """The directed KNN scene graph; all weights start at 1.0.

    Every node has out-degree min(k, n-1).  The edge i->j carries the
    relation of j relative to i.  The edges are ranked as they are read:
    see :class:`OutEdges`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not scene.objects:
        raise ValueError("scene has no objects")
    categories = {obj.id: obj.category for obj in scene.objects}
    return SceneGraph(
        categories, dict.fromkeys(categories, 1.0), OutEdges(scene, k),
        dict.fromkeys(categories, 1.0), k,
    )


def modulate(
    graph: SceneGraph,
    mentioned_ids: list[int],
    w_l: float = DEFAULT_MODULATION_WEIGHT,
    step_index: int = 0,
) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Scale mentioned nodes, their KNN neighbors, and the connecting edges by ``w_l``.

    Returns the touched node ids and the touched (src, dst) edges.  The
    touched sets are unions over all mentions, and every touched element is
    multiplied exactly once per call, however many mentions share it.
    Raises ``ValueError`` naming the step, and scales nothing, when a scaled
    weight would overflow to infinity or underflow to zero.
    """
    if not (math.isfinite(w_l) and w_l > 0):
        raise ValueError(f"w_l must be positive and finite, got {w_l}")
    unknown = [i for i in mentioned_ids if i not in graph.weights]
    if unknown:
        raise KeyError(f"unknown object id(s) {unknown}")
    sources = set(mentioned_ids)
    touched_edges = {(src, dst) for src in sources for dst in graph.edges[src]}
    touched_nodes = sources.union(dst for _, dst in touched_edges)
    weights = [graph.weights[node_id] for node_id in touched_nodes]
    weights += [graph.edge_weights[src] for src in sources]
    if not all(0 < weight * w_l < math.inf for weight in weights):
        raise ValueError(
            f"step {step_index}: scaling by w_l={w_l} takes a weight out of the "
            "positive finite range"
        )
    for node_id in touched_nodes:
        graph.weights[node_id] *= w_l
    for src in sources:
        graph.edge_weights[src] *= w_l
    return frozenset(touched_nodes), frozenset(touched_edges)


def serialize_for_prompt(graph: SceneGraph, weights: dict[int, float]) -> str:
    """Text rendering of every node and edge of the graph, ranked by ``weights``.

    ``weights`` holds a node weight per object id of the graph: its live
    ``graph.weights`` or a copy taken earlier.  Nodes are ordered by
    descending weight, ties by ascending id, each as "<category>#<id>
    (w=<weight>)".  Edge lines follow in the same node order, each node's
    out-edges by ascending neighbor id, as "<cat>#<i> <kind> <cat>#<j>".
    Pure function of the graph and the weights: identical inputs give
    byte-identical output.  The node-line prefixes and the edge lines come
    from :attr:`SceneGraph.prompt_text`; per call, each distinct weight is
    formatted once.  Both rely on the weights being positive and finite, as
    :func:`modulate` keeps them: no NaN upsets the sort, and no -0.0 shares
    a format with 0.0.
    """
    prefixes, edge_lines = graph.prompt_text
    # Ascending ids, then a stable sort by descending weight: ties stay in id order.
    ranked = sorted(sorted(weights), key=weights.__getitem__, reverse=True)
    suffixes = {weight: format(weight, "g") + ")" for weight in set(weights.values())}
    return "\n".join(
        [prefixes[node_id] + suffixes[weights[node_id]] for node_id in ranked]
    ) + "".join(map(edge_lines.__getitem__, ranked))


def graph_to_dict(graph: SceneGraph) -> dict:
    """JSON-ready snapshot used by the CLI graph dump."""
    return {
        "k": graph.k,
        "nodes": [
            {"id": node_id, "category": graph.categories[node_id], "weight": weight}
            for node_id, weight in sorted(graph.weights.items())
        ],
        "edges": [
            {"src": src, "dst": dst, "kind": kind, "weight": graph.edge_weights[src],
             "distance": distance}
            for src, out in sorted(graph.edges.items())
            for dst, (kind, distance) in out.items()
        ],
    }
