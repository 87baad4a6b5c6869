"""KNN spatial scene graph with multiplicative weight modulation.

Nodes are scene objects; each node gets a directed edge to its k nearest
neighbors by centroid distance (ties broken by lower object id).  Edges
carry a coarse spatial relation.  Generating a plan step that mentions an
object multiplies the weight of that node, its neighbors, and the
connecting edges by a configurable factor, which in turn reorders the
weight-ranked prompt serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .scene import ObjectInstance, SceneModel, ring_cells

DEFAULT_K = 2
DEFAULT_MODULATION_WEIGHT = 2.0
NEAR_DISTANCE = 0.15  # meters; closer than this overrides axis-based kinds

@dataclass(frozen=True)
class SpatialRelation:
    """Relation kind plus exact Euclidean centroid distance in meters."""

    kind: str
    distance: float


@dataclass
class GraphNode:
    object: ObjectInstance
    weight: float = 1.0


@dataclass
class GraphEdge:
    relation: SpatialRelation
    weight: float = 1.0


@dataclass
class SceneGraph:
    """``edges[src][dst]`` is the edge src->dst; each inner dict is in ascending dst order."""

    nodes: dict[int, GraphNode]
    edges: dict[int, dict[int, GraphEdge]]
    k: int

    @cached_property
    def prompt_text(self) -> tuple[dict[int, str], dict[int, str]]:
        """Per node, its node-line prefix and its out-edge lines, built on first use.

        The prefix is "<cat>#<id> (w=".  Each edge line is
        "\\n<cat>#<i> <kind> <cat>#<j>"; a node's lines are one string in
        ascending neighbor id order.  Neither depends on the weights, the only
        part of a graph that changes after :func:`build_graph`.  Kept in the
        instance ``__dict__``, outside the dataclass fields, so equality still
        sees only the graph.
        """
        labels = {node_id: f"{node.object.category}#{node_id}" for node_id, node in self.nodes.items()}
        prefixes = {node_id: label + " (w=" for node_id, label in labels.items()}
        edge_lines = {
            node_id: "".join(
                f"\n{label} {edge.relation.kind} {labels[dst]}"
                for dst, edge in self.edges[node_id].items()
            )
            for node_id, label in labels.items()
        }
        return prefixes, edge_lines


@dataclass(frozen=True)
class ModulationRecord:
    """Audit record of one modulation call: which elements were scaled."""

    step_index: int
    mentioned_ids: tuple[int, ...]
    touched_nodes: frozenset[int]
    touched_edges: frozenset[tuple[int, int]]


def classify_relation(a: ObjectInstance, b: ObjectInstance) -> SpatialRelation:
    """Where ``b`` sits relative to ``a``, by dominant centroid-difference axis.

    Scene coordinates: +x right, +y front, +z up.  Anything closer than
    ``NEAR_DISTANCE`` is "near" regardless of direction; identical centroids
    are "near" at distance 0.
    """
    dx = b.centroid[0] - a.centroid[0]
    dy = b.centroid[1] - a.centroid[1]
    dz = b.centroid[2] - a.centroid[2]
    distance = math.sqrt(dx * dx + dy * dy + dz * dz)
    if distance < NEAR_DISTANCE:
        return SpatialRelation("near", distance)
    ax, ay, az = abs(dx), abs(dy), abs(dz)
    if ax >= ay and ax >= az:
        kind = "right-of" if dx > 0 else "left-of"
    elif ay >= az:
        kind = "in-front-of" if dy > 0 else "behind"
    else:
        kind = "above" if dz > 0 else "below"
    return SpatialRelation(kind, distance)


def knn_ids(scene: SceneModel, k: int) -> dict[int, list[int]]:
    """The k nearest neighbor ids of every object (3-D distance, then lower id).

    Objects go into a uniform grid of square buckets over their centroids'
    x/y, sized for about two objects per bucket (Cleary 1979); one bucket
    holds them all when the x/y extent is zero or overflows.  Each object
    scans rings of buckets of growing Chebyshev radius ``d`` around its own.
    Every centroid in ring ``d`` is at least ``(d - 1)`` bucket sizes away
    in x or y, so the scan stops once that exceeds the k-th best distance:
    no later object can be closer or tie.
    """
    objects = scene.objects
    if not objects:
        return {}
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
    buckets: dict[tuple[int, int], list[ObjectInstance]] = {}
    for obj, cell in zip(objects, cells):
        buckets.setdefault(cell, []).append(obj)
    # Bucket indices come from rounded float division, so a centroid may sit
    # a few ulps of the extent past its bucket's edge; shrinking the ring
    # bound by more than that keeps it a true lower bound on math.dist.
    ring_bound = size * (1 - (cols + rows + 4) * 2.0**-50)
    result: dict[int, list[int]] = {}
    for obj, (row0, col0) in zip(objects, cells):
        best: list[tuple[float, int]] = []
        for d in range(max(row0, rows - 1 - row0, col0, cols - 1 - col0) + 1):
            if len(best) == k and (d - 1) * ring_bound > best[-1][0]:
                break
            for cell in ring_cells(rows, cols, row0, col0, d):
                for other in buckets.get(cell, ()):
                    if other.id != obj.id:
                        best.append((math.dist(obj.centroid, other.centroid), other.id))
            best.sort()
            del best[k:]
        result[obj.id] = [other_id for _, other_id in best]
    return result


def build_graph(scene: SceneModel, k: int = DEFAULT_K) -> SceneGraph:
    """Build the directed KNN scene graph; all weights start at 1.0.

    Every node has out-degree min(k, n-1).  The edge i->j carries the
    relation of j relative to i.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not scene.objects:
        raise ValueError("scene has no objects")
    by_id = scene.objects_by_id
    nodes = {obj.id: GraphNode(object=obj) for obj in scene.objects}
    edges = {
        src: {dst: GraphEdge(classify_relation(by_id[src], by_id[dst])) for dst in sorted(dsts)}
        for src, dsts in knn_ids(scene, k).items()
    }
    return SceneGraph(nodes=nodes, edges=edges, k=k)


def modulate(
    graph: SceneGraph,
    mentioned_ids: list[int],
    w_l: float = DEFAULT_MODULATION_WEIGHT,
    step_index: int = 0,
) -> ModulationRecord:
    """Scale mentioned nodes, their KNN neighbors, and the connecting edges by ``w_l``.

    The touched sets are unions over all mentions, and every touched element
    is multiplied exactly once per call, however many mentions share it.
    Raises ``ValueError`` naming the step, and scales nothing, when a scaled
    weight would overflow to infinity or underflow to zero.
    """
    if not (math.isfinite(w_l) and w_l > 0):
        raise ValueError(f"w_l must be positive and finite, got {w_l}")
    unknown = [i for i in mentioned_ids if i not in graph.nodes]
    if unknown:
        raise KeyError(f"unknown object id(s) {unknown}")
    touched_nodes = set(mentioned_ids)
    touched_edges = {(src, dst) for src in touched_nodes for dst in graph.edges[src]}
    touched_nodes.update(dst for _, dst in touched_edges)
    weights = [graph.nodes[node_id].weight for node_id in touched_nodes]
    weights += [graph.edges[src][dst].weight for src, dst in touched_edges]
    if not all(0 < weight * w_l < math.inf for weight in weights):
        raise ValueError(
            f"step {step_index}: scaling by w_l={w_l} takes a weight out of the "
            "positive finite range"
        )
    for node_id in touched_nodes:
        graph.nodes[node_id].weight *= w_l
    for src, dst in touched_edges:
        graph.edges[src][dst].weight *= w_l
    return ModulationRecord(
        step_index=step_index,
        mentioned_ids=tuple(mentioned_ids),
        touched_nodes=frozenset(touched_nodes),
        touched_edges=frozenset(touched_edges),
    )


def serialize_for_prompt(graph: SceneGraph) -> str:
    """Weight-ranked text rendering of every node and edge of the graph.

    Nodes are ordered by descending weight, ties by ascending id, each as
    "<category>#<id> (w=<weight>)".  Edge lines follow in the same node
    order, each node's out-edges by ascending neighbor id, as "<cat>#<i>
    <kind> <cat>#<j>".  Pure function of the weights: identical inputs
    give byte-identical output.  The node-line prefixes and the edge lines
    come from :attr:`SceneGraph.prompt_text`; per call, each distinct weight
    is formatted once.  Both rely on the weights being positive and finite,
    as :func:`modulate` keeps them: no NaN upsets the sort, and no -0.0
    shares a format with 0.0.
    """
    prefixes, edge_lines = graph.prompt_text
    weights = {node_id: node.weight for node_id, node in graph.nodes.items()}
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
            {"id": node_id, "category": node.object.category, "weight": node.weight}
            for node_id, node in sorted(graph.nodes.items())
        ],
        "edges": [
            {
                "src": src,
                "dst": dst,
                "kind": edge.relation.kind,
                "weight": edge.weight,
                "distance": edge.relation.distance,
            }
            for src, out in sorted(graph.edges.items())
            for dst, edge in out.items()
        ],
    }
