"""Route clause parsing, agent pose simulation, feasibility checks, and planning.

The route language covers the movement directives that connect plan steps:
"Walk straight ahead to the kitchen counter", "Turn 90 degrees left".
Headings are quantized to 90-degree multiples with 0 = +y and left =
counterclockwise, which makes verification exact.  Planning runs A* over
the scene's occupancy grid and renders the cell path back into clauses.

All operations here are pure functions of their inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Set as AbstractSet
from heapq import heappop, heappush

from .scene import ObjectInstance, OccupancyGrid, SceneModel, Vec3, ring_cells
from .textmatch import resolve_noun_phrase, words_of

MOVE_VERBS = ("walk", "move", "go", "head", "proceed")
TURN_VERB = "turn"
# Matching is token-based and takes the first hit, so keep longest first.
DEFAULT_ADVERBS = ("straight ahead", "forward", "back", "around")

HEADINGS = (0, 90, 180, 270)
# Heading 0 faces +y; left turns rotate counterclockwise.
HEADING_TO_DIR = {0: (0.0, 1.0), 90: (-1.0, 0.0), 180: (0.0, -1.0), 270: (1.0, 0.0)}

ADJACENCY_CLEARANCE = 0.2  # meters kept between the agent and an AABB face
STRAIGHT_AHEAD_CONE = 30.0  # degrees; half-angle for "straight ahead" claims

class RouteError(Exception):
    pass


class UnknownObjectError(RouteError):
    pass


class UnreachableTargetError(RouteError):
    pass


class MissingGridError(RouteError):
    pass


class AgentPose(namedtuple("AgentPose", "position heading")):
    """An (x, y) ``position`` in meters and a ``heading``, one of :data:`HEADINGS`."""

    __slots__ = ()

    def __new__(cls, position: tuple[float, float], heading: int = 0) -> AgentPose:
        if heading not in HEADINGS:
            raise ValueError(f"heading must be one of {HEADINGS}, got {heading}")
        return super().__new__(cls, position, heading)


class RouteClause(
    namedtuple(
        "RouteClause",
        "verb turn_degrees turn_direction target_category adverb",
        defaults=(None, None, None, None),
    )
):
    """A parsed movement primitive.

    Turn clauses carry degrees and direction and never a target; movement
    clauses carry a target noun phrase and/or an adverb.
    """

    __slots__ = ()


# One clause-sized piece of step text: (text, clause or None, starts with a movement verb).
Fragment = tuple[str, RouteClause | None, bool]

_SENTENCE_BREAKS = ".?!;,"


def split_fragments(text: str) -> list[str]:
    """Split step text on line breaks, sentence punctuation and "and" conjunctions."""
    for ch in _SENTENCE_BREAKS:
        text = text.replace(ch, "\n")
    pieces: list[str] = []
    for sentence in text.split("\n"):
        words = sentence.split()
        start = 0
        for i, word in enumerate(words):
            if word.lower() == "and":
                if start < i:
                    pieces.append(" ".join(words[start:i]))
                start = i + 1
        if start < len(words):
            pieces.append(" ".join(words[start:]))
    return pieces


_ARTICLES = {"the", "a", "an"}


def _match_fragment(tokens: list[str]) -> RouteClause | None:
    verb = tokens[0]
    if verb == TURN_VERB:
        if (
            len(tokens) == 4
            and tokens[1] in ("90", "180")
            and tokens[2] in ("degrees", "degree")
            and tokens[3] in ("left", "right")
        ):
            return RouteClause(
                verb=TURN_VERB,
                turn_degrees=int(tokens[1]),
                turn_direction=tokens[3],
            )
        return None
    rest = tokens[1:]
    adverb = None
    for candidate in DEFAULT_ADVERBS:
        cand_tokens = candidate.split()
        if rest[: len(cand_tokens)] == cand_tokens:
            adverb = candidate
            rest = rest[len(cand_tokens):]
            break
    target = None
    if rest:
        if rest[0] != "to":
            return None
        rest = rest[1:]
        if rest and rest[0] in _ARTICLES:
            rest = rest[1:]
        if not rest:
            return None
        target = " ".join(rest)
    if target is None and adverb is None:
        return None
    return RouteClause(verb=verb, target_category=target, adverb=adverb)


def _parse_piece(piece: str) -> Fragment | None:
    """One piece's fragment, or None for a piece with no words."""
    tokens = words_of(piece)
    if not tokens:
        return None
    if tokens[0] not in MOVE_VERBS and tokens[0] != TURN_VERB:
        return (piece, None, False)
    return (piece, _match_fragment(tokens), True)


def parse_fragments(
    step_text: str, memo: dict[str, Fragment | None] | None = None
) -> list[Fragment]:
    """Classify every fragment of a step: route clause, failed movement, or other.

    Fragments that do not begin with a movement verb (e.g. "pick up the
    water kettle") are not route material and parse to nothing; fragments
    that begin with one but do not fit the grammar are flagged so a
    downstream check can report them.

    With a ``memo`` (``SceneModel.fragment_memo``), each distinct piece is
    parsed once and kept there, keyed by its exact text.
    """
    fragments: list[Fragment] = []
    for piece in split_fragments(step_text):
        if memo is None:
            fragment = _parse_piece(piece)
        elif piece in memo:
            fragment = memo[piece]
        else:
            fragment = memo[piece] = _parse_piece(piece)
        if fragment is not None:
            fragments.append(fragment)
    return fragments


def parse_route(step_text: str) -> list[RouteClause]:
    """All route clauses in a step, in text order.  Total: never raises."""
    return [clause for _, clause, _ in parse_fragments(step_text) if clause]


def turn_heading(heading: int, degrees: int, direction: str) -> int:
    if degrees == 180:
        return (heading + 180) % 360
    delta = 90 if direction == "left" else -90
    return (heading + delta) % 360


def _footprint_rect(box: tuple[Vec3, Vec3]) -> tuple[float, float, float, float]:
    lo, hi = box
    return lo[0], lo[1], hi[0], hi[1]


def nearest_instance(
    scene: SceneModel, category: str, position: tuple[float, float]
) -> ObjectInstance:
    """Closest instance of a category by ground-plane centroid distance, ties by id."""
    return min(
        scene.instances_by_category.get(category, ()),
        key=lambda o: (math.dist(position, (o.centroid[0], o.centroid[1])), o.id),
    )


def _ray_rect_entry(
    pos: tuple[float, float],
    direction: tuple[float, float],
    rect: tuple[float, float, float, float],
) -> float | None:
    """Distance along an axis-aligned ray to the rect's near face, if ahead."""
    xmin, ymin, xmax, ymax = rect
    x, y = pos
    if direction[1] != 0:
        if not xmin <= x <= xmax:
            return None
        t = (ymin - y) / direction[1] if direction[1] > 0 else (ymax - y) / direction[1]
    else:
        if not ymin <= y <= ymax:
            return None
        t = (xmin - x) / direction[0] if direction[0] > 0 else (xmax - x) / direction[0]
    return t if t > 0 else None


def _nearest_clearance_point(
    pos: tuple[float, float], rect: tuple[float, float, float, float]
) -> tuple[float, float]:
    """Closest point at ADJACENCY_CLEARANCE outside the rect boundary."""
    xmin, ymin, xmax, ymax = rect
    exmin, eymin = xmin - ADJACENCY_CLEARANCE, ymin - ADJACENCY_CLEARANCE
    exmax, eymax = xmax + ADJACENCY_CLEARANCE, ymax + ADJACENCY_CLEARANCE
    x, y = pos
    if x < exmin or x > exmax or y < eymin or y > eymax:
        return (min(max(x, exmin), exmax), min(max(y, eymin), eymax))
    # Inside the expanded rect: push out through the nearest side.
    sides = [
        (x - exmin, (exmin, y)),
        (exmax - x, (exmax, y)),
        (y - eymin, (x, eymin)),
        (eymax - y, (x, eymax)),
    ]
    return min(sides, key=lambda s: s[0])[1]


def footprint_cells(grid: OccupancyGrid, box: tuple[Vec3, Vec3]) -> set[tuple[int, int]]:
    """Grid cells overlapping the box's ground-plane rectangle."""
    xmin, ymin, xmax, ymax = _footprint_rect(box)
    cells: set[tuple[int, int]] = set()
    (origin_x, origin_y), size = grid.origin, grid.cell_size
    r0 = max(0, math.floor((ymin - origin_y) / size))
    c0 = max(0, math.floor((xmin - origin_x) / size))
    r1 = min(grid.rows - 1, math.ceil((ymax - origin_y) / size))
    c1 = min(grid.cols - 1, math.ceil((xmax - origin_x) / size))
    for row in range(r0, r1 + 1):
        for col in range(c0, c1 + 1):
            cell_xmin = origin_x + col * size
            cell_ymin = origin_y + row * size
            if (
                cell_xmin < xmax
                and cell_xmin + size > xmin
                and cell_ymin < ymax
                and cell_ymin + size > ymin
            ):
                cells.add((row, col))
    return cells


def adjacent_free_cells(grid: OccupancyGrid, box: tuple[Vec3, Vec3]) -> set[tuple[int, int]]:
    """Free cells in the 8-neighborhood of the box's footprint cells."""
    footprint = footprint_cells(grid, box)
    adjacent: set[tuple[int, int]] = set()
    for row, col in footprint:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                cell = (row + dr, col + dc)
                if cell not in footprint and grid.is_free(*cell):
                    adjacent.add(cell)
    return adjacent


def goal_cells(scene: SceneModel, target: ObjectInstance) -> frozenset[tuple[int, int]]:
    """:func:`adjacent_free_cells` of a scene object on the scene's grid, memoized per scene.

    The cells depend only on the grid and the object, so each object's
    footprint is scanned once per scene, not on every clause that targets it.
    """
    memo = scene.goal_cell_memo
    cells = memo.get(target.id)
    if cells is None:
        cells = memo[target.id] = frozenset(adjacent_free_cells(scene.occupancy, target.aabb))
    return cells


def _landing_point(
    pose: AgentPose, clause: RouteClause, target: ObjectInstance, scene: SceneModel
) -> tuple[float, float]:
    rect = _footprint_rect(target.aabb)
    point: tuple[float, float] | None = None
    if clause.adverb == "straight ahead":
        direction = HEADING_TO_DIR[pose.heading]
        t = _ray_rect_entry(pose.position, direction, rect)
        if t is not None and t > ADJACENCY_CLEARANCE:
            reach = t - ADJACENCY_CLEARANCE
            point = (
                pose.position[0] + direction[0] * reach,
                pose.position[1] + direction[1] * reach,
            )
    if point is None:
        point = _nearest_clearance_point(pose.position, rect)
    grid = scene.occupancy
    if grid is not None and not grid.is_free(*grid.cell_of(*point)):
        candidates = goal_cells(scene, target)
        if candidates:
            best = min(
                candidates,
                key=lambda c: (math.dist(pose.position, grid.cell_center(*c)), c),
            )
            point = grid.cell_center(*best)
    return point


def apply_clause(pose: AgentPose, clause: RouteClause, scene: SceneModel) -> AgentPose:
    """Advance the agent pose by one clause.

    Turns rotate the quantized heading.  A targeted move lands adjacent to
    the object's footprint: on the heading ray when the clause says
    "straight ahead" and the ray actually hits, else at the nearest
    adjacent point (snapped to a free cell when a grid is present).  An
    untargeted move advances 1 m along the heading.
    """
    if clause.verb == TURN_VERB:
        return AgentPose(
            pose.position, turn_heading(pose.heading, clause.turn_degrees, clause.turn_direction)
        )
    if clause.target_category is None:
        dx, dy = HEADING_TO_DIR[pose.heading]
        return AgentPose((pose.position[0] + dx, pose.position[1] + dy), pose.heading)
    category = resolve_noun_phrase(clause.target_category, scene.category_matcher)
    if category is None:
        raise UnknownObjectError(clause.target_category)
    target = nearest_instance(scene, category, pose.position)
    return AgentPose(_landing_point(pose, clause, target, scene), pose.heading)


def _within_cone(pose: AgentPose, target: ObjectInstance) -> bool:
    vx = target.centroid[0] - pose.position[0]
    vy = target.centroid[1] - pose.position[1]
    norm = math.hypot(vx, vy)
    if norm == 0:
        return True
    dx, dy = HEADING_TO_DIR[pose.heading]
    return (vx * dx + vy * dy) / norm >= math.cos(math.radians(STRAIGHT_AHEAD_CONE))


def shortest_cell_path(
    grid: OccupancyGrid,
    start: tuple[int, int],
    goals: AbstractSet[tuple[int, int]],
) -> list[tuple[int, int]] | None:
    """A* over free cells, 4-connected, Manhattan heuristic, ties by (row, col).

    Returns the cell path from ``start`` to the first goal reached, start
    included, or None when no goal is reachable.  Goals outside the grid
    are never reached; a start outside it raises :class:`ValueError`.

    The heuristic, the Manhattan distance to the nearest goal, first clamps
    the cell into the goals' bounding box.  Every goal lies in the box, so
    none is nearer than the clamped cell; when that cell is a goal its
    distance is exact, and only otherwise are all goals scanned.  Cells are
    keyed by row-major index, so ``(f, index)`` orders as ``(f, row, col)``.
    """
    rows, cols, blocked = grid.rows, grid.cols, grid.blocked
    row, col = start
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"start cell {start} is outside the {rows}x{cols} grid")
    # Only in-grid goals get an index: an out-of-grid cell's would alias an in-grid one.
    goal_ids = {r * cols + c for r, c in goals if 0 <= r < rows and 0 <= c < cols}
    if not goal_ids:
        return None
    index = row * cols + col
    if index in goal_ids:
        return [start]
    top, bottom = min(r for r, _ in goals), max(r for r, _ in goals)
    left, right = min(c for _, c in goals), max(c for _, c in goals)

    def heuristic(row: int, col: int) -> int:
        r = top if row < top else bottom if row > bottom else row
        c = left if col < left else right if col > right else col
        if (r, c) in goals:
            return abs(row - r) + abs(col - c)
        return min(abs(row - g[0]) + abs(col - g[1]) for g in goals)

    frontier = [(heuristic(row, col), index)]
    best_g = {index: 0}
    parent: dict[int, int] = {}
    closed: set[int] = set()
    while frontier:
        index = heappop(frontier)[-1]
        if index in closed:
            continue
        closed.add(index)
        if index in goal_ids:
            path = [index]
            while index in parent:
                index = parent[index]
                path.append(index)
            return [divmod(i, cols) for i in reversed(path)]
        row, col = divmod(index, cols)
        ng = best_g[index] + 1
        for nrow, ncol in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
            neighbor = nrow * cols + ncol
            inside = 0 <= nrow < rows and 0 <= ncol < cols
            if inside and not blocked[neighbor] and ng < best_g.get(neighbor, math.inf):
                best_g[neighbor] = ng
                parent[neighbor] = index
                heappush(frontier, (ng + heuristic(nrow, ncol), neighbor))
    return None


def nearest_free_cell(
    grid: OccupancyGrid, position: tuple[float, float]
) -> tuple[int, int] | None:
    """Free cell whose center is closest to a world point, ties by (row, col).

    Scans rings of growing Chebyshev radius ``d`` around the cell that
    contains the point (the edge cell for a point outside the grid).  Every
    center in ring ``d`` lies at least ``(d - 0.5)`` cells from the point,
    so the search stops once ``(d - 1)`` cells exceed the best distance:
    no later cell can be closer or tie.
    """
    row0, col0 = grid.cell_of(*position)
    reach = max(row0, grid.rows - 1 - row0, col0, grid.cols - 1 - col0)
    best: tuple[float, int, int] | None = None
    for d in range(reach + 1):
        if best is not None and (d - 1) * grid.cell_size > best[0]:
            break
        for row, col in ring_cells(grid.rows, grid.cols, row0, col0, d):
            if grid.is_blocked(row, col):
                continue
            key = (math.dist(position, grid.cell_center(row, col)), row, col)
            if best is None or key < best:
                best = key
    return None if best is None else (best[1], best[2])


def _heading_of_step(delta: tuple[int, int]) -> int:
    # Row axis is +y, column axis is +x.
    return {(1, 0): 0, (-1, 0): 180, (0, 1): 270, (0, -1): 90}[delta]


def _turn_clauses(current: int, wanted: int) -> list[RouteClause]:
    diff = (wanted - current) % 360
    if diff == 0:
        return []
    if diff == 90:
        return [RouteClause(TURN_VERB, 90, "left")]
    if diff == 270:
        return [RouteClause(TURN_VERB, 90, "right")]
    return [RouteClause(TURN_VERB, 180, "left")]


def path_to_clauses(
    path: list[tuple[int, int]], start_heading: int, target_category: str
) -> list[RouteClause]:
    """Compress a cell path into TURN/MOVE clauses; final move names the target.

    Every move claims "straight ahead"; :func:`plan_route` drops the claim
    from the final move when the target sits outside the heading cone.
    """
    if len(path) < 2:
        return []
    steps = [
        (path[i + 1][0] - path[i][0], path[i + 1][1] - path[i][1])
        for i in range(len(path) - 1)
    ]
    runs: list[int] = []  # heading per maximal straight run
    for delta in steps:
        heading = _heading_of_step(delta)
        if not runs or runs[-1] != heading:
            runs.append(heading)
    clauses: list[RouteClause] = []
    heading = start_heading
    for i, run_heading in enumerate(runs):
        clauses.extend(_turn_clauses(heading, run_heading))
        heading = run_heading
        final = i == len(runs) - 1
        clauses.append(
            RouteClause(
                verb="walk",
                adverb="straight ahead",
                target_category=target_category if final else None,
            )
        )
    return clauses


def plan_route(
    start: AgentPose, target_object_id: int, scene: SceneModel
) -> tuple[list[RouteClause], AgentPose]:
    """Plan clauses from ``start`` to any free cell adjacent to the target.

    Returns the clauses and the pose that :func:`apply_clause` ends them
    at.  Requires an occupancy grid and a free start cell.  When the start
    cell is already adjacent to the target footprint the route is one bare
    targeted move; raises :class:`UnreachableTargetError` when no adjacent
    cell can be reached.
    """
    grid = scene.occupancy
    if grid is None:
        raise MissingGridError(f"scene {scene.scene_id} has no occupancy grid")
    target = scene.objects_by_id.get(target_object_id)
    if target is None:
        raise UnknownObjectError(f"object id {target_object_id}")
    start_cell = grid.cell_of(*start.position)
    if not grid.is_free(*start_cell):
        raise RouteError(f"start cell {start_cell} is blocked")
    goals = goal_cells(scene, target)
    if start_cell in goals:
        clauses = [RouteClause("walk", target_category=target.category)]
        return clauses, apply_clause(start, clauses[0], scene)
    path = shortest_cell_path(grid, start_cell, goals)
    if path is None:
        raise UnreachableTargetError(
            f"no path from {start_cell} to any cell adjacent to object {target_object_id}"
        )
    clauses = path_to_clauses(path, start.heading, target.category)
    # The verifier simulates clauses (untargeted moves advance 1 m), not the
    # cell path, so test the "straight ahead" claim under that simulation
    # and drop the adverb when the cone check would reject it.
    pose = start
    for clause in clauses[:-1]:
        pose = apply_clause(pose, clause, scene)
    if not _within_cone(pose, target):
        clauses[-1] = clauses[-1]._replace(adverb=None)
    return clauses, apply_clause(pose, clauses[-1], scene)


def verify_route(
    steps: list[dict],
    scene: SceneModel,
    start: AgentPose,
) -> list[dict]:
    """Thread the agent pose through all steps and check route feasibility.

    Each step is a dict read only at ``index`` and ``text``: a step as
    ``plan`` prints it or as :func:`~sceneplan.scene.parse_triplet_record`
    returns it.

    One report per step, as ``route-check`` prints it: ``step_index``,
    ``verdict``, ``detail``, the step's ``clauses`` as text and the
    ``final_pose`` (``position`` list and ``heading``).

    Per step, the first failing clause determines the verdict: "unparsed"
    for a movement fragment outside the grammar, "unknown-object" when a
    target matches no scene category, "direction-inconsistent" when
    "straight ahead" points more than 30 degrees away from the target, and
    "unreachable-target" when no free cell adjacent to the target lies in
    the start cell's free-cell component, which is exactly when
    :func:`shortest_cell_path` would find no path.  Later steps are still
    checked from wherever the pose ended up.
    """
    reports: list[dict] = []
    pose = start
    for step in steps:
        fragments = parse_fragments(step["text"], scene.fragment_memo)
        verdict, detail = "ok", ""
        for text, clause, is_movement in fragments:
            if clause is None:
                if is_movement:
                    verdict, detail = "unparsed", text
                    break
                continue
            if clause.verb == TURN_VERB or clause.target_category is None:
                pose = apply_clause(pose, clause, scene)
                continue
            category = resolve_noun_phrase(clause.target_category, scene.category_matcher)
            if category is None:
                verdict, detail = "unknown-object", clause.target_category
                break
            target = nearest_instance(scene, category, pose.position)
            if clause.adverb == "straight ahead" and not _within_cone(pose, target):
                verdict = "direction-inconsistent"
                detail = f"{clause.target_category} is not straight ahead"
                break
            if scene.occupancy is not None:
                grid = scene.occupancy
                start_cell: tuple[int, int] | None = grid.cell_of(*pose.position)
                if not grid.is_free(*start_cell):
                    # Untargeted moves advance a fixed 1 m without collision
                    # checks, so the simulated pose can sit inside furniture;
                    # route reachability is judged from the nearest free cell.
                    start_cell = nearest_free_cell(grid, pose.position)
                start_label = None if start_cell is None else grid.component_of(*start_cell)
                if start_label is None or not any(
                    grid.component_of(*goal) == start_label for goal in goal_cells(scene, target)
                ):
                    verdict = "unreachable-target"
                    detail = f"no path to {clause.target_category}"
                    break
            pose = AgentPose(_landing_point(pose, clause, target, scene), pose.heading)
        reports.append({
            "step_index": step["index"],
            "verdict": verdict,
            "detail": detail,
            "clauses": [clause_to_text(clause) for _, clause, _ in fragments if clause],
            "final_pose": {"position": list(pose.position), "heading": pose.heading},
        })
    return reports


def default_start_pose(scene: SceneModel) -> AgentPose:
    """Free occupancy cell nearest the grid origin, heading 0 (+y).

    Without a grid the agent starts at the world origin.
    """
    grid = scene.occupancy
    if grid is None:
        return AgentPose(position=(0.0, 0.0), heading=0)
    best = nearest_free_cell(grid, grid.origin)
    if best is None:
        raise RouteError(f"scene {scene.scene_id} occupancy grid is fully blocked")
    return AgentPose(position=grid.cell_center(*best), heading=0)


def clause_to_text(clause: RouteClause) -> str:
    """Render a clause back to route language that re-parses to itself."""
    if clause.verb == TURN_VERB:
        return f"turn {clause.turn_degrees} degrees {clause.turn_direction}"
    parts = [clause.verb]
    if clause.adverb:
        parts.append(clause.adverb)
    if clause.target_category:
        parts.append(f"to the {clause.target_category}")
    return " ".join(parts)


def clauses_to_text(clauses: list[RouteClause]) -> str:
    return " and ".join(clause_to_text(c) for c in clauses)
