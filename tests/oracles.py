"""Independent reference implementations used to pin expected test values.

Everything here is written from the definitions, structured differently
from the package code (brute force, recursion, explicit enumeration), so
agreement between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from heapq import heappop, heappush

from sceneplan.graph import classify_relation
from sceneplan.scene import ObjectInstance, SceneFormatError, SceneInvariantError
from sceneplan.textmatch import words_of


# ---------------------------------------------------------------- geometry


def oracle_point_in_box(point, box_min, box_max) -> bool:
    return all(lo <= p <= hi for p, lo, hi in zip(point, box_min, box_max))


def oracle_knn(centroids: dict[int, tuple], k: int) -> dict[int, list[int]]:
    """Brute-force k nearest neighbors by centroid distance, ties by lower id."""
    result: dict[int, list[int]] = {}
    for i, ci in centroids.items():
        others = []
        for j, cj in centroids.items():
            if j == i:
                continue
            others.append((math.dist(ci, cj), j))
        others.sort()
        result[i] = [j for _, j in others[:k]]
    return result


def oracle_modulated_sets(
    mentioned: set[int], neighbors: dict[int, list[int]]
) -> tuple[set[int], set[tuple[int, int]]]:
    """Index sets scaled by one modulation: nodes {i} + KNN(i), edges i->KNN(i)."""
    nodes: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for i in mentioned:
        nodes.add(i)
        for j in neighbors[i]:
            nodes.add(j)
            edges.add((i, j))
    return nodes, edges


def oracle_serialize_for_prompt(objects, k: int, weights: dict[int, float]) -> str:
    """Prompt text by definition: nodes by (-weight, id), then each node's out-edges.

    Out-edges go by ascending neighbor id.  Edge kinds come from
    ``classify_relation``, which the relation tests pin by hand.
    """
    by_id = {obj.id: obj for obj in objects}
    knn = oracle_knn({obj.id: obj.centroid for obj in objects}, k)
    order = sorted(by_id, key=lambda i: (-weights[i], i))
    lines = [f"{by_id[i].category}#{i} (w={weights[i]:g})" for i in order]
    for i in order:
        for j in sorted(knn[i]):
            kind, _ = classify_relation(by_id[i], by_id[j])
            lines.append(f"{by_id[i].category}#{i} {kind} {by_id[j].category}#{j}")
    return "\n".join(lines)


def oracle_bfs_length(
    free: set[tuple[int, int]], start: tuple[int, int], goals: set[tuple[int, int]]
) -> int | None:
    """Unit-cost shortest path length (cell count minus 1); None if unreachable."""
    if start not in free:
        return None
    if start in goals:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (row, col), dist = queue.popleft()
        for cell in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
            if cell in seen or cell not in free:
                continue
            if cell in goals:
                return dist + 1
            seen.add(cell)
            queue.append((cell, dist + 1))
    return None


def oracle_astar_path(grid, start, goals) -> list[tuple[int, int]] | None:
    """A* over free cells, 4-connected, Manhattan heuristic, ties by (row, col).

    The planner's earlier body, kept as its exact-path reference: the
    heuristic scans every goal, and cells are keyed by ``(row, col)``.
    Returns the cell path from ``start`` to the first goal reached, start
    included, or None when no goal is reachable.
    """
    if not goals:
        return None
    if start in goals:
        return [start]

    def heuristic(cell: tuple[int, int]) -> int:
        return min(abs(cell[0] - g[0]) + abs(cell[1] - g[1]) for g in goals)

    frontier: list[tuple[int, int, int, tuple[int, int]]] = []
    heappush(frontier, (heuristic(start), start[0], start[1], start))
    best_g = {start: 0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    closed: set[tuple[int, int]] = set()
    while frontier:
        _, _, _, cell = heappop(frontier)
        if cell in closed:
            continue
        closed.add(cell)
        if cell in goals:
            path = [cell]
            while cell in parent:
                cell = parent[cell]
                path.append(cell)
            return path[::-1]
        row, col = cell
        g = best_g[cell]
        for neighbor in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
            if not grid.is_free(*neighbor):
                continue
            ng = g + 1
            if ng < best_g.get(neighbor, math.inf):
                best_g[neighbor] = ng
                parent[neighbor] = cell
                heappush(
                    frontier, (ng + heuristic(neighbor), neighbor[0], neighbor[1], neighbor)
                )
    return None


def oracle_nearest_free_cell(grid, position) -> tuple[int, int] | None:
    """Full scan: the free cell whose center is closest to the point, ties by (row, col)."""
    ox, oy = grid.origin
    size = grid.cell_size
    best = None
    for row in range(grid.rows):
        for col in range(grid.cols):
            if grid.blocked[row * grid.cols + col]:
                continue
            center = (ox + (col + 0.5) * size, oy + (row + 0.5) * size)
            key = (math.dist(position, center), row, col)
            if best is None or key < best:
                best = key
    return None if best is None else (best[1], best[2])


def oracle_ray_hits_rect(pos, direction, rect) -> float | None:
    """March an axis-aligned ray in tiny steps until it enters the rect."""
    xmin, ymin, xmax, ymax = rect
    step = 1e-4
    x, y = pos
    for i in range(1, 2_000_000):
        t = i * step
        px, py = x + direction[0] * t, y + direction[1] * t
        if xmin <= px <= xmax and ymin <= py <= ymax:
            return t
        if abs(px) > 1e3 or abs(py) > 1e3:
            return None
    return None


def oracle_component_labels(rows: int, cols: int, blocked) -> tuple[int, ...]:
    """Row-major free-cell component labels by breadth-first search, -1 if blocked.

    Free cells are visited in row-major order; each one not yet reached
    starts the next label and spreads it to every free cell its search
    reaches through 4-neighbors.
    """
    free = {(r, c) for r in range(rows) for c in range(cols) if not blocked[r * cols + c]}
    label_of: dict[tuple[int, int], int] = {}
    label = -1
    for seed in sorted(free):
        if seed in label_of:
            continue
        label += 1
        label_of[seed] = label
        queue = deque([seed])
        while queue:
            row, col = queue.popleft()
            for cell in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
                if cell in free and cell not in label_of:
                    label_of[cell] = label
                    queue.append(cell)
    return tuple(label_of.get((r, c), -1) for r in range(rows) for c in range(cols))


# ----------------------------------------------------------- text matching
# The category scan as it stood before the per-scene matcher: every call
# re-sorts the categories and re-splits each one (on whitespace) at every
# text position.  It agrees with ``CategoryMatcher`` wherever a category's
# whitespace-separated words are [a-z0-9] runs.


def oracle_token_matches(text_token: str, category_token: str) -> bool:
    """A text word names a (nonempty) category word spelled alike or with "s" or "es" added."""
    return text_token in (category_token, category_token + "s", category_token + "es")


def oracle_find_category_spans(text: str, categories: set[str]) -> list[tuple[int, str]]:
    """All category occurrences in ``text`` as (start-token-position, category).

    Longer (more-word) categories win at a given position; the same position
    never yields two overlapping matches.  Result is ordered by position.
    A category with no tokens matches nowhere.
    """
    tokens = words_of(text)
    by_len = sorted((c for c in categories if c.split()), key=lambda c: (-len(c.split()), c))
    spans: list[tuple[int, str]] = []
    pos = 0
    while pos < len(tokens):
        hit = None
        for category in by_len:
            cat_tokens = category.split()
            if pos + len(cat_tokens) > len(tokens):
                continue
            if all(
                oracle_token_matches(tokens[pos + i], cat_tokens[i])
                for i in range(len(cat_tokens))
            ):
                hit = category
                break
        if hit is None:
            pos += 1
        else:
            spans.append((pos, hit))
            pos += len(hit.split())
    return spans


def oracle_resolve_noun_phrase(noun_phrase: str, categories: set[str]) -> str | None:
    """Best category named by a noun phrase.

    "the water kettle" resolves to "kettle", and a bare head noun reaches a
    multi-word category: "counter" resolves to "kitchen counter".
    """
    spans = oracle_find_category_spans(noun_phrase, categories)
    if spans:
        # Prefer the longest match anywhere in the phrase, then the latest
        # one (heads of English noun phrases come last).
        return max(spans, key=lambda s: (len(s[1].split()), s[0]))[1]
    # Fall back to head-noun matching; ties resolve lexicographically.
    tokens = words_of(noun_phrase)
    if not tokens:
        return None
    head = tokens[-1]
    matches = sorted(
        c for c in categories if c.split() and oracle_token_matches(head, c.split()[-1])
    )
    return matches[0] if matches else None


# ----------------------------------------------------------- scene parsing
# The object parser and checks written the plain way, each locus formatted
# up front and each number converted on its own: the reference for every
# error type and message, and for which fault of a file is reported first.


def oracle_number(raw: object, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SceneFormatError(f"{where}: expected a number")
    try:
        value = float(raw)
    except OverflowError:
        raise SceneFormatError(f"{where}: expected a number") from None
    if not math.isfinite(value):
        raise SceneFormatError(f"{where}: expected a finite number")
    return value


def oracle_vec3(raw: object, where: str):
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise SceneFormatError(f"{where}: expected 3 numbers")
    return (oracle_number(raw[0], where), oracle_number(raw[1], where), oracle_number(raw[2], where))


def _oracle_require(record: dict, key: str, where: str) -> object:
    if key not in record:
        raise SceneFormatError(f"{where}: missing field {key!r}")
    return record[key]


def oracle_parse_object(raw: object, where: str) -> ObjectInstance:
    if not isinstance(raw, dict):
        raise SceneFormatError(f"{where}: expected object")
    oid = _oracle_require(raw, "id", where)
    if not isinstance(oid, int) or isinstance(oid, bool):
        raise SceneFormatError(f"{where}.id: expected integer")
    category = _oracle_require(raw, "category", where)
    if not isinstance(category, str):
        raise SceneFormatError(f"{where}.category: expected string")
    centroid = oracle_vec3(_oracle_require(raw, "centroid", where), f"{where}.centroid")
    aabb_raw = _oracle_require(raw, "aabb", where)
    if not isinstance(aabb_raw, dict):
        raise SceneFormatError(f"{where}.aabb: expected object with min/max")
    box = (
        oracle_vec3(_oracle_require(aabb_raw, "min", f"{where}.aabb"), f"{where}.aabb.min"),
        oracle_vec3(_oracle_require(aabb_raw, "max", f"{where}.aabb"), f"{where}.aabb.max"),
    )
    mask_ref = raw.get("mask_ref")
    if mask_ref is not None and not isinstance(mask_ref, str):
        raise SceneFormatError(f"{where}.mask_ref: expected string")
    return ObjectInstance(oid, category, centroid, box, mask_ref)


def oracle_validate_object(obj: ObjectInstance) -> None:
    if obj.id < 0:
        raise SceneInvariantError(f"object {obj.id}: id must be non-negative")
    if not obj.category.split():
        raise SceneInvariantError(f"object {obj.id}: empty category")
    if obj.category != obj.category.lower():
        raise SceneInvariantError(f"object {obj.id}: category {obj.category!r} is not lowercase")
    lo, hi = obj.aabb
    if any(lo[i] > hi[i] for i in range(3)):
        raise SceneInvariantError(f"object {obj.id}: aabb min exceeds max")
    if not oracle_point_in_box(obj.centroid, lo, hi):
        raise SceneInvariantError(f"object {obj.id}: centroid outside aabb")


def oracle_load_objects(records: list) -> tuple[ObjectInstance, ...]:
    """The objects of a gridless scene file: every format error before any invariant error."""
    objects = tuple(oracle_parse_object(raw, f"objects[{i}]") for i, raw in enumerate(records))
    seen: set[int] = set()
    for obj in objects:
        oracle_validate_object(obj)
        if obj.id in seen:
            raise SceneInvariantError(f"duplicate object id {obj.id}")
        seen.add(obj.id)
    return objects


# ------------------------------------------------------------ text metrics


def oracle_tokens(text: str) -> list[str]:
    kept = [ch if ch.isalnum() or ch.isspace() else "" for ch in text.lower()]
    normalized = "".join(c for c in kept if c == "" or ord(c) < 128)
    return normalized.split()


def _gram_counts(tokens, n):
    counts: dict[tuple, int] = {}
    for i in range(len(tokens) - n + 1):
        gram = tuple(tokens[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def oracle_bleu(candidates: list[list[str]], references: list[list[list[str]]], max_n: int) -> float:
    """Corpus BLEU from the published definition, no smoothing."""
    precisions = []
    for n in range(1, max_n + 1):
        numerator = 0
        denominator = 0
        for cand, refs in zip(candidates, references):
            cand_counts = _gram_counts(cand, n)
            denominator += max(0, len(cand) - n + 1)
            for gram, count in cand_counts.items():
                best_ref = max((_gram_counts(r, n).get(gram, 0) for r in refs), default=0)
                numerator += min(count, best_ref)
        if numerator == 0:
            return 0.0
        precisions.append(numerator / denominator)
    c = sum(len(cand) for cand in candidates)
    r = 0
    for cand, refs in zip(candidates, references):
        diffs = sorted((abs(len(ref) - len(cand)), len(ref)) for ref in refs)
        r += diffs[0][1]
    bp = 1.0 if c > r else math.exp(1 - r / c)
    geo = math.exp(sum(math.log(p) for p in precisions) / max_n)
    return bp * geo


def oracle_lcs(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def oracle_rouge_l(candidates, references, beta: float = 1.2) -> float:
    total = 0.0
    for cand, refs in zip(candidates, references):
        best = 0.0
        for ref in refs:
            if not cand or not ref:
                continue
            lcs = oracle_lcs(tuple(cand), tuple(ref))
            r = lcs / len(ref)
            p = lcs / len(cand)
            denom = r + beta * beta * p
            f = (1 + beta * beta) * r * p / denom if denom else 0.0
            best = max(best, f)
        total += best
    return total / len(candidates)


def oracle_meteor_pair(cand: list[str], ref: list[str], stem_fn) -> float:
    """Exhaustive METEOR: maximum matches, then minimum chunks over all alignments.

    Stage order is exact match first, then stems on what remains, matching
    the two-stage scheme; within that constraint every maximal alignment is
    enumerated.
    """
    best_alignments: list[list[tuple[int, int]]] = []

    def extend(stage_pairs, taken_c, taken_r, chosen, out):
        usable = [
            (i, j) for (i, j) in stage_pairs if i not in taken_c and j not in taken_r
        ]
        if not usable:
            out.append(list(chosen))
            return
        i0 = min(i for i, _ in usable)
        candidates_here = [(i, j) for (i, j) in usable if i == i0]
        # Either match i0 with one of its options, or leave i0 unmatched.
        for pair in candidates_here:
            extend(stage_pairs, taken_c | {pair[0]}, taken_r | {pair[1]},
                   chosen + [pair], out)
        remaining = [(i, j) for (i, j) in stage_pairs if i != i0]
        extend(remaining, taken_c, taken_r, chosen, out)

    exact_pairs = [
        (i, j) for i, ct in enumerate(cand) for j, rt in enumerate(ref) if ct == rt
    ]
    stage1_results: list[list[tuple[int, int]]] = []
    extend(exact_pairs, set(), set(), [], stage1_results)
    max1 = max(len(a) for a in stage1_results)
    for stage1 in (a for a in stage1_results if len(a) == max1):
        taken_c = {i for i, _ in stage1}
        taken_r = {j for _, j in stage1}
        stem_pairs = [
            (i, j)
            for i, ct in enumerate(cand)
            for j, rt in enumerate(ref)
            if i not in taken_c and j not in taken_r and stem_fn(ct) == stem_fn(rt)
        ]
        stage2_results: list[list[tuple[int, int]]] = []
        extend(stem_pairs, set(taken_c), set(taken_r), [], stage2_results)
        max2 = max(len(a) for a in stage2_results)
        for stage2 in (a for a in stage2_results if len(a) == max2):
            best_alignments.append(sorted(stage1 + stage2))

    best_score = 0.0
    top_matches = max(len(a) for a in best_alignments)
    for alignment in best_alignments:
        if len(alignment) != top_matches:
            continue
        m = len(alignment)
        if m == 0:
            continue
        chunks = 0
        prev = None
        for ci, ri in alignment:
            if prev is None or ci != prev[0] + 1 or ri != prev[1] + 1:
                chunks += 1
            prev = (ci, ri)
        p = m / len(cand)
        r = m / len(ref)
        f = 10 * p * r / (r + 9 * p)
        score = f * (1 - 0.5 * (chunks / m) ** 3)
        best_score = max(best_score, score)
    return best_score


def oracle_greedy_alignment(cand, ref, stem_fn) -> list[tuple[int, int]]:
    """Greedy two-stage alignment by rescanning: per stage (exact, then stem),
    each unmatched candidate token takes the first unmatched reference token
    with the same key.  Returns sorted (candidate_index, reference_index) pairs.
    """
    matched_ref = [False] * len(ref)
    matched_cand = [False] * len(cand)
    alignment = []
    for key in (lambda t: t, stem_fn):
        ref_keys = [key(t) for t in ref]
        for i, token in enumerate(cand):
            if matched_cand[i]:
                continue
            want = key(token)
            for j, have in enumerate(ref_keys):
                if not matched_ref[j] and have == want:
                    matched_cand[i] = True
                    matched_ref[j] = True
                    alignment.append((i, j))
                    break
    return sorted(alignment)


def oracle_meteor(candidates, references, stem_fn) -> float:
    total = 0.0
    for cand, refs in zip(candidates, references):
        total += max(oracle_meteor_pair(cand, ref, stem_fn) for ref in refs)
    return total / len(candidates)


def oracle_cider(candidates, references) -> float:
    """TF-IDF cosine consensus over n = 1..4 via explicit vector arithmetic."""
    n_docs = len(candidates)
    per_pair_scores = []
    for n in range(1, 5):
        df: dict[tuple, int] = {}
        for refs in references:
            grams_here = set()
            for ref in refs:
                grams_here.update(_gram_counts(ref, n))
            for gram in grams_here:
                df[gram] = df.get(gram, 0) + 1
        idf = {gram: math.log(n_docs / (1 + count)) for gram, count in df.items()}

        def vec(tokens):
            counts = _gram_counts(tokens, n)
            return {g: c * idf.get(g, 0.0) for g, c in counts.items()}

        def cos(u, v):
            nu = math.sqrt(sum(x * x for x in u.values()))
            nv = math.sqrt(sum(x * x for x in v.values()))
            if nu == 0 or nv == 0:
                return 0.0
            shared = set(u) & set(v)
            return sum(u[g] * v[g] for g in shared) / (nu * nv)

        scores_n = []
        for cand, refs in zip(candidates, references):
            cv = vec(cand)
            scores_n.append(
                10.0 * sum(cos(cv, vec(ref)) for ref in refs) / len(refs)
            )
        per_pair_scores.append(scores_n)
    per_pair = [
        sum(per_pair_scores[n][i] for n in range(4)) / 4 for i in range(n_docs)
    ]
    return sum(per_pair) / n_docs
