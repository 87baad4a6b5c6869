"""Dataset toolkit: directory loading, validation findings, statistics, prompts.

A dataset directory holds ``scenes/<scene_id>.json`` plus
``triplets/<split>.jsonl`` with split in {train, val}.  Validation re-runs
every structural, object, and route check over every sample and reports
structured findings keyed by (scene_id, sample_id); statistics summarize
corpus composition the same way regardless of sample order.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from pathlib import Path

from . import route
from .route import AgentPose, default_start_pose, verify_route
from .scene import (
    DatasetError,
    SceneFormatError,
    SceneModel,
    load_scene,
    parse_triplet_record,
    read_jsonl,
    sample_key,
    triplet_warnings,
)
from .textmatch import find_category_spans, words_of

SPLITS = ("train", "val")

FINDING_KINDS = (
    "unknown-object",
    "direction-inconsistent",
    "unreachable-target",
    "implicitness-violation",
    "step-structure",
    "unparsed-route",
)

_ROUTE_VERDICT_TO_KIND = {
    "unparsed": "unparsed-route",
    "unknown-object": "unknown-object",
    "direction-inconsistent": "direction-inconsistent",
    "unreachable-target": "unreachable-target",
}


class ValidationFinding(namedtuple("ValidationFinding", "scene_id sample_id kind detail")):
    """A sample's key, a kind from :data:`FINDING_KINDS` and a detail text.

    ``_asdict()`` is the finding as ``validate`` prints it.
    """

    __slots__ = ()

    def __new__(cls, scene_id: str, sample_id: int, kind: str, detail: str) -> ValidationFinding:
        if kind not in FINDING_KINDS:
            raise ValueError(f"unknown finding kind {kind!r}")
        return super().__new__(cls, scene_id, sample_id, kind, detail)


def load_dataset(
    dataset_dir: str | Path,
) -> tuple[dict[tuple[str, int], dict], dict[str, SceneModel]]:
    """Read every split file and the scenes they reference.

    Samples come back as ``{(scene_id, sample_id): triplet}`` in file
    order, train before val, each triplet the dict that
    :func:`~sceneplan.scene.parse_triplet_record` returns; scenes come back
    by id.  Sample ids come from the optional ``sample_id`` record field,
    defaulting to the record's line number within its split file; a key
    may occur once across both files.  Malformed records, duplicate keys or
    missing scene files are fatal with a path locus; semantic problems are
    left for :func:`validate_dataset`.
    """
    root = Path(dataset_dir)
    triplet_dir = root / "triplets"
    split_files = [triplet_dir / f"{split}.jsonl" for split in SPLITS]
    split_files = [path for path in split_files if path.exists()]
    if not split_files:
        raise DatasetError(f"{triplet_dir}: no train.jsonl or val.jsonl found")
    scenes: dict[str, SceneModel] = {}
    samples: dict[tuple[str, int], dict] = {}
    loci: dict[tuple[str, int], str] = {}
    for path in split_files:
        try:
            entries = read_jsonl(path)
        except OSError as exc:
            raise DatasetError(f"{path}: {exc}") from exc
        for lineno, where, data in entries:
            if isinstance(data, SceneFormatError):
                raise DatasetError(f"{where}: {data}")
            try:
                triplet = parse_triplet_record(data, where)
            except SceneFormatError as exc:
                # The parser's message already starts with the locus.
                raise DatasetError(str(exc)) from exc
            scene_id, sample_id = sample_key(data, where, default_sample_id=lineno)
            if scene_id in ("", ".", "..") or set(scene_id) & set("/\\\0"):
                raise DatasetError(f"{where}: scene_id {scene_id!r} is not a plain file name")
            key = (scene_id, sample_id)
            if key in loci:
                raise DatasetError(f"{where}: duplicate key {key}, first at {loci[key]}")
            loci[key] = where
            if scene_id not in scenes:
                scene_path = root / "scenes" / f"{scene_id}.json"
                if not scene_path.exists():
                    raise DatasetError(f"{where}: scene file not found: {scene_path}")
                scenes[scene_id] = load_scene(scene_path)
            samples[key] = triplet
    return samples, scenes


def validate_sample(
    key: tuple[str, int],
    triplet: dict,
    scene: SceneModel,
    start: AgentPose,
) -> list[ValidationFinding]:
    """All findings for sample ``key``: structure, ids, implicitness, routes from ``start``."""
    findings = [
        ValidationFinding(*key, kind, detail) for kind, detail in triplet_warnings(triplet, scene)
    ]
    for report in verify_route(triplet["steps"], scene, start):
        if report["verdict"] == "ok":
            continue
        findings.append(
            ValidationFinding(
                *key,
                _ROUTE_VERDICT_TO_KIND[report["verdict"]],
                f"step {report['step_index']}: {report['detail']}",
            )
        )
    return findings


def validate_dataset(dataset_dir: str | Path) -> list[ValidationFinding]:
    """Validate every sample; findings come back ordered by sample key.

    Routes start from each scene's default start pose, found once per scene,
    at its first sample.
    """
    samples, scenes = load_dataset(dataset_dir)
    starts: dict[str, AgentPose] = {}
    findings: list[ValidationFinding] = []
    for key in sorted(samples):
        scene_id = key[0]
        scene = scenes[scene_id]
        if scene_id not in starts:
            starts[scene_id] = default_start_pose(scene)
        findings.extend(validate_sample(key, samples[key], scene, starts[scene_id]))
    return findings


def _sample_word_count(triplet: dict) -> int:
    words = len(triplet["activity"].split())
    return words + sum(len(step["text"].split()) for step in triplet["steps"])


def compute_stats(
    samples: dict[tuple[str, int], dict], scenes: dict[str, SceneModel]
) -> dict:
    """Composition of the samples :func:`load_dataset` returns, as ``stats`` prints it.

    Step-histogram keys are step counts as strings; every histogram is
    in ascending key order.

    Verbs count route-clause heads; actions pair the first token of each
    non-route fragment with the first scene category it names.
    """
    if not samples:
        raise DatasetError("dataset has no samples")
    triplets = samples.values()
    scene_ids = {t["scene_id"] for t in triplets}
    step_counts = Counter(len(t["steps"]) for t in triplets)
    verb_histogram: Counter = Counter()
    action_object: Counter = Counter()
    total_steps = 0
    total_words = 0
    for triplet in triplets:
        total_steps += len(triplet["steps"])
        total_words += _sample_word_count(triplet)
        scene = scenes[triplet["scene_id"]]
        for step in triplet["steps"]:
            for text, clause, is_movement in route.parse_fragments(
                step["text"], scene.fragment_memo
            ):
                if clause is not None:
                    verb_histogram[clause.verb] += 1
                    continue
                if is_movement:
                    continue
                tokens = words_of(text)
                spans = find_category_spans(text, scene.category_matcher)
                if tokens and spans:
                    action_object[(tokens[0], spans[0][1])] += 1
    n = len(samples)
    return {
        "scene_count": len(scene_ids),
        "sample_count": n,
        "instructions_per_scene": n / len(scene_ids),
        "mean_steps": total_steps / n,
        "mean_words": total_words / n,
        "step_histogram": {str(k): c / n for k, c in sorted(step_counts.items())},
        "verb_histogram": dict(sorted(verb_histogram.items())),
        "action_object_histogram": [
            {"action": action, "object": obj, "count": count}
            for (action, obj), count in sorted(action_object.items())
        ],
    }


def dataset_stats(dataset_dir: str | Path) -> dict:
    samples, scenes = load_dataset(dataset_dir)
    return compute_stats(samples, scenes)


_NEED_HINTS = (
    "I want to feel refreshed",
    "I am thirsty after the walk",
    "something smells bad in here",
    "I can never find anything in this room",
    "my guests arrive in ten minutes",
    "I have been on my feet all day",
    "it is freezing in this apartment",
    "the little ones are hungry again",
)

_RECORD_SCHEMA = (
    '{"scene_id": "<scene id>", "instruction": "<implicit instruction>", '
    '"activity": "<activity phrase>", "steps": [{"index": 1, "text": "<step sentence>", '
    '"object_ids": [<ids of mentioned objects>], "is_final": false}, ...]}'
)


def generation_prompts(scene: SceneModel, n: int, seed: int = 0) -> list[str]:
    """Prompts asking a language model to write instruction-plan records.

    Each prompt lists the scene's full object inventory and the record
    schema; the need hint varies per prompt, deterministically from the
    seed.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = random.Random(seed)
    inventory = "\n".join(
        f"  - {o.category} (id {o.id})" for o in sorted(scene.objects, key=lambda o: o.id)
    )
    prompts = []
    for i in range(1, n + 1):
        hint = rng.choice(_NEED_HINTS)
        prompts.append(
            f"You write training data for a household robot assistant.\n"
            f"Scene {scene.scene_id} contains exactly these objects:\n{inventory}\n"
            f"Write one implicit instruction: a need a person might state without "
            f'naming the activity (for example: "{hint}"). Then write the activity '
            f"it implies and a step-by-step plan of 3 to 5 steps using only the "
            f"objects above, with movement described as route clauses such as "
            f'"walk straight ahead to the <object>" or "turn 90 degrees left".\n'
            f"Answer with one JSON object on a single line, following exactly this "
            f"schema:\n{_RECORD_SCHEMA}\n"
            f"Set is_final to true on the last step only. This is request {i} of {n}; "
            f"make it distinct from the others.\n"
        )
    return prompts
