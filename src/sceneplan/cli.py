"""Command-line front end: validate, stats, plan, route-check, evaluate, gen-prompts.

Every command writes exactly one JSON document to stdout; human diagnostics
go to stderr, so stdout of a successful run is always machine-parseable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .dataset import (
    DatasetError,
    dataset_stats,
    findings_to_jsonl,
    generation_prompts,
    sample_key,
    validate_dataset,
)
from .engine import DEFAULT_MAX_STEPS, EpisodeConfig, EpisodeError, episode_to_dict, run_episode
from .generators import (
    DEFAULT_RULES,
    LlmClient,
    LlmEndpointConfig,
    LlmError,
    MissingCategoryError,
    RuleBasedGenerator,
)
from .graph import DEFAULT_K, DEFAULT_MODULATION_WEIGHT, build_graph, graph_to_dict
from .metrics import evaluate_pairs, pair_from_text
from .route import (
    AgentPose,
    RouteError,
    default_start_pose,
    report_to_dict,
    verify_route,
)
from .scene import (
    SceneFormatError,
    SceneInvariantError,
    load_scene,
    load_triplets,
    read_jsonl,
)

PROMPT_SEPARATOR = "\n=== PROMPT {i} ===\n"


_SCALARS = frozenset((str, int, float, bool, type(None)))
_DICT = frozenset((dict,))
# A control character is always escaped inside a JSON string, so in the C
# encoder's output it appears only where it was put as the item separator.
_MARK = "\x00"


@functools.lru_cache(maxsize=None)
def _c_encode(item_separator: str):
    """The C encoder (sorted keys, no NaN) with ``item_separator`` between items."""
    return json.JSONEncoder(
        sort_keys=True, allow_nan=False, separators=(item_separator, ": ")
    ).encode


def _is_leaf(value) -> bool:
    """A plain dict, list or tuple whose every value is a plain scalar."""
    if type(value) is dict:
        value = value.values()
    elif type(value) not in (list, tuple):
        return False
    return _SCALARS.issuperset(map(type, value))


def _is_table(value) -> bool:
    """A plain list or tuple of nonempty leaf dicts (each check a loop in C)."""
    return (
        type(value) in (list, tuple)
        and _DICT.issuperset(map(type, value))
        and all(value)
        and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(map(dict.values, value))))
    )


def _key(key) -> str:
    if isinstance(key, str):
        return _c_encode(",")(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + _c_encode(",")(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _dumps(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` renders it at ``depth``.

    A leaf container is one C call, its indentation folded into the item
    separator.  A table (a list of nonempty leaf dicts) is one C call with ``_MARK``
    between items, replaced afterwards by the indentation of the list (after
    a ``}``) or of the dicts (anywhere else: a leaf dict's values cannot end
    in ``}``).  Only the other containers are walked here.
    """
    if not isinstance(value, (dict, list, tuple)):
        return _c_encode(",")(value)
    is_dict = isinstance(value, dict)
    opening, closing = "{}" if is_dict else "[]"
    if not value:
        return opening + closing
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if _is_leaf(value):
        body = _c_encode("," + inner)(value)[1:-1]
    elif is_dict:
        body = ("," + inner).join(
            _key(key) + ": " + _dumps(item, depth + 1) for key, item in sorted(value.items())
        )
    elif _is_table(value):
        deeper = inner + "  "
        body = _c_encode(_MARK)(value)[2:-2]
        body = body.replace("}" + _MARK + "{", inner + "}," + inner + "{" + deeper)
        body = "{" + deeper + body.replace(_MARK, "," + deeper) + inner + "}"
    else:
        body = ("," + inner).join(_dumps(item, depth + 1) for item in value)
    return opening + inner + body + outer + closing


def _emit(payload: dict) -> None:
    """Print ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``.

    The standard library's encoder gives up its C accelerator when asked to
    indent; :func:`_dumps` prints the same bytes with the C encoder doing
    the bulk.  On failure the standard library runs again, so the exception
    (for a non-finite float, one that names the value) is exactly its own.
    """
    try:
        text = _dumps(payload, 0)
    except (TypeError, ValueError):
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        raise
    print(text)


def _start_pose(args: argparse.Namespace, scene) -> AgentPose:
    heading = 0 if args.start_heading is None else args.start_heading
    if args.start_x is None and args.start_y is None:
        return replace(default_start_pose(scene), heading=heading)
    if args.start_x is None or args.start_y is None:
        raise RouteError("--start-x and --start-y must be given together")
    if not (math.isfinite(args.start_x) and math.isfinite(args.start_y)):
        raise RouteError("--start-x and --start-y must be finite")
    return AgentPose(position=(args.start_x, args.start_y), heading=heading)


def _add_start_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start-x", type=float, default=None,
                        help="start position x in meters (default: free cell nearest grid origin)")
    parser.add_argument("--start-y", type=float, default=None,
                        help="start position y in meters")
    parser.add_argument("--start-heading", type=int, default=None,
                        choices=(0, 90, 180, 270), help="start heading in degrees (default: 0 = +y)")


def cmd_validate(args: argparse.Namespace) -> int:
    findings = validate_dataset(args.dataset_dir)
    if args.out:
        Path(args.out).write_text(findings_to_jsonl(findings), encoding="utf-8")
    for finding in findings:
        print(
            f"{finding.sample_key[0]}/{finding.sample_key[1]}: "
            f"{finding.kind}: {finding.detail}",
            file=sys.stderr,
        )
    _emit({
        "findings": [f.to_dict() for f in findings],
        "count": len(findings),
        "strict": args.strict,
    })
    if args.strict:
        return 1 if findings else 0
    hard = [f for f in findings if f.kind != "implicitness-violation"]
    return 1 if hard else 0


def cmd_stats(args: argparse.Namespace) -> int:
    _emit(dataset_stats(args.dataset_dir).to_dict())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    start_flags = (args.start_x, args.start_y, args.start_heading)
    if args.backend == "llm" and any(flag is not None for flag in start_flags):
        raise LlmError("--start-x, --start-y and --start-heading apply only to --backend rules")
    scene = load_scene(args.scene)
    graph = build_graph(scene, k=args.k)
    if args.backend == "rules":
        generator = RuleBasedGenerator(scene, DEFAULT_RULES, _start_pose(args, scene))
    else:
        if not args.endpoint or not args.model:
            raise LlmError("--backend llm requires --endpoint and --model")
        config = LlmEndpointConfig(base_url=args.endpoint, model_name=args.model)
        generator = LlmClient(config)
    snapshots: list[dict] = []

    def observe(request):
        if args.dump_graph and request.step_index > 1:
            snapshots.append(graph_to_dict(graph))
        return generator(request)

    episode = run_episode(
        scene,
        graph,
        args.instruction,
        observe,
        EpisodeConfig(max_steps=args.max_steps, w_l=args.w_l),
    )
    payload = episode_to_dict(episode)
    if args.dump_graph:
        snapshots.append(graph_to_dict(graph))
        payload["graph_snapshots"] = snapshots
    _emit(payload)
    return 0


def cmd_route_check(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    triplets, warnings = load_triplets(args.triplets, scene)
    for warning in warnings:
        print(f"line {warning.line}: {warning.kind}: {warning.detail}", file=sys.stderr)
    start = _start_pose(args, scene)
    all_ok = True
    results = []
    for triplet in triplets:
        reports = verify_route(triplet.steps, scene, start)
        all_ok = all_ok and all(r.verdict == "ok" for r in reports)
        results.append({
            "instruction": triplet.instruction,
            "reports": [report_to_dict(r) for r in reports],
        })
    _emit({"scene_id": scene.scene_id, "all_ok": all_ok, "routes": results})
    return 0 if all_ok else 1


def _read_keyed_texts(path: str, allow_multi: bool) -> dict[tuple[str, int], list[str]]:
    keyed: dict[tuple[str, int], list[str]] = {}
    for _, where, data in read_jsonl(path):
        if isinstance(data, SceneFormatError):
            raise DatasetError(f"{where}: {data}") from data
        key = sample_key(data, where)
        if key in keyed:
            raise DatasetError(f"{where}: duplicate key {key}")
        if allow_multi and "texts" in data:
            texts = data["texts"]
            if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts) or not texts:
                raise DatasetError(f"{where}: texts must be a nonempty string array")
            keyed[key] = texts
        elif isinstance(data.get("text"), str):
            keyed[key] = [data["text"]]
        else:
            raise DatasetError(f"{where}: record needs a text field")
    if not keyed:
        raise DatasetError(f"{path}: no records")
    return keyed


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = _read_keyed_texts(args.predictions, allow_multi=False)
    references = _read_keyed_texts(args.references, allow_multi=True)
    missing = sorted(set(references) - set(predictions))
    extra = sorted(set(predictions) - set(references))
    if missing or extra:
        raise DatasetError(
            f"prediction/reference key mismatch: missing={missing} extra={extra}"
        )
    pairs = [
        pair_from_text(predictions[key][0], references[key])
        for key in sorted(predictions)
    ]
    _emit(evaluate_pairs(pairs).to_dict())
    return 0


def cmd_gen_prompts(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    prompts = generation_prompts(scene, args.n, seed=args.seed)
    if args.out:
        rendered = "".join(
            PROMPT_SEPARATOR.format(i=i) + p for i, p in enumerate(prompts, start=1)
        )
        Path(args.out).write_text(rendered, encoding="utf-8")
    _emit({"scene_id": scene.scene_id, "n": args.n, "seed": args.seed, "prompts": prompts})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneplan",
        description="Scene-graph task planning and benchmark toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a dataset directory")
    p_validate.add_argument("dataset_dir")
    p_validate.add_argument("--strict", action="store_true",
                            help="nonzero exit on any finding, including implicitness violations")
    p_validate.add_argument("--out", default=None, help="also write findings as JSONL to this file")

    p_stats = sub.add_parser("stats", help="corpus composition statistics")
    p_stats.add_argument("dataset_dir")

    p_plan = sub.add_parser("plan", help="run one planning episode on a scene")
    p_plan.add_argument("--scene", required=True, help="scene JSON file")
    p_plan.add_argument("--instruction", required=True)
    p_plan.add_argument("--backend", choices=("rules", "llm"), default="rules")
    p_plan.add_argument("--k", type=int, default=DEFAULT_K,
                        help="KNN degree for graph construction")
    p_plan.add_argument("--w-l", type=float, default=DEFAULT_MODULATION_WEIGHT,
                        dest="w_l", help="modulation weight factor")
    p_plan.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    p_plan.add_argument("--dump-graph", action="store_true",
                        help="include per-step graph snapshots in the output")
    p_plan.add_argument("--endpoint", default=None, help="LLM service base URL")
    p_plan.add_argument("--model", default=None, help="LLM model name")
    _add_start_flags(p_plan)

    p_route = sub.add_parser("route-check", help="verify triplet routes against a scene")
    p_route.add_argument("--scene", required=True)
    p_route.add_argument("--triplets", required=True, help="triplet JSONL file")
    _add_start_flags(p_route)

    p_eval = sub.add_parser("evaluate", help="score predictions against references")
    p_eval.add_argument("--predictions", required=True, help="JSONL with scene_id, sample_id, text")
    p_eval.add_argument("--references", required=True, help="JSONL with scene_id, sample_id, text or texts")

    p_gen = sub.add_parser("gen-prompts", help="emit dataset generation prompts for a scene")
    p_gen.add_argument("--scene", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="also write prompts as text to this file")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built on the first.

    Parsing leaves the parser as it was: each call gets a new namespace
    filled from the defaults.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; the contract is 0 or 1.
        return 1 if exc.code else 0
    # Looked up by name at each call, so a rebound ``cmd_*`` is the one that runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (
        SceneFormatError,
        SceneInvariantError,
        DatasetError,
        RouteError,
        LlmError,
        MissingCategoryError,
        EpisodeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
