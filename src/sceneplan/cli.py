"""Command-line front end: validate, stats, plan, route-check, evaluate, gen-prompts.

Every command writes exactly one JSON document to stdout; human diagnostics
go to stderr, so stdout of a successful run is always machine-parseable.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from pathlib import Path

from .engine import DEFAULT_MAX_STEPS, EpisodeError, run_episode
from .generators import (
    DEFAULT_RULES,
    LlmClient,
    LlmError,
    RuleBasedGenerator,
)
from .graph import DEFAULT_K, DEFAULT_MODULATION_WEIGHT, build_graph, graph_to_dict
from .route import (
    HEADINGS,
    AgentPose,
    RouteError,
    default_start_pose,
    verify_route,
)
from .scene import DatasetError, SceneFormatError, load_scene, load_triplets, read_jsonl, sample_key

PROMPT_SEPARATOR = "\n=== PROMPT {i} ===\n"
_START_FLAGS = ("--start-x", "--start-y")

# Names that only some commands use, and the submodule each comes from.  Each
# resolves as an attribute of this module when read, so importing the module
# loads only what ``plan`` and ``route-check`` run.  The commands read them, and
# ``main`` its ``cmd_*``, from ``_cli``, so a value set there is the one that runs.
_DEFERRED = {
    "dataset_stats": "dataset",
    "generation_prompts": "dataset",
    "validate_dataset": "dataset",
    "evaluate_pairs": "metrics",
    "pair_from_text": "metrics",
}
# This module as it was imported: ``sceneplan.cli``, or ``__main__`` under ``-m``.
_cli = sys.modules[__name__]


def __getattr__(name: str):
    """Resolve a :data:`_DEFERRED` name from its submodule, importing it on first use."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(getattr(sys.modules[__package__], _DEFERRED[name]), name)


# A control character is always escaped inside a JSON string, so in the C
# encoder's output it appears only where it was put as the item separator.
_MARK = "\x00"
# The C encoder, refusing NaN and infinities, with ``_MARK`` between list items.
_encode = json.JSONEncoder(allow_nan=False, separators=(_MARK, ": ")).encode


def _texts(values: list) -> list[str]:
    """The JSON text of each value, from one C call."""
    return _encode(values)[1:-1].split(_MARK) if values else []


# Where a line of a top-level key's value starts, at each depth of a graph
# snapshot: the value's own closing bracket, a snapshot, a snapshot's keys,
# an edge or node row, a row's fields.
_OUTER, _ITEM, _KEY, _ROW, _FIELD = ("\n" + " " * n for n in (2, 4, 6, 8, 10))


def _rows(lead: str, count: int) -> tuple[list[str], str]:
    """The text before each of ``count`` rows of a list after ``lead``, and after the last row.

    Each row is a dict: the text before it ends where its first key starts,
    and the text after the last row closes the list.
    """
    if not count:
        return [], lead + "[]"
    before = [lead + "[" + _ROW + "{"] + [_ROW + "}," + _ROW + "{"] * (count - 1)
    return before, _ROW + "}" + _KEY + "]"


class _GraphSnapshots:
    """The ``graph_snapshots`` of ``plan --dump-graph``: one graph, its weights at each step.

    :meth:`render` writes the list of :func:`graph_to_dict` snapshots of
    the graph under each recorded pair of weight dicts; only the weights
    change after :func:`build_graph`.  The weights must be positive floats, as
    :func:`modulate` keeps them, so that equal weights print alike.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.weights: list[tuple[dict[int, float], dict[int, float]]] = []

    def record(self) -> None:
        """Keep a copy of the graph's node and out-edge weights as they are now."""
        self.weights.append((self.graph.weights.copy(), self.graph.edge_weights.copy()))

    def _pieces(self) -> tuple[list[str], list[int], list[int]]:
        """One snapshot's text around its weights, and whose weight goes between each two pieces.

        In :func:`graph_to_dict`'s order: the edge rows by ascending src, then
        dst, then ``k``, then the node rows by ascending id, ``"weight"`` last
        in a row.  Returns the text before each weight and, last, the text
        after the last one; the src of each edge; the node ids.  Ids and
        ``k`` are ints; strings and floats go through the C encoder, and a
        non-finite distance raises what ``json.dumps`` raises on
        :func:`graph_to_dict`.
        """
        graph = self.graph
        ids = sorted(graph.categories)
        edges = [(src, dst, kind, distance)
                 for src, out in sorted(graph.edges.items())
                 for dst, (kind, distance) in out.items()]
        try:
            distances = _texts([edge[3] for edge in edges])
        except ValueError:
            # The C encoder's message leaves out the value on Python 3.10
            # and 3.11; the standard library's own encoder names it.
            json.dumps(graph_to_dict(graph), indent=2, allow_nan=False)
            raise
        kinds = _texts([edge[2] for edge in edges])
        categories = _texts([graph.categories[node_id] for node_id in ids])
        before, after = _rows("{" + _KEY + '"edges": ', len(edges))
        pieces = [
            f'{lead}{_FIELD}"distance": {distance},{_FIELD}"dst": {dst},{_FIELD}"kind": {kind},'
            f'{_FIELD}"src": {src},{_FIELD}"weight": '
            for lead, (src, dst, _, _), distance, kind in zip(before, edges, distances, kinds)
        ]
        before, after = _rows(f'{after},{_KEY}"k": {graph.k},{_KEY}"nodes": ', len(ids))
        pieces += [
            f'{lead}{_FIELD}"category": {category},{_FIELD}"id": {node_id},{_FIELD}"weight": '
            for lead, node_id, category in zip(before, ids, categories)
        ]
        pieces.append(after + _ITEM + "}")
        return pieces, [edge[0] for edge in edges], ids

    def render(self, head: str, tail: str) -> str:
        """``head``, then the snapshots, then ``tail``, as one string.

        The snapshots print as ``json.dumps(indent=2, sort_keys=True)``
        prints a top-level key's value.  The text around the weights is
        built once, by :meth:`_pieces`.  Each snapshot's weights, each
        distinct value formatted once, go between those pieces in one list
        that also holds ``head`` and ``tail``, and the list is joined once.
        """
        # Built in its own call, so that the rows and texts it builds the
        # pieces from are freed before the document is.
        pieces, edge_srcs, node_ids = self._pieces()
        # The text around the weights in the even slots, the weights in the odd ones.
        slots = [""] * (2 * len(pieces) - 1)
        slots[0::2] = pieces
        document = [head]
        lead = "[" + _ITEM
        for weights, edge_weights in self.weights:
            distinct = [*{*weights.values(), *edge_weights.values()}]
            texts = dict(zip(distinct, _texts(distinct)))
            slots[1::2] = map(texts.__getitem__, [
                *map(edge_weights.__getitem__, edge_srcs), *map(weights.__getitem__, node_ids)
            ])
            document.append(lead)
            document += slots
            lead = "," + _ITEM
        document += [_OUTER + "]" if self.weights else "[]", tail]
        return "".join(document)


def _emit(payload: dict, snapshots: _GraphSnapshots | None = None) -> None:
    """Print ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``.

    Given ``snapshots``, the payload prints with them as its
    ``graph_snapshots``: the standard library prints it with a null there,
    and :meth:`_GraphSnapshots.render` puts the snapshots between the text
    before and after that top-level null.
    """
    if snapshots is None:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
        return
    text = json.dumps(
        {**payload, "graph_snapshots": None}, indent=2, sort_keys=True, allow_nan=False
    )
    # Quotes and newlines are escaped inside JSON strings, so this text is
    # found only where the payload's own top-level key is.
    slot = '\n  "graph_snapshots": '
    at = text.index(slot + "null") + len(slot)
    print(snapshots.render(text[:at], text[at + len("null"):]))


def _start_pose(args: argparse.Namespace, scene) -> AgentPose:
    heading = 0 if args.start_heading is None else args.start_heading
    if args.start_x is None and args.start_y is None:
        return AgentPose(default_start_pose(scene).position, heading)
    if args.start_x is None or args.start_y is None:
        raise RouteError("--start-x and --start-y must be given together")
    if not (math.isfinite(args.start_x) and math.isfinite(args.start_y)):
        raise RouteError("--start-x and --start-y must be finite")
    return AgentPose(position=(args.start_x, args.start_y), heading=heading)


def _join_start_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``--start-x -1e-3`` written as ``--start-x=-1e-3``.

    argparse takes a separate argument that starts with "-" for an option
    unless it reads like ``-1`` or ``-.5``, so a negative number written
    with an exponent would not reach the flag; joined, it is always a value.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _START_FLAGS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    return joined


def _add_start_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--start-x", type=float, default=None,
                        help="start position x in meters (default: free cell nearest grid origin)")
    parser.add_argument("--start-y", type=float, default=None,
                        help="start position y in meters")
    parser.add_argument("--start-heading", type=int, default=None,
                        choices=HEADINGS, help="start heading in degrees (default: 0 = +y)")


def cmd_validate(args: argparse.Namespace) -> int:
    findings = _cli.validate_dataset(args.dataset_dir)
    rows = [f._asdict() for f in findings]
    if args.out:
        text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        Path(args.out).write_text(text, encoding="utf-8")
    for f in findings:
        print(f"{f.scene_id}/{f.sample_id}: {f.kind}: {f.detail}", file=sys.stderr)
    _emit({
        "findings": rows,
        "count": len(findings),
        "strict": args.strict,
    })
    if args.strict:
        return 1 if findings else 0
    hard = [f for f in findings if f.kind != "implicitness-violation"]
    return 1 if hard else 0


def cmd_stats(args: argparse.Namespace) -> int:
    _emit(_cli.dataset_stats(args.dataset_dir))
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
        generator = LlmClient(base_url=args.endpoint, model_name=args.model)
    snapshots = _GraphSnapshots(graph) if args.dump_graph else None

    def observe(request):
        if snapshots is not None and request.step_index > 1:
            snapshots.record()
        return generator(request)

    episode = run_episode(
        scene, graph, args.instruction, observe, max_steps=args.max_steps, w_l=args.w_l
    )
    if snapshots is not None:
        snapshots.record()
    _emit(episode, snapshots)
    return 0


def cmd_route_check(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    triplets, warnings = load_triplets(args.triplets, scene)
    for line, kind, detail in warnings:
        print(f"line {line}: {kind}: {detail}", file=sys.stderr)
    start = _start_pose(args, scene)
    all_ok = True
    results = []
    for triplet in triplets:
        reports = verify_route(triplet["steps"], scene, start)
        all_ok = all_ok and all(r["verdict"] == "ok" for r in reports)
        results.append({"instruction": triplet["instruction"], "reports": reports})
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
    pair_from_text = _cli.pair_from_text
    pairs = [
        pair_from_text(predictions[key][0], references[key])
        for key in sorted(predictions)
    ]
    _emit(_cli.evaluate_pairs(pairs))
    return 0


def cmd_gen_prompts(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    prompts = _cli.generation_prompts(scene, args.n, seed=args.seed)
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
    """Run one command on ``argv`` (default ``sys.argv[1:]``) and return its exit code, 0 or 1.

    The command runs with the cyclic garbage collector paused: no command
    builds reference cycles that grow with its input, so a collection would
    only walk the objects it allocates.  When the command returns or
    raises, ``main`` restores the collector to the state it found: on again
    only if it was on, so a caller that paused it keeps it paused.  Calls
    from several threads are safe, but one of them may run with collection
    on, since the collector is one per process.  Nothing else changes for a
    caller: the collector's thresholds, the output and the exit code stay
    as they were.
    """
    try:
        args = _parser().parse_args(_join_start_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on a usage error; the contract is 0 or 1.
        return 1 if exc.code else 0
    # Looked up at each call, so a rebound ``cmd_*`` is the one that runs.
    command = getattr(_cli, "cmd_" + args.command.replace("-", "_"))
    collecting = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except (
        DatasetError,
        RouteError,
        LlmError,
        EpisodeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
