"""Span recorder for the traced run, installed from outside the package.

Each wrapper is bound in place of a name that a calling module looks up at
call time (``cli.build_graph``, ``engine.detect_mentions``,
``metrics.stem``, ...), so the package itself is not edited.  A span is
(name, start, end, parent span, op id); spans stay in memory in flat arrays
and are written out once, at the end of the run.  A layer's self time is its
span minus the part its child spans cover; calls run on one thread, so the
children of a span never overlap and their durations simply add up.  The
CPU-speed probes that interrupt the traced calls run on that thread too, so
each lies wholly inside or outside a span, and a span's duration excludes
the probes inside it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from inputs import FINDING_KINDS

# (module attribute path, span name).  The path names where the caller looks
# the function up; one span name may be installed at several call sites.
HOOKS = (
    ("cli.main", "cli.main"),
    ("cli.cmd_plan", "cli.command"),
    ("cli.cmd_validate", "cli.command"),
    ("cli.cmd_evaluate", "cli.command"),
    ("cli._emit", "cli.emit"),
    ("cli.load_scene", "scene.load_scene"),
    ("dataset.load_scene", "scene.load_scene"),
    ("cli.build_graph", "graph.build_graph"),
    ("graph.knn_ids", "graph.knn_ids"),
    ("engine.serialize_for_prompt", "graph.serialize"),
    ("engine.modulate", "graph.modulate"),
    ("cli.graph_to_dict", "graph.to_dict"),
    ("textmatch.find_category_spans", "textmatch.find_spans"),
    ("cli.run_episode", "engine.run_episode"),
    ("engine.detect_mentions", "engine.detect_mentions"),
    ("cli._start_pose", "generators.start_pose_arg"),
    ("generators.RuleBasedGenerator.__init__", "generators.init"),
    ("generators.RuleBasedGenerator.__call__", "generators.step"),
    ("generators.select_rule", "generators.select_rule"),
    ("cli.default_start_pose", "route.start_pose"),
    ("dataset.default_start_pose", "route.start_pose"),
    ("generators.default_start_pose", "route.start_pose"),
    ("route.nearest_free_cell", "route.nearest_free_cell"),
    ("route.shortest_cell_path", "route.astar"),
    ("dataset.verify_route", "route.verify"),
    ("generators.plan_route", "route.plan_route"),
    ("route.parse_fragments", "route.parse_fragments"),
    ("cli.validate_dataset", "dataset.validate_dataset"),
    ("dataset.load_dataset", "dataset.load"),
    ("dataset.validate_sample", "dataset.validate_sample"),
    ("cli.pair_from_text", "metrics.tokenize"),
    ("metrics.bleu", "metrics.bleu"),
    ("metrics.rouge_l", "metrics.rouge_l"),
    ("metrics.meteor", "metrics.meteor"),
    ("metrics.cider", "metrics.cider"),
    ("metrics.stem", "porter.stem"),
)

SCENEPLAN_MODULES = (
    "sceneplan", "sceneplan.cli", "sceneplan.dataset", "sceneplan.engine",
    "sceneplan.generators", "sceneplan.graph", "sceneplan.metrics", "sceneplan.porter",
    "sceneplan.route", "sceneplan.scene", "sceneplan.textmatch",
)
IMPORT_MODULES = SCENEPLAN_MODULES + ("requests",)

# Per-layer metrics: name -> unit.  Times and counts are per CLI call (op),
# so they do not depend on how many calls fit into the run.
PER_LAYER = {
    "cli.self_ms": "ms/op",
    "cli.stdout_kb": "KiB/op",
    "scene.load_scene_ms": "ms/op",
    "scene.load_scene_calls": "1/op",
    "graph.knn_ids_ms": "ms/op",
    "graph.build_graph_ms": "ms/op",
    "graph.serialize_ms": "ms/op",
    "graph.serialize_calls": "1/op",
    "graph.prompt_chars": "chars/op",
    "graph.modulate_ms": "ms/op",
    "graph.to_dict_ms": "ms/op",
    "textmatch.find_spans_ms": "ms/op",
    "textmatch.find_spans_calls": "1/op",
    "engine.self_ms": "ms/op",
    "engine.detect_mentions_ms": "ms/op",
    "engine.steps": "1/op",
    "generators.init_ms": "ms/op",
    "generators.step_ms": "ms/op",
    "generators.select_rule_ms": "ms/op",
    "route.start_pose_ms": "ms/op",
    "route.start_pose_calls": "1/op",
    "route.start_pose_calls_per_scene": "ratio",
    "route.nearest_free_cell_ms": "ms/op",
    "route.nearest_free_cell_calls": "1/op",
    "route.astar_ms": "ms/op",
    "route.astar_calls": "1/op",
    "route.astar_found_ratio": "ratio",
    "route.astar_path_cells": "cells/path",
    "route.verify_ms": "ms/op",
    "route.plan_route_ms": "ms/op",
    "route.parse_fragments_ms": "ms/op",
    "dataset.load_ms": "ms/op",
    "dataset.validate_sample_self_ms": "ms/op",
    **{f"dataset.findings.{kind}": "1/op" for kind in FINDING_KINDS},
    "metrics.tokenize_ms": "ms/op",
    "metrics.bleu_ms": "ms/op",
    "metrics.rouge_l_ms": "ms/op",
    "metrics.meteor_ms": "ms/op",
    "metrics.cider_ms": "ms/op",
    "porter.stem_calls": "1/op",
    "porter.stem_ms": "ms/op",
    "porter.stem_distinct_ratio": "ratio",
    **{f"setup.import_ms.{module}": "ms" for module in IMPORT_MODULES},
    "trace.throughput_ratio": "ratio",
}

# Layers a workload must never enter; a span under these prefixes fails the run.
ZERO_CALL = {
    "plan_mix": ("metrics.", "porter."),
    "validate_grid": ("graph.", "metrics.", "porter."),
    "evaluate_corpus": ("graph.",),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack: list[int] = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # Facts the spans alone do not carry.
        self.start_pose_scenes: set[tuple[int, str]] = set()
        self.stem_inputs: dict[int, set[str]] = defaultdict(set)
        self.astar_found = 0
        self.astar_cells = 0
        self.prompt_chars = 0
        self.findings: Counter = Counter()

    def wrap(self, span_name: str, fn, observe=None):
        name_id = self._name_ids.setdefault(span_name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span_name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observers(self) -> dict:
        def start_pose(args, result):
            self.start_pose_scenes.add((self.current_op, args[0].scene_id))

        def stem(args, result):
            self.stem_inputs[self.current_op].add(args[0])

        def astar(args, result):
            if result is not None:
                self.astar_found += 1
                self.astar_cells += len(result)

        def serialize(args, result):
            self.prompt_chars += len(result)

        def validate_sample(args, result):
            self.findings.update(f.kind for f in result)

        return {
            "route.start_pose": start_pose,
            "porter.stem": stem,
            "route.astar": astar,
            "graph.serialize": serialize,
            "dataset.validate_sample": validate_sample,
        }

    def install(self, package) -> None:
        """Bind a wrapper at every hook site of the imported ``sceneplan`` package."""
        observers = self._observers()
        for path, span_name in HOOKS:
            module_name, *attrs = path.split(".")
            owner = getattr(package, module_name)
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            self._restore.append((owner, attrs[-1], original))
            setattr(owner, attrs[-1], self.wrap(span_name, original, observers.get(span_name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n")

    def summary(self, probe_starts: list[float], probe_spent: list[float]
                ) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Span count, total seconds and self seconds per span name, net of the probes."""
        probes = sorted(zip(probe_starts, probe_spent))
        starts = [start for start, _ in probes]
        spent_before = list(itertools.accumulate((spent for _, spent in probes), initial=0.0))

        def net(i: int) -> float:
            inside = (spent_before[bisect.bisect_left(starts, self.end[i])]
                      - spent_before[bisect.bisect_left(starts, self.start[i])])
            return self.end[i] - self.start[i] - inside

        n = len(self.name)
        durations = [net(i) for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            span = self.names[self.name[i]]
            duration = durations[i]
            calls[span] += 1
            total[span] += duration
            own[span] += duration - child[i]
        return dict(calls), dict(total), dict(own)


def per_layer_metrics(tracer: Tracer, ops: int, stdout_bytes: int, sampler) -> dict[str, float]:
    """Per-layer metrics of one traced run; setup and overhead are added by the caller."""
    calls, total, own = tracer.summary(sampler.starts, sampler.spent)

    def ms(span: str) -> float:
        return 1000.0 * total.get(span, 0.0) / ops

    def per_op(span: str) -> float:
        return calls.get(span, 0) / ops

    stem_calls = calls.get("porter.stem", 0)
    distinct = sum(len(words) for words in tracer.stem_inputs.values())
    astar_calls = calls.get("route.astar", 0)
    scenes = len(tracer.start_pose_scenes)
    return {
        "cli.self_ms": 1000.0 * (own.get("cli.main", 0.0) + total.get("cli.emit", 0.0)) / ops,
        "cli.stdout_kb": stdout_bytes / 1024 / ops,
        "scene.load_scene_ms": ms("scene.load_scene"),
        "scene.load_scene_calls": per_op("scene.load_scene"),
        "graph.knn_ids_ms": ms("graph.knn_ids"),
        "graph.build_graph_ms": ms("graph.build_graph"),
        "graph.serialize_ms": ms("graph.serialize"),
        "graph.serialize_calls": per_op("graph.serialize"),
        "graph.prompt_chars": tracer.prompt_chars / ops,
        "graph.modulate_ms": ms("graph.modulate"),
        "graph.to_dict_ms": ms("graph.to_dict"),
        "textmatch.find_spans_ms": ms("textmatch.find_spans"),
        "textmatch.find_spans_calls": per_op("textmatch.find_spans"),
        "engine.self_ms": 1000.0 * own.get("engine.run_episode", 0.0) / ops,
        "engine.detect_mentions_ms": ms("engine.detect_mentions"),
        "engine.steps": per_op("generators.step"),
        "generators.init_ms": ms("generators.init") + ms("generators.start_pose_arg"),
        "generators.step_ms": ms("generators.step"),
        "generators.select_rule_ms": ms("generators.select_rule"),
        "route.start_pose_ms": ms("route.start_pose"),
        "route.start_pose_calls": per_op("route.start_pose"),
        "route.start_pose_calls_per_scene": calls.get("route.start_pose", 0) / scenes if scenes else 0.0,
        "route.nearest_free_cell_ms": ms("route.nearest_free_cell"),
        "route.nearest_free_cell_calls": per_op("route.nearest_free_cell"),
        "route.astar_ms": ms("route.astar"),
        "route.astar_calls": per_op("route.astar"),
        "route.astar_found_ratio": tracer.astar_found / astar_calls if astar_calls else 0.0,
        "route.astar_path_cells": tracer.astar_cells / tracer.astar_found if tracer.astar_found else 0.0,
        "route.verify_ms": ms("route.verify"),
        "route.plan_route_ms": ms("route.plan_route"),
        "route.parse_fragments_ms": ms("route.parse_fragments"),
        "dataset.load_ms": ms("dataset.load"),
        "dataset.validate_sample_self_ms": 1000.0 * own.get("dataset.validate_sample", 0.0) / ops,
        **{f"dataset.findings.{kind}": tracer.findings[kind] / ops for kind in FINDING_KINDS},
        "metrics.tokenize_ms": ms("metrics.tokenize"),
        "metrics.bleu_ms": ms("metrics.bleu"),
        "metrics.rouge_l_ms": ms("metrics.rouge_l"),
        "metrics.meteor_ms": ms("metrics.meteor"),
        "metrics.cider_ms": ms("metrics.cider"),
        "porter.stem_calls": stem_calls / ops,
        "porter.stem_ms": ms("porter.stem"),
        "porter.stem_distinct_ratio": distinct / stem_calls if stem_calls else 0.0,
    }


def zero_call_violations(tracer: Tracer, workload: str) -> list[str]:
    calls = Counter(tracer.names[name_id] for name_id in tracer.name)
    banned = ZERO_CALL[workload]
    return sorted(f"{span} called {count} times"
                  for span, count in calls.items() if span.startswith(banned))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Milliseconds per module from ``python -X importtime`` output.

    ``sceneplan`` modules get their self time, so that the split adds up;
    ``requests`` gets its cumulative time, which covers its dependencies.
    """
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the header line
        module = fields[2].strip()
        if module in SCENEPLAN_MODULES:
            out[module] = self_us / 1000.0
        elif module == "requests":
            out[module] = cumulative_us / 1000.0
    return out
