"""sceneplan benchmark: seeded inputs, closed-loop CLI workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload plan_mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --quick

Workloads are ``plan_mix``, ``validate_grid`` and ``evaluate_corpus`` (see
README.md next to this file).  Each run writes its inputs from the seed
under ``.perfbench/``, times interpreter start-up in fresh interpreters,
then has a fresh worker process drive ``sceneplan.cli.main`` in a closed
loop and check every output.  With ``--trace 1`` the worker also repeats the
loop with spans recorded around each layer and reports per-layer figures.

A readable report goes to stderr.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict, deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench")
DIGESTS = HERE / "digests.json"
KITCHEN = Path("tests/fixtures/kitchen.json")
ORACLES = Path("tests/oracles.py")

WORKLOADS = ("plan_mix", "validate_grid", "evaluate_corpus")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 170
ORACLE_TOLERANCE = 1e-9

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p95": "ms",
}
# What each generic figure is called on each workload.
ALIASES = {
    "plan_mix": {"items_per_s": "episodes_per_s", "call_ms_p50": "episode_ms_p50",
                 "call_ms_p95": "episode_ms_p95"},
    "validate_grid": {"items_per_s": "samples_per_s"},
    "evaluate_corpus": {"items_per_s": "pairs_per_s"},
}

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ inputs


def build_manifest(workload: str, seed: int, quick: bool, work: Path) -> dict:
    """Write the workload's inputs under ``work`` and describe every call."""
    calls = []
    if workload == "plan_mix":
        for call in inputs.make_plan_mix(work, seed, KITCHEN, quick):
            calls.append({"argv": list(call.argv), "exit": 0, "items": 1, "check": {
                "kind": "plan", "family": call.family, "steps": call.steps,
                "objects": call.objects, "dump_graph": call.dump_graph, "k": call.k}})
    elif workload == "validate_grid":
        for call in inputs.make_validate_grid(work, seed, quick):
            calls.append({"argv": list(call.argv), "exit": 1, "items": call.samples,
                          "check": {"kind": "validate", "expected": call.expected}})
    else:
        for call in inputs.make_evaluate_corpus(work, seed, quick):
            calls.append({"argv": list(call.argv), "exit": 0, "items": call.pairs, "check": {
                "kind": "evaluate", "pairs": call.pairs,
                "predictions": call.predictions, "references": call.references}})
    return {"workload": workload, "src": "src", "calls": calls}


def digest_key(workload: str, quick: bool) -> str:
    return f"{workload}/quick" if quick else workload


# ------------------------------------------------------------------- setup


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)


def measure_setup(repeats: int) -> list[tuple[float, float]]:
    """(seconds to ``import sceneplan.cli``, the same at nominal CPU speed) in fresh interpreters.

    A ``Sampler`` probes the CPU speed during the import.  One untimed
    import first fills the bytecode cache.
    """
    code = (f"import sys, time; sys.path[:0] = ['src', {str(HERE)!r}]; "
            "from probe import Sampler; s = Sampler(); s.start(); m = s.mark(); "
            "t = time.perf_counter(); import sceneplan.cli; d = time.perf_counter() - t; "
            "n = s.mark(); s.stop(); print(d, s.nominal_ms(m, n, d) / 1000.0)")
    _python(code)
    return [tuple(map(float, _python(code).stdout.split())) for _ in range(repeats)]


def measure_import_split(repeats: int) -> dict[str, float]:
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        done = _python("import sys; sys.path.insert(0, 'src'); import sceneplan.cli",
                       "-X", "importtime")
        for module, ms in tracing.parse_importtime(done.stderr).items():
            samples[module].append(ms)
    return {module: statistics.median(samples[module]) if samples[module] else 0.0
            for module in tracing.IMPORT_MODULES}


# ------------------------------------------------------------------ worker


def run_worker(manifest_path: Path, seconds: float, trace: int, spans: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
           "--seconds", repr(seconds), "--trace", str(trace), "--spans", str(spans)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------- oracles


def _greedy_meteor(cand: list[str], ref: list[str], stem) -> float:
    """METEOR-es with greedy alignment, written from the metrics module's definition.

    The exhaustive oracle in tests/oracles.py is exponential in repeated
    tokens and cannot score ~77-word texts, so METEOR is checked against
    this re-derivation instead: per stage (exact, then stem), each candidate
    token in order takes the first still-unmatched reference position with
    the same key.
    """
    links: list[tuple[int, int]] = []
    used_c: set[int] = set()
    used_r: set[int] = set()
    for key in (lambda t: t, stem):
        free: dict[str, deque] = defaultdict(deque)
        for j, token in enumerate(ref):
            if j not in used_r:
                free[key(token)].append(j)
        for i, token in enumerate(cand):
            if i in used_c:
                continue
            queue = free.get(key(token))
            if queue:
                j = queue.popleft()
                used_c.add(i)
                used_r.add(j)
                links.append((i, j))
    if not links:
        return 0.0
    links.sort()
    chunks = 1 + sum(1 for a, b in zip(links, links[1:])
                     if b[0] != a[0] + 1 or b[1] != a[1] + 1)
    m = len(links)
    p, r = m / len(cand), m / len(ref)
    return 10 * p * r / (r + 9 * p) * (1 - 0.5 * (chunks / m) ** 3)


def oracle_errors(manifest: dict, reports: dict[str, str]) -> dict[int, str]:
    """Compare each evaluate report with independent implementations of its metrics."""
    sys.path.insert(0, str(ORACLES.parent.resolve()))
    sys.path.insert(0, str(Path(manifest["src"]).resolve()))
    import oracles
    from sceneplan.porter import stem

    errors: dict[int, str] = {}
    for index, call in enumerate(manifest["calls"]):
        check = call["check"]
        if str(index) not in reports:
            continue
        preds = _keyed(Path(check["predictions"]), "text")
        refs = _keyed(Path(check["references"]), "texts")
        keys = sorted(preds)
        cands = [oracles.oracle_tokens(preds[k]) for k in keys]
        references = [[oracles.oracle_tokens(t) for t in refs[k]] for k in keys]
        # The oracles take seconds per corpus; their values depend only on the
        # corpus and on tests/oracles.py, so they are kept for repeated seeds.
        key = hashlib.sha256(json.dumps([cands, references]).encode()
                             + ORACLES.read_bytes()).hexdigest()
        cached = WORK / "oracle-cache" / f"{key}.json"
        if cached.exists():
            expected = json.loads(cached.read_text(encoding="utf-8"))
        else:
            expected = {
                "bleu": [oracles.oracle_bleu(cands, references, n) for n in range(1, 5)],
                "rouge_l": oracles.oracle_rouge_l(cands, references),
                "cider": oracles.oracle_cider(cands, references),
            }
            cached.parent.mkdir(parents=True, exist_ok=True)
            cached.write_text(json.dumps(expected), encoding="utf-8")
        expected["meteor"] = sum(max(_greedy_meteor(c, r, stem) for r in rs)
                                 for c, rs in zip(cands, references)) / len(cands)
        try:
            got = json.loads(reports[str(index)])
            wrong = [f"{name} {got[name]} differs from the oracle's {want}"
                     for name, want in expected.items() if not _close(got[name], want)]
        except (KeyError, TypeError, ValueError) as exc:
            wrong = [f"unreadable report: {exc!r}"]
        if wrong:
            errors[index] = "; ".join(wrong)
    return errors


def _close(have, want) -> bool:
    if isinstance(want, list):
        return len(have) == len(want) and all(map(_close, have, want))
    return abs(have - want) <= ORACLE_TOLERANCE


def _keyed(path: Path, field: str) -> dict:
    records = (json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())
    return {(r["scene_id"], r["sample_id"]): r[field] for r in records}


# ----------------------------------------------------------------- metrics


# Fields of an op: [call index, ms, error, ms at nominal CPU speed].
RAW_FIELD, NOMINAL_FIELD = 1, 3


def call_medians(ops: list[list], field: int = NOMINAL_FIELD) -> dict[int, float]:
    """Median duration (ms) of each distinct call over its successful repeats.

    CPU speed on a shared machine drifts by tens of percent within seconds;
    a median per call keeps a slow spell within the run from moving the
    figures built on it.
    """
    durations: dict[int, list[float]] = defaultdict(list)
    for op in ops:
        if op[2] is None:
            durations[op[0]].append(op[field])
    return {index: statistics.median(d) for index, d in durations.items()}


def latency_figures(ops: list[list], field: int = NOMINAL_FIELD) -> tuple[float, float, int]:
    """p50 and nearest-rank p95 over the cycle's calls, each at its median; calls beyond p95.

    Every run does whole cycles, so each call weighs the same in every run.
    """
    medians = sorted(call_medians(ops, field).values())
    if not medians:
        return math.nan, math.nan, 0
    p95 = medians[math.ceil(0.95 * len(medians)) - 1]
    beyond = sum(1 for op in ops if op[2] is None and op[field] > p95)
    return statistics.median(medians), p95, beyond


def throughput(ops: list[list], calls: list[dict], field: int = NOMINAL_FIELD) -> float:
    """Items per second of CLI time: items in a cycle over the sum of call medians."""
    medians = call_medians(ops, field)
    seconds = sum(medians.values()) / 1000.0
    return sum(calls[index]["items"] for index in medians) / seconds if seconds else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool,
                 record: bool) -> dict:
    tag = f"{workload}-s{seed}{'-quick' if quick else ''}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = build_manifest(workload, seed, quick, work)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    if seed == DEFAULT_SEED and not record:
        golden = recorded.get(digest_key(workload, quick))
        if golden is None:
            raise BenchError(f"{DIGESTS.name} has no digests for {digest_key(workload, quick)}")
        manifest["golden"] = golden
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    setup = [] if trace else measure_setup(3 if quick else SETUP_REPEATS)
    result = run_worker(manifest_path, seconds, trace, work / "spans.tsv")
    calls = manifest["calls"]
    errors = {w["call"]: w["error"] for w in result["warmup"] if w["error"]}
    if workload == "evaluate_corpus":
        reports = {i: r for i, r in result["reports"].items() if int(i) not in errors}
        errors.update(oracle_errors(manifest, reports))
    timed = result["ops"] + result.get("traced_ops", [])
    failed_timed = sum(1 for index, _, error, _ in timed if error or index in errors)
    attempted = len(calls) + len(timed)
    failed = len(errors) + failed_timed
    problems = [f"call {i} ({' '.join(calls[i]['argv'][:2])}): {e}" for i, e in sorted(errors.items())]
    problems += [f"timed call {i}: {e}" for i, _, e, _ in timed if e][:5]
    problems += result.get("zero_call_violations", [])
    correct = failed == 0 and not result.get("zero_call_violations")

    # Op times are at nominal CPU speed, from the probes taken during each call.
    # Per-layer times are scaled by the traced loop's median probe: speed > 1
    # means the CPU ran slower than nominal, so measured times are divided by it.
    speed = statistics.median(result["probes"]) / probe.NOMINAL_MS
    p50, p95, beyond = latency_figures(result["ops"])
    rate = throughput(result["ops"], calls)
    if trace:
        traced_speed = statistics.median(result["traced_probes"]) / probe.NOMINAL_MS
        values = {name: value / traced_speed if tracing.PER_LAYER[name] == "ms/op" else value
                  for name, value in result["per_layer"].items()}
        for module, ms in measure_import_split(1 if quick else IMPORTTIME_REPEATS).items():
            values[f"setup.import_ms.{module}"] = ms
        traced_rate = throughput(result["traced_ops"], calls)
        values["trace.throughput_ratio"] = traced_rate / rate if rate else 0.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(nominal for _, nominal in setup),
            "peak_rss_mb": result["rss_kb"] / 1024.0,
            "items_per_s": rate,
            "call_ms_p50": p50,
            "call_ms_p95": p95,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    if record and not problems:
        recorded[digest_key(workload, quick)] = [w["digest"] for w in result["warmup"]]
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    facts = {
        "calls per cycle": len(calls),
        "timed calls": len(result["ops"]),
        "calls beyond p95": beyond,
        "fail_ratio": f"{failed}/{attempted}",
        "probe speed factor": f"{speed:.4f} (probe median / {probe.NOMINAL_MS} ms)",
    }
    if not trace:
        raw_p50, raw_p95, _ = latency_figures(result["ops"], RAW_FIELD)
        facts["unscaled"] = (f"setup_s {statistics.median(s for s, _ in setup):.4f}  "
                             f"items_per_s {throughput(result['ops'], calls, RAW_FIELD):.4f}  "
                             f"call_ms_p50 {raw_p50:.4f}  call_ms_p95 {raw_p95:.4f}")
    report(workload, seed, metrics, trace, facts, problems)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def report(workload: str, seed: int, metrics: dict, trace: int, facts: dict,
           problems: list[str]) -> None:
    out = sys.stderr
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})", file=out)
    aliases = ALIASES[workload]
    for name, metric in metrics.items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"  {name:<42} {metric['value']:>14.4f} {metric['unit']}{alias}", file=out)
    for name, value in facts.items():
        print(f"  {name}: {value}", file=out)
    for problem in problems:
        print(f"  FAILED: {problem}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sceneplan benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed loop length (default 25, or one cycle with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one timed cycle, all checks on")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store the stdout digests of seed {DEFAULT_SEED} in {DIGESTS.name}")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (0.0 if args.quick else 25.0)

    os.chdir(ROOT)
    try:
        for needed in (Path("src/sceneplan/cli.py"), KITCHEN, ORACLES):
            if not needed.is_file():
                raise BenchError(f"{needed} not found under {ROOT}: run from a sceneplan checkout")
        if args.record_digests and args.seed != DEFAULT_SEED:
            raise BenchError(f"digests are recorded for seed {DEFAULT_SEED} only")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            start = time.perf_counter()
            results[workload] = run_workload(workload, args.seed, seconds, args.trace,
                                             args.quick, args.record_digests)
            print(f"  run took {time.perf_counter() - start:.1f} s", file=sys.stderr)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        for workload, result in results.items():
            print(json.dumps({"workload": workload, **result}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
