"""Closed-loop worker: runs one workload's CLI calls in-process and checks each output.

Started by ``run.py`` as a fresh interpreter, so that its peak RSS is the
workload's.  It reads the manifest ``run.py`` wrote, imports ``sceneplan``
from the checkout's ``src/``, runs every call once as a fully checked
warm-up, then repeats whole cycles of calls through ``sceneplan.cli.main``
until the run time is spent: one call at a time, the next sent when the
previous returns.  Every timed call is checked against the verified warm-up
output of the same call.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from probe import Sampler


def check_plan(check: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(out)
    if payload["terminated_by"] != "end-token":
        return f"terminated_by {payload['terminated_by']!r}"
    steps = payload["steps"]
    if [s["index"] for s in steps] != list(range(1, check["steps"] + 1)):
        return f"{len(steps)} steps, the {check['family']} rule scripts {check['steps']}"
    snapshots = payload.get("graph_snapshots")
    if not check["dump_graph"]:
        return None if snapshots is None else "graph snapshots without --dump-graph"
    if snapshots is None or len(snapshots) != len(steps):
        return "one graph snapshot per step expected"
    n = check["objects"]
    edges = n * min(check["k"], n - 1)
    for snapshot in snapshots:
        if len(snapshot["nodes"]) != n or len(snapshot["edges"]) != edges:
            return f"snapshot has {len(snapshot['nodes'])} nodes, {len(snapshot['edges'])} edges"
    return None


def check_validate(check: dict, rc: int, out: str) -> str | None:
    if rc != 1:
        return f"exit code {rc}; the injected faults must fail validation"
    payload = json.loads(out)
    found: dict[str, Counter] = {}
    for finding in payload["findings"]:
        key = f"{finding['scene_id']}/{finding['sample_id']}"
        found.setdefault(key, Counter())[finding["kind"]] += 1
    found_plain = {key: dict(kinds) for key, kinds in found.items()}
    if payload["count"] != len(payload["findings"]) or found_plain != check["expected"]:
        wrong = sorted(key for key in set(found_plain) | set(check["expected"])
                       if found_plain.get(key) != check["expected"].get(key))
        return f"findings differ from the fault plan at {wrong[:5]}"
    return None


def check_evaluate(check: dict, rc: int, out: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(out)
    if payload["pair_count"] != check["pairs"]:
        return f"pair_count {payload['pair_count']} != {check['pairs']}"
    return None  # scores are compared with the oracles by run.py


CHECKS = {"plan": check_plan, "validate": check_validate, "evaluate": check_evaluate}


def call_cli(cli, argv: list[str], sampler: Sampler | None = None) -> tuple[int, str, float, float]:
    """(exit code, stdout, seconds, ms at nominal CPU speed, or 0 without a sampler)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        first = sampler.mark() if sampler else 0
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
        last = sampler.mark() if sampler else 0
    nominal = sampler.nominal_ms(first, last, elapsed) if sampler else 0.0
    return rc, out.getvalue(), elapsed, nominal


def run_cycles(cli, calls: list[dict], digests: list[str | None], seconds: float,
               sampler: Sampler, tracer=None) -> tuple[list[list], int]:
    """Whole cycles of calls until ``seconds`` have passed; (ops, stdout bytes).

    An op is [call index, ms, error, ms at nominal CPU speed]; ``sampler``
    probes the CPU speed during every call.
    """
    ops: list[list] = []
    stdout_bytes = 0
    deadline = time.perf_counter() + seconds
    sampler.start()
    try:
        while True:
            for index, call in enumerate(calls):
                if tracer is not None:
                    tracer.current_op = len(ops)
                try:
                    rc, out, elapsed, nominal = call_cli(cli, call["argv"], sampler)
                except Exception as exc:  # an uncaught error is a failed op, not a crash
                    ops.append([index, 0.0, f"{type(exc).__name__}: {exc}", 0.0])
                    continue
                stdout_bytes += len(out.encode())
                ok = (rc == call["exit"]
                      and digests[index] == hashlib.sha256(out.encode()).hexdigest())
                ops.append([index, elapsed * 1000.0,
                            None if ok else "output differs from warm-up", nominal])
            if time.perf_counter() >= deadline:
                return ops, stdout_bytes
    finally:
        sampler.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    src = Path(manifest["src"]).resolve()
    sys.path.insert(0, str(src))
    import sceneplan
    from sceneplan import cli

    if Path(sceneplan.__file__).resolve().parent != src / "sceneplan":
        raise SystemExit(f"imported sceneplan from {sceneplan.__file__}, not {src}")

    calls = manifest["calls"]
    golden = manifest.get("golden")
    warmup = []
    digests: list[str | None] = []
    reports = {}
    for index, call in enumerate(calls):
        rc, out, elapsed, _ = call_cli(cli, call["argv"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        try:
            error = CHECKS[call["check"]["kind"]](call["check"], rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is None and golden is not None and golden[index] != digest:
            error = "stdout digest differs from the one recorded for this seed"
        warmup.append({"call": index, "ms": elapsed * 1000.0, "error": error, "digest": digest})
        digests.append(digest if error is None else None)
        if call["check"]["kind"] == "evaluate":
            reports[index] = out

    sampler = Sampler()
    ops, _ = run_cycles(cli, calls, digests, args.seconds, sampler)
    result = {
        "warmup": warmup,
        "ops": ops,
        "probes": sampler.samples,
        "reports": reports,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        from tracing import Tracer, per_layer_metrics, zero_call_violations

        tracer = Tracer()
        traced = Sampler()
        tracer.install(sceneplan)
        try:
            traced_ops, stdout_bytes = run_cycles(cli, calls, digests, args.seconds,
                                                  traced, tracer)
        finally:
            tracer.uninstall()
        if args.spans:
            tracer.write(Path(args.spans))
        result["traced_ops"] = traced_ops
        result["traced_probes"] = traced.samples
        result["per_layer"] = per_layer_metrics(tracer, len(traced_ops), stdout_bytes, traced)
        result["zero_call_violations"] = zero_call_violations(tracer, manifest["workload"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
