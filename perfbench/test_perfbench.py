"""Tests of the benchmark itself: determinism, quick mode and refusal without a program.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
KITCHEN = ROOT / "tests" / "fixtures" / "kitchen.json"


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _generate(root: Path, seed: int) -> None:
    inputs.make_plan_mix(root / "plan", seed, KITCHEN, quick=True)
    inputs.make_validate_grid(root / "validate", seed, quick=True)
    inputs.make_evaluate_corpus(root / "evaluate", seed, quick=True)


def test_same_seed_writes_identical_files_and_another_seed_does_not(tmp_path):
    _generate(tmp_path / "a", 7)
    _generate(tmp_path / "b", 7)
    _generate(tmp_path / "c", 8)
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


def test_fault_plan_injects_one_fault_in_six_and_every_kind_equally(tmp_path):
    calls = inputs.make_validate_grid(tmp_path, 3, quick=True)
    kinds = Counter(kind for call in calls for plan in call.expected.values() for kind in plan)
    samples = sum(call.samples for call in calls)
    assert set(kinds) == set(tracing.FINDING_KINDS)
    assert len(set(kinds.values())) == 1
    assert sum(kinds.values()) == samples // inputs.FAULT_EVERY


def test_benchmark_json_names_what_the_runner_reports():
    import run

    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_runs_every_workload_with_all_checks(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    per_workload, combined = lines[:-1], lines[-1]
    assert combined["correct"], done.stderr
    assert combined["failed"] == 0
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    for result in per_workload:
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_refuses_to_run_where_only_the_benchmark_is(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "plan_mix", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
