"""Smoke test of the benchmark itself (n = 2000, a few calls each).

Checks the contract between BENCHMARK.json and the command: every
metric named there is printed with its unit, the single-workload mode
prints exactly the result object, the trace wrappers leave no binding
behind, and the command refuses to run without the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [path for path in (str(ROOT), str(ROOT / "src"))
                if path not in sys.path]

from benchmarks.suite import trace  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_command(*arguments, cwd=ROOT, command=None):
    command = command or [sys.executable, str(SUITE / "run.py")]
    return subprocess.run(command + list(arguments), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_suite_prints_every_metric_with_its_unit():
    done = run_command("--smoke", "--seed", "3")
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert summary["problems"] == []
    for workload in CONTRACT["workloads"]:
        (entry,) = summary["results"][workload["name"]]
        assert entry["correct"] and entry["failed"] == 0
        for table in ("end_to_end", "per_layer"):
            for metric in CONTRACT[table]:
                assert NAME.fullmatch(metric["name"])
                assert summary["units"][metric["name"]] == metric["unit"]
                assert isinstance(entry[table][metric["name"]], float)
        assert all(value > 0 for value in entry["end_to_end"].values())
        assert entry["per_layer"]["trace.overhead_ratio"] > 0


def test_single_workload_prints_exactly_the_result_object():
    for traced, table in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_command("--workload", "single_100k", "--seed", "4",
                           "--seconds", "1", "--trace", traced, "--smoke")
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in CONTRACT[table]}
        for metric in CONTRACT[table]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_trace_wrappers_are_removed():
    tracer = trace.Tracer()
    dotted = [path for _, path, _ in trace.TARGETS] + \
             [path for _, path in trace.FUTURE_TARGETS]
    bindings = [trace.resolve(path) for path in dotted]
    before = [vars(owner)[attribute] for owner, attribute in bindings]
    tracer.install()
    patched = tracer.patched_attributes()
    assert len(patched) >= len(bindings)  # aliases are rebound too
    assert all(vars(owner)[attribute] is not original
               for owner, attribute, original in patched)
    tracer.uninstall()
    assert all(vars(owner)[attribute] is original
               for owner, attribute, original in patched)
    after = [vars(owner)[attribute] for owner, attribute in bindings]
    assert all(a is b for a, b in zip(before, after))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_command("--workload", "single_100k", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path,
                       command=CONTRACT["command"])
    assert done.returncode != 0
    assert done.stdout.strip() == ""
