#!/usr/bin/env python3
"""Smoke self-test of the benchmark: ``python3 perfbench/selftest.py``.

Checks, at tiny sizes (n <= 4, M = 2,1), that every workload runs untraced
and traced and prints every metric with its unit; that the traced layer
functions are functions of their own modules; that the output gate flags a
wrong digest; that a timed-out ``--jobs 2`` invocation leaves no process of
its group behind; that a command's max-RSS does not include the runner's;
that the speed probe samples and ends; and that the benchmark refuses to run
without sources.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time

import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_benchmark_json() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    end_to_end = dict(run.END_TO_END)
    for metric in BENCHMARK["end_to_end"]:
        assert end_to_end[metric["name"]] == metric["unit"], metric
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


def check_targets() -> None:
    sys.path.insert(0, str(run.SRC))
    modules = tracer.layer_modules()
    for name, module in modules.items():
        assert module.__name__ == f"bruhatops.{name}", module
    # raises unless every target is a function of its intended module
    assert len(tracer.resolve_targets(modules)) == len(tracer.TARGETS)


def check_gate() -> None:
    inv = "verify --suite snf --n 4"
    want = json.loads(run.EXPECTED.read_text())
    good = {k: want[inv][k] for k in ("sha256", "ok", "checked")}
    assert run.judge(inv, 0, good, False, want) == "ok"
    assert run.judge(inv, 0, {**good, "sha256": "0"}, False, want).startswith("wrong output")
    assert run.judge(inv, 0, {**good, "checked": 1}, False, want).startswith("wrong output")
    assert run.judge(inv, 1, good, False, want).startswith("wrong output")
    assert run.judge(inv, None, good, True, want) == "timeout"


def check_kill() -> None:
    o = run.spawn(run.cli_cmd("verify --suite delta-action --n 6 --force --jobs 2"), 1.5,
                  run.cli_env())
    assert o.timed_out and o.wall == 1.5
    # killed pool workers are orphans; give their new parent time to reap them
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(o.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError("processes of the killed invocation are still running")


def check_rss_floor() -> None:
    ballast = b"x" * (100 << 20)
    runner_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    o = run.spawn([sys.executable, "-c", "pass"], 60.0)
    assert o.rc == 0 and o.maxrss_kb < 40 << 10 and runner_kb > 100 << 10, (o, runner_kb)
    del ballast


def check_probe() -> None:
    probe = run.Probe()
    time.sleep(0.5)
    samples = probe.stop()
    assert probe.proc.poll() is not None
    assert len(samples) >= 5 and all(d > 0 for d in samples), samples


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_workloads() -> None:
    names = {
        0: [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            result = last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert {k for k, _ in names[trace]} == set(result["metrics"])
            for name, unit in names[trace]:
                assert result["metrics"][name]["unit"] == unit, (workload, name)
            printed = [line.split() for line in proc.stdout.splitlines()]
            units = run.END_TO_END if trace == 0 else run.PER_LAYER_UNITS.items()
            for name, unit in units:
                assert any(row[:1] == [name] and row[-1:] == [unit] for row in printed), name
            print(f"ok: {workload} --trace {trace}")


def check_refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "snf", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=60,
        )
        assert proc.returncode != 0 and "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for check in (check_benchmark_json, check_targets, check_gate, check_kill, check_rss_floor,
                  check_probe, check_refuses_without_sources, check_workloads):
        check()
        print(f"ok: {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
