"""The CLI's stdout on the benchmark's smoke invocations, and on every full
invocation with a recorded digest, stays byte-identical to the digests in
perfbench/expected.json.  Invocations recorded without a digest (they do not
finish within their workload's timeout) are left out by that rule."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from bruhatops.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_benchmark():
    # run.py imports its sibling tracer.py by module name, and its
    # dataclasses look their module up in sys.modules
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


BENCH = _load_benchmark()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())
SMOKE = [inv for workload in BENCH.WORKLOADS.values() for inv in workload.smoke]
FULL = [
    inv
    for workload in BENCH.WORKLOADS.values()
    for inv in workload.invocations
    if "sha256" in EXPECTED[inv]
]


def _assert_matches_recorded_digest(capsys, invocation):
    code = main(invocation.split())
    summary = BENCH.summarize(capsys.readouterr().out.encode())
    want = EXPECTED[invocation]
    assert code == 0
    assert summary["checked"] == want["checked"]
    assert summary["sha256"] == want["sha256"]


@pytest.mark.parametrize("invocation", SMOKE)
def test_smoke_stdout_matches_recorded_digest(capsys, invocation):
    _assert_matches_recorded_digest(capsys, invocation)


@pytest.mark.parametrize("invocation", FULL)
def test_full_stdout_matches_recorded_digest(capsys, invocation):
    _assert_matches_recorded_digest(capsys, invocation)
