"""The CLI's stdout on the benchmark's smoke invocations, and on every full
invocation with a recorded digest, stays byte-identical to the digests in
perfbench/expected.json.  The full invocations recorded without a digest
(they once ran past their workload's kill timeout, so no stdout was
recorded) must exit 0 with ``ok: true`` and the recorded ``checked``."""

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
UNDIGESTED = [
    inv
    for workload in BENCH.WORKLOADS.values()
    for inv in workload.invocations
    if "sha256" not in EXPECTED[inv]
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


def test_undigested_invocations_are_the_two_former_hangs():
    assert {inv: EXPECTED[inv]["checked"] for inv in UNDIGESTED} == {
        "verify --suite snf --n 5 --from 3 --to 6": 4,
        "verify --suite chains-snf --M 4,3,3,2,2 --from 3 --to 7": 1,
    }


@pytest.mark.parametrize("invocation", UNDIGESTED)
def test_undigested_invocation_passes_with_recorded_count(capsys, invocation):
    code = main(invocation.split())
    summary = BENCH.summarize(capsys.readouterr().out.encode())
    want = EXPECTED[invocation]
    assert code == 0
    assert want["ok"] is True
    assert summary["ok"] is True
    assert summary["checked"] == want["checked"]
