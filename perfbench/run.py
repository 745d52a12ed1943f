#!/usr/bin/env python3
"""Benchmark of the ``bruhatops`` command line, end to end and per layer.

    python3 perfbench/run.py --workload {operators,paths,snf,all} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it needs only the standard
library and imports ``bruhatops`` from ``src/`` of that checkout.

A workload is a fixed list of CLI invocations (``WORKLOADS``); the seed only
permutes their order.  Each invocation runs as its own subprocess, in its
own session, and is killed with its whole process group at the workload's
kill timeout.  ``perfbench/launch.py`` starts it and reports its usage.  Its
stdout is checked against ``perfbench/expected.json``.

``--trace 0`` runs passes over the invocations, serially and closed-loop,
until ``--seconds`` is used up (at least one pass), with a few ``bruhatops
--help`` spawns before each invocation (``setup_s``).

The speed of the machine drifts by up to 1.5x over minutes, and every
invocation drifts with it.  So times are scaled to a machine of fixed speed.
``perfbench/probe.py`` runs beside the passes and times a sliver of fixed
pure-Python work every 20 ms; each time below is multiplied by
NOMINAL_PROBE_S over the median of the run's probe samples.  The unscaled
figures are printed and kept in the result file.  Reported per workload:

    wall_s         s      sum of spawn-to-exit wall time over the pass's
                          invocations, scaled; a killed one counts at the
                          kill timeout, unscaled (median over passes)
    checked_per_s  1/s    sum of the reports' ``checked`` over the passed
                          invocations, divided by wall_s (median over passes)
    fail_ratio     ratio  failed / attempted; failed = killed at the timeout,
                          nonzero exit, ``ok`` not true, or stdout not as
                          recorded ("wrong output")
    setup_s        s      median wall time of ``python -m bruhatops.cli --help``
                          over all its spawns in the run, scaled
    peak_rss_mb    MB     largest max-RSS of any CLI process, pool workers
                          included, from the rusage of each waited child

``--trace 1`` runs one untraced pass, then re-runs every invocation under
``perfbench/tracer.py`` and reports each layer's self time and counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file, and for traced
runs a spans file, go to ``perfbench/out/``.  The exit code is 1 on any
wrong output and 2 when the checkout has no ``src/bruhatops``.
``--record`` re-records ``expected.json`` from the current program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
LAUNCH = HERE / "launch.py"
PROBE = HERE / "probe.py"

SETUP_SPAWNS_PER_INVOCATION = 2
TRACE_KILL_TIMEOUT = 150.0
# Seconds a perfbench/probe.py sample takes at the speed wall times are
# scaled to: about its median during runs on a 2-vCPU Xeon VM, Python 3.11.7.
NOMINAL_PROBE_S = 0.001
LAUNCHER_GRACE = 30.0  # beyond the timeout, before the launcher itself is killed


@dataclass(frozen=True)
class Workload:
    kill_timeout: float
    invocations: tuple[str, ...]
    smoke: tuple[str, ...]  # tiny sizes, for perfbench/selftest.py


# Why each workload exists is in BENCHMARK.json.  The two snf invocations
# past the sampled windows hang at the time of writing; they stay, so the SNF
# blow-up shows in fail_ratio instead of being sized away.
WORKLOADS = {
    "operators": Workload(
        kill_timeout=60.0,
        invocations=(
            "verify --suite delta-action --n 6 --force --jobs 2",
            "verify --suite sl2 --n 6 --force",
            "verify --suite nabla-action --n 5",
        ),
        smoke=(
            "verify --suite delta-action --n 4 --jobs 2",
            "verify --suite sl2 --n 4",
            "verify --suite nabla-action --n 3",
        ),
    ),
    "paths": Workload(
        kill_timeout=60.0,
        invocations=(
            "verify --suite macdonald --n 7 --force",
            "verify --suite w0-symmetry --n 7 --force",
            "verify --suite path-identities --n 6",
            "hasse --n 7 --order weak --weights nabla --format dot",
        ),
        smoke=(
            "verify --suite macdonald --n 4",
            "verify --suite w0-symmetry --n 4",
            "verify --suite path-identities --n 4",
            "hasse --n 4 --order weak --weights nabla --format dot",
        ),
    ),
    "snf": Workload(
        kill_timeout=10.0,
        invocations=(
            "verify --suite snf --n 5",
            "verify --suite snf --n 5 --from 3 --to 6",
            "verify --suite snf --n 4",
            "verify --suite chains-snf --M 3,3,2,2",
            "verify --suite chains-snf --M 4,3,3,2,2 --from 2 --to 9",
            "verify --suite chains-snf --M 4,3,3,2,2 --from 3 --to 7",
            "verify --suite chains-det --M 4,4,3,3,2",
            "verify --suite chains-basis --M 4,4,3,3,2",
        ),
        smoke=(
            "verify --suite snf --n 4 --from 1 --to 3",
            "verify --suite snf --n 3",
            "verify --suite chains-snf --M 2,1",
            "verify --suite chains-det --M 2,1",
            "verify --suite chains-basis --M 2,1",
        ),
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("checked_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# span name -> per-layer metric of its summed self time
SELF_TIME_METRICS = {
    "permutations.enumerate": "permutations.enumerate_s",
    "permutations.covers": "permutations.covers_s",
    "hasse.build": "hasse.build_s",
    "hasse.w0_check": "hasse.w0_check_s",
    "hasse.emit": "hasse.emit_s",
    "hasse.path_dp": "hasse.path_dp_s",
    "hasse.layer_matrix": "hasse.layer_matrix_s",
    "schubert.table": "schubert.table_s",
    "schubert.basis_inverse": "schubert.basis_inverse_s",
    "schubert.apply": "schubert.apply_s",
    "schubert.expand": "schubert.expand_s",
    "operators.differential_layer": "operators.differential_layer_s",
    "operators.suite": "operators.suite_self_s",
    "snf.snf": "snf.snf_s",
    "snf.det": "snf.det_s",
    "chains.layer": "chains.layer_s",
    "chains.basis": "chains.basis_s",
    "cli.main": "cli.main_self_s",
}
CALL_COUNTS = {
    "hasse.path_dp": "hasse.path_dp_calls",
    "schubert.expand": "schubert.expand_calls",
    "snf.snf": "snf.snf_calls",
    "snf.det": "snf.det_calls",
}
# counters the tracer reports per process: summed or maximised
SUMMED_COUNTERS = ("hasse.edges", "schubert.table_terms")
MAX_COUNTERS = (
    "permutations.vertices",
    "schubert.basis_inverse_max_dim",
    "snf.snf_max_dim",
    "snf.input_max_bits",
    "snf.det_max_dim",
)
PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS.values()},
    **{m: "count" for m in CALL_COUNTS.values()},
    **{m: "count" for m in SUMMED_COUNTERS + MAX_COUNTERS},
    "snf.snf_timeouts": "count",
    "cli.import_s": "s",
    "cli.cpu_s": "s",
    "cli.parallelism": "ratio",
    "cli.invocations": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_s": "s",
    "trace.uncovered_s": "s",
}


@dataclass
class Outcome:
    pid: int
    wall: float
    timed_out: bool
    rc: int | None
    cpu: float
    maxrss_kb: int
    stdout: bytes


@dataclass
class Record:
    invocation: str
    status: str  # "ok", "timeout" or "wrong output: ..."
    wall: float
    cpu: float
    maxrss_kb: int
    checked: int
    extra: dict = field(default_factory=dict)


def spawn(cmd: list[str], timeout: float, env: dict | None = None) -> Outcome:
    """Run one command through ``launch.py``, which starts it in its own
    session, kills its process group at the timeout and reports its usage.
    Wall time runs from the launcher's fork to the command's exit."""
    OUT.mkdir(exist_ok=True)
    read_fd, write_fd = os.pipe()
    with tempfile.TemporaryFile(dir=OUT) as out, open(read_fd, "rb") as report:
        try:
            launcher = subprocess.Popen(
                [sys.executable, "-I", "-S", str(LAUNCH), str(write_fd), repr(timeout), "--", *cmd],
                stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT, pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        try:
            launcher.wait(timeout + LAUNCHER_GRACE)
        except subprocess.TimeoutExpired:
            launcher.kill()
            launcher.wait()
        fields = report.read().decode().split()
        if len(fields) != 7:
            if fields:  # the launcher died; its first field is the command's group
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(int(fields[0]), signal.SIGKILL)
            raise RuntimeError(f"launcher failed on {cmd}")
        out.seek(0)
        stdout = out.read()
    pid, wall, timed_out, rc, utime, stime, maxrss = fields
    timed_out = timed_out == "1"
    return Outcome(
        pid=int(pid),
        wall=timeout if timed_out else float(wall),
        timed_out=timed_out,
        rc=None if timed_out else int(rc),
        cpu=float(utime) + float(stime),
        maxrss_kb=int(maxrss),
        stdout=stdout,
    )


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_cmd(invocation: str) -> list[str]:
    return [sys.executable, "-m", "bruhatops.cli", *invocation.split()]


def judge(invocation: str, rc: int | None, summary: dict, timed_out: bool, expected: dict) -> str:
    """The output gate: a timeout, or the first way the output differs from
    the recorded expectation."""
    if timed_out:
        return "timeout"
    want = expected.get(invocation)
    if want is None:
        return "wrong output: no recorded expectation"
    if rc != 0:
        return f"wrong output: exit code {rc}"
    if want.get("ok") and summary["ok"] is not True:
        return "wrong output: ok is not true"
    if summary["checked"] != want["checked"]:
        return f"wrong output: checked {summary['checked']}, expected {want['checked']}"
    if "sha256" in want and summary["sha256"] != want["sha256"]:
        return "wrong output: stdout differs from the recorded digest"
    return "ok"


class Probe:
    """perfbench/probe.py running beside the measured invocations."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(PROBE)],
                                     stdout=subprocess.PIPE, text=True)

    def pause(self) -> None:
        self.proc.send_signal(signal.SIGSTOP)

    def resume(self) -> None:
        self.proc.send_signal(signal.SIGCONT)

    def stop(self) -> list[float]:
        """End the probe and return the seconds of its samples."""
        self.resume()
        self.proc.terminate()
        out, _ = self.proc.communicate()
        return [float(line) for line in out.split()]


def run_pass(order: list[str], kill_timeout: float, expected: dict,
             setup: list[float] | None = None, probe: Probe | None = None) -> list[Record]:
    """One pass over the invocations.  With ``setup``, append to it the wall
    times of the ``--help`` spawns made before each invocation.  The probe
    is paused while a ``--jobs`` invocation keeps both CPUs busy, so that
    its samples gauge the machine, not how the CLI shares the CPUs."""
    env = cli_env()
    records = []
    for inv in order:
        if setup is not None:
            setup.extend(measure_setup(env))
        parallel = probe is not None and "--jobs" in inv.split()
        if parallel:
            probe.pause()
        o = spawn(cli_cmd(inv), kill_timeout, env)
        if parallel:
            probe.resume()
        summary = summarize(o.stdout)
        status = judge(inv, o.rc, summary, o.timed_out, expected)
        checked = summary["checked"] or 0 if status == "ok" else 0
        records.append(Record(inv, status, o.wall, o.cpu, o.maxrss_kb, checked))
    return records


def measure_setup(env: dict) -> list[float]:
    walls = []
    for _ in range(SETUP_SPAWNS_PER_INVOCATION):
        o = spawn(cli_cmd("--help"), 60.0, env)
        if o.rc != 0 or b"verify" not in o.stdout:
            raise RuntimeError("bruhatops --help failed")
        walls.append(o.wall)
    return walls


def pass_metrics(records: list[Record], scale: float) -> dict:
    """A killed invocation counts at the kill timeout, unscaled."""
    wall = sum(r.wall if r.status == "timeout" else r.wall * scale for r in records)
    return {"wall_s": wall, "checked_per_s": sum(r.checked for r in records) / wall,
            "raw_wall_s": sum(r.wall for r in records)}


def run_traced(order: list[str], budget: float, expected: dict) -> tuple[list[Record], list]:
    records, spans = [], []
    for inv_id, inv in enumerate(order):
        cmd = [sys.executable, str(HERE / "tracer.py"), str(SRC), json.dumps(inv.split()),
               str(budget)]
        o = spawn(cmd, TRACE_KILL_TIMEOUT)
        try:
            trace = json.loads(o.stdout)
        except ValueError:
            trace = None
        if trace is None:
            status = "timeout" if o.timed_out else f"wrong output: tracer exit code {o.rc}"
            records.append(Record(inv, status, o.wall, o.cpu, o.maxrss_kb, 0))
            continue
        if trace["timeouts"]:
            status = "timeout"
        else:
            status = judge(inv, trace["rc"], trace, False, expected)
        records.append(Record(inv, status, o.wall, o.cpu, o.maxrss_kb,
                              trace["checked"] or 0 if status == "ok" else 0,
                              extra={"timeouts": trace["timeouts"],
                                     "counters": trace["counters"]}))
        spans.extend([*s, inv_id] for s in trace["spans"])
    return records, spans


def layer_metrics(untraced: list[Record], traced: list[Record], spans: list) -> dict:
    """Self time per span name (duration minus the time covered by its
    children), call counts and size counters, summed over the workload."""
    children = [0.0] * len(spans)
    offsets = {}  # invocation id -> index of its first span
    for idx, (_, _, _, _, inv_id) in enumerate(spans):
        offsets.setdefault(inv_id, idx)
    for name, start, end, parent, inv_id in spans:
        if parent >= 0:
            children[offsets[inv_id] + parent] += end - start
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER_UNITS.items()}
    top_level = 0.0
    imports = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        if name in SELF_TIME_METRICS:
            m[SELF_TIME_METRICS[name]] += end - start - children[idx]
        if name in CALL_COUNTS:
            m[CALL_COUNTS[name]] += 1
        if name == "cli.import":
            imports.append(end - start)
        if parent < 0:
            top_level += end - start
    for r in traced:
        counters = r.extra.get("counters", {})
        for key in SUMMED_COUNTERS:
            m[key] += counters.get(key, 0)
        for key in MAX_COUNTERS:
            m[key] = max(m[key], counters.get(key, 0))
        m["snf.snf_timeouts"] += r.extra.get("timeouts", 0)
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["cli.cpu_s"] = sum(r.cpu for r in untraced)
    m["cli.parallelism"] = next(
        (r.cpu / r.wall for r in untraced if "--jobs" in r.invocation.split()), 0.0
    )
    m["cli.invocations"] = len(untraced)
    m["trace.untraced_wall_s"] = sum(r.wall for r in untraced)
    m["trace.traced_s"] = sum(r.wall for r in traced)
    m["trace.uncovered_s"] = m["trace.traced_s"] - top_level
    return m


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def run_workload(name: str, args, expected: dict) -> dict:
    wl = WORKLOADS[name]
    order = list(wl.smoke if args.smoke else wl.invocations)
    random.Random(args.seed).shuffle(order)
    result = {"workload": name, "kill_timeout_s": wl.kill_timeout, "order": order}
    if not args.trace:
        setup = []
        start = time.perf_counter()
        passes = []
        probe = Probe()
        try:
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(order, wl.kill_timeout, expected, setup, probe))
                used = time.perf_counter() - start
                if used + (time.perf_counter() - t0) > args.seconds:
                    break
        finally:
            samples = probe.stop()
        probe_s = statistics.median(samples)
        scale = NOMINAL_PROBE_S / probe_s
        per_pass = [pass_metrics(p, scale) for p in passes]
        records = [r for p in passes for r in p]
        failed = sum(r.status != "ok" for r in records)
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in per_pass),
            "checked_per_s": statistics.median(p["checked_per_s"] for p in per_pass),
            "fail_ratio": failed / len(records),
            "setup_s": statistics.median(setup) * scale,
            "peak_rss_mb": max(r.maxrss_kb for r in records) / 1024,
        }
        units = dict(END_TO_END)
        result.update(
            raw_wall_s=statistics.median(p["raw_wall_s"] for p in per_pass),
            raw_setup_s=statistics.median(setup), setup_walls_s=setup,
            probe_samples=len(samples), probe_median_s=probe_s, passes=len(passes),
        )
    else:
        records = run_pass(order, wl.kill_timeout, expected)
        traced, spans = run_traced(order, wl.kill_timeout, expected)
        metrics = layer_metrics(records, traced, spans)
        units = PER_LAYER_UNITS
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "invocation"], "spans": spans}))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        records = records + traced
    result["records"] = [r.__dict__ for r in records]
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["attempted"] = len(records)
    result["failed"] = sum(r.status != "ok" for r in records)
    result["correct"] = not any(r.status.startswith("wrong output") for r in records)
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}: {result['attempted']} invocations, "
          f"{result['failed']} failed, kill timeout {result['kill_timeout_s']} s")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {key:34s} {shown} {metric['unit']}")
    if "raw_wall_s" in result:
        print(f"  unscaled: wall {result['raw_wall_s']:.3f} s, "
              f"setup {result['raw_setup_s']:.4f} s")
    if "trace.traced_s" in result["metrics"]:
        print(f"  traced total {result['metrics']['trace.traced_s']['value']:.3f} s "
              f"next to untraced wall_s {result['metrics']['trace.untraced_wall_s']['value']:.3f} s")
    for r in result["records"]:
        if r["status"] != "ok":
            print(f"  {r['status']}: {r['invocation']}")


def record_expected() -> int:
    """Re-record expected.json from the current program.  Entries without a
    digest are written by hand for invocations that do not finish; they are
    kept and not run."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    env = cli_env()
    for wl in WORKLOADS.values():
        for inv in wl.invocations + wl.smoke:
            if inv in expected and "sha256" not in expected[inv]:
                continue
            o = spawn(cli_cmd(inv), 600.0, env)
            summary = summarize(o.stdout)
            if o.rc != 0 or summary["ok"] is False:
                print(f"cannot record {inv!r}: exit code {o.rc}", file=sys.stderr)
                return 1
            expected[inv] = summary
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--record", action="store_true", help="re-record expected.json")
    args = parser.parse_args()

    if not (SRC / "bruhatops" / "cli.py").is_file():
        print(f"no bruhatops sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record_expected()
    expected = json.loads(EXPECTED.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env_info = environment(args.seed)
    results = []
    for name in names:
        result = run_workload(name, args, expected)
        print_report(result)
        results.append(result)

    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out_file = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}.json"
    out_file.write_text(json.dumps(
        {"environment": env_info, "seconds": args.seconds, "trace": args.trace,
         "smoke": args.smoke, "workloads": results}, indent=1))
    print(f"result file {out_file.relative_to(ROOT)}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    if not args.trace:
        metrics = {k: v for k, v in metrics.items() if not k.endswith("fail_ratio")}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
