"""
Batch command line interface.

Three subcommands:

* ``hasse``    -- emit a weighted cover diagram as JSON, Graphviz DOT, or a
                  plain table;
* ``verify``   -- run one of the named verification suites and report
                  JSON/table results (exit 0 when everything holds, exit 1
                  on any counterexample);
* ``schubert`` -- print one Schubert polynomial, optionally padded, in the
                  standard convention, or principally specialized.

Exit codes: 0 success / verified, 1 counterexample found, 2 usage error.
Potentially large integers in JSON output are always decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Sequence

from .chains import base_change_report, um_determinant_report, um_snf_check
from .hasse import (
    _json_chunks,
    _vertex_names,
    build_hasse,
    diagram_to_dot,
    verify_snf_theorem,
    verify_w0_symmetry,
)
from .operators import (
    delta_action_chunk,
    macdonald_chunk,
    nabla_action_chunk,
    path_identities_chunk,
    verify_sl2,
)
from .permutations import (
    inverse,
    num_inversions_max,
    parse as parse_permutation,
    permutations_by_rank,
    to_string,
)
from .schubert import (
    _specialization_table,
    pad,
    schubert,
    schubert_standard,
)

__all__ = ["main", "entrypoint"]

SUITES = (
    "nabla-action",
    "delta-action",
    "sl2",
    "path-identities",
    "macdonald",
    "w0-symmetry",
    "snf",
    "chains-basis",
    "chains-snf",
    "chains-det",
)

# default size caps; --force overrides with a warning on stderr
PATH_SUITE_CAP = 6
DIFFERENTIAL_SUITE_CAP = 5
SNF_SUITE_CAP = 5
# All 30 windows at n=5 take well under a second, so speed is not why
# `snf --n 5` runs this sample by default: the benchmark's recorded stdout
# digest for that invocation pins the sampled report, and the sample stays
# only for that.  The exhaustive n=5 default waits for a separate benchmark
# change that re-records the digest.
SNF_SAMPLE_PAIRS_N5 = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 10), (2, 8))

_SUITE_CAPS = {
    "nabla-action": DIFFERENTIAL_SUITE_CAP,
    "delta-action": DIFFERENTIAL_SUITE_CAP,
    "sl2": DIFFERENTIAL_SUITE_CAP,
    "path-identities": PATH_SUITE_CAP,
    "macdonald": PATH_SUITE_CAP,
    "w0-symmetry": PATH_SUITE_CAP,
    "snf": SNF_SUITE_CAP,
}

# suites reporting each window on its own; the jobs of every other suite
# cover disjoint parts of one check and merge into one report
_WINDOW_SUITES = ("snf", "chains-snf")


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """Map preserving input order, optionally across processes."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing  # deferred: serial runs and --help never pay for it

    with multiprocessing.Pool(min(jobs, len(items))) as pool:
        return pool.map(fn, items)


def _call(job: tuple):
    """Run one ``(function, *args)`` job; module level so that worker
    processes can unpickle it."""
    fn, *args = job
    return fn(*args)


def _merge(reports: list[dict]) -> dict:
    """One report from the reports of one suite on disjoint parts: ``checked``
    and ``permutations`` add up, ``failures`` concatenate in job order and
    boolean flags AND together."""
    out = dict(reports[0])
    for report in reports[1:]:
        for key, value in report.items():
            if key in ("checked", "permutations", "failures"):
                out[key] = out[key] + value
            elif isinstance(value, bool):
                out[key] = out[key] and value
    return out


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        _print_table(payload)


def _print_table(payload: dict) -> None:
    """Minimal human-readable rendering of a verify payload."""
    for report in payload["reports"]:
        name = report.get("suite", "?")
        scope = []
        for key in ("n", "M", "from", "to"):
            if key in report and report[key] is not None:
                scope.append(f"{key}={report[key]}")
        status = "ok" if not report.get("failures") else "FAIL"
        line = f"{name} [{', '.join(scope)}] checked={report.get('checked')} {status}"
        print(line)
        for failure in report.get("failures", []):
            print(f"  counterexample {failure}")
    verdict = "verified" if payload.get("ok") else "counterexample found"
    print(verdict)


def _windows(top: int, low, high) -> list[tuple[int, int]]:
    """The window [--from, --to] if given, else every [a, b] with a < b and
    a + b <= top."""
    if low is not None and high is not None:
        return [(low, high)]
    if low is not None or high is not None:
        raise ValueError("--from and --to must be given together")
    return [(a, b) for a in range(top + 1) for b in range(a + 1, top + 1) if a + b <= top]


def _suite_jobs(args) -> list[tuple]:
    """The suite's jobs as ``(function, *args)`` tuples, one per unit of
    independent work: a rank for the action suites, whose ranks read
    disjoint padded steps, and all of S_n for the path suites, whose every
    permutation reads the same sweeps.  The functions are read from this
    module's bindings at call time, so that rebinding one of them (a
    tracer, a test spy) reaches every job."""
    suite, n, M, low, high = args.suite, args.n, args.M, args.from_rank, args.to_rank
    if suite in ("nabla-action", "delta-action"):
        chunk = nabla_action_chunk if suite == "nabla-action" else delta_action_chunk
        return [(chunk, n, list(stratum)) for stratum in permutations_by_rank(n)]
    if suite in ("path-identities", "macdonald"):
        chunk = path_identities_chunk if suite == "path-identities" else macdonald_chunk
        return [(chunk, n, [w for stratum in permutations_by_rank(n) for w in stratum])]
    if suite == "sl2":
        return [(verify_sl2, n)]
    if suite == "w0-symmetry":
        return [(verify_w0_symmetry, n)]
    if suite == "snf":
        windows = _windows(num_inversions_max(n), low, high)
        if n == 5 and low is None:
            windows = SNF_SAMPLE_PAIRS_N5
        return [(verify_snf_theorem, n, a, b) for a, b in windows]
    if M is None:
        raise ValueError(f"suite {suite!r} needs --M")
    total = sum(M)
    if suite == "chains-basis":
        return [(base_change_report, M, rank) for rank in range(total + 1)]
    if suite == "chains-det":
        return [(um_determinant_report, M, k, total - k) for k in range(total // 2 + 1)]
    if suite == "chains-snf":
        return [(um_snf_check, M, a, b) for a, b in _windows(total, low, high)]
    raise ValueError(f"unknown suite: {suite!r}")  # pragma: no cover - argparse choices guard this


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in _WINDOW_SUITES and (args.from_rank is not None or args.to_rank is not None):
        raise ValueError(f"suite {suite!r} takes no --from or --to")
    if suite not in _SUITE_CAPS and args.n is not None:
        raise ValueError(f"suite {suite!r} takes --M, not --n")
    if suite in _SUITE_CAPS:
        if args.M is not None:
            raise ValueError(f"suite {suite!r} takes --n, not --M")
        if args.n is None:
            raise ValueError(f"suite {suite!r} needs --n")
        if args.n < 1:
            raise ValueError(f"n must be positive: {args.n}")
        cap = _SUITE_CAPS[suite]
        if args.n > cap:
            if not args.force:
                raise ValueError(
                    f"suite {suite!r} is capped at n = {cap} by default; pass --force to override"
                )
            print(
                f"warning: running {suite} at n = {args.n} beyond the default cap {cap}; "
                "expect a long run",
                file=sys.stderr,
            )
    reports = _pmap(_call, _suite_jobs(args), args.jobs)
    if suite not in _WINDOW_SUITES:
        reports = [_merge(reports)]
    ok = all(not r["failures"] for r in reports)
    _emit({"ok": ok, "reports": reports}, args.format)
    return 0 if ok else 1


def cmd_hasse(args) -> int:
    diagram = build_hasse(args.n, args.order, args.weights)
    if args.format == "dot":
        print(diagram_to_dot(diagram), end="")
    elif args.format == "table":
        print(f"# S_{args.n}, {args.order} order, {args.weights} weights")
        name = _vertex_names(diagram)
        for src, dst, wt in diagram.edges:
            print(f"{name[src]} -> {name[dst]}  weight {wt}")
    else:
        for chunk in _json_chunks(diagram):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    return 0


def cmd_schubert(args) -> int:
    w = parse_permutation(args.perm)
    payload: dict = {
        "perm": to_string(w),
        "n": len(w),
        "convention": "standard" if args.standard_convention else "left-multiplication",
    }
    if args.specialize:
        # S_w(1) from the integer recursion; the polynomial is never built
        rendered = _specialization_table(len(w))[inverse(w) if args.standard_convention else w]
        payload["value"] = str(rendered)
    else:
        poly = schubert_standard(w) if args.standard_convention else schubert(w)
        rendered = pad(poly) if args.padded else poly
        payload["padded"] = bool(args.padded)
        payload["polynomial"] = str(rendered)
        payload["terms"] = [
            {"alpha": list(alpha), "coeff": str(coeff)} for alpha, coeff in rendered.sorted_terms()
        ]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(rendered)
    return 0


def _parse_profile(text: str) -> tuple[int, ...]:
    try:
        out = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse chain profile: {text!r}") from None
    if any(m < 0 for m in out):
        raise argparse.ArgumentTypeError(f"chain lengths must be nonnegative: {text!r}")
    return out


def _parse_jobs(text: str) -> int:
    """Worker count: at least 1, clamped to the CPUs of this machine."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse job count: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhatops",
        description="Weighted Bruhat orders, Schubert operators, and exact Smith form checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hasse = sub.add_parser("hasse", help="emit a weighted cover diagram")
    p_hasse.add_argument("--n", type=int, required=True)
    p_hasse.add_argument("--order", choices=["weak", "strong"], required=True)
    p_hasse.add_argument("--weights", choices=["nabla", "code", "chevalley", "unit"], required=True)
    p_hasse.add_argument("--format", choices=["dot", "json", "table"], default="json")
    p_hasse.set_defaults(fn=cmd_hasse)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=list(SUITES), required=True)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--from", dest="from_rank", type=int)
    p_verify.add_argument("--to", dest="to_rank", type=int)
    p_verify.add_argument("--M", type=_parse_profile)
    p_verify.add_argument("--jobs", type=_parse_jobs, default=1)
    p_verify.add_argument("--force", action="store_true", help="override the default size caps")
    p_verify.add_argument("--format", choices=["json", "table"], default="json")
    p_verify.set_defaults(fn=cmd_verify)

    p_schub = sub.add_parser("schubert", help="print one Schubert polynomial")
    p_schub.add_argument("--perm", required=True)
    p_schub.add_argument("--padded", action="store_true")
    p_schub.add_argument("--standard-convention", action="store_true")
    p_schub.add_argument("--specialize", action="store_true")
    p_schub.add_argument("--format", choices=["json", "table"], default="json")
    p_schub.set_defaults(fn=cmd_schubert)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
