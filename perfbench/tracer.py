"""Traced re-run of one ``bruhatops`` CLI invocation, layer by layer.

Run as ``python3 perfbench/tracer.py SRC ARGV_JSON BUDGET`` in a
fresh process; ``perfbench/run.py --trace 1`` does this for every invocation
of a workload.  It

1. imports ``bruhatops.cli`` (and with it all seven layer modules) inside a
   ``cli.import`` span;
2. wraps the public layer functions listed in ``TARGETS`` so that every call
   records a span (name, start, end, parent) in memory;
3. calls the cached layer functions the suite relies on, bottom-up
   (permutations, then cover diagrams, then the Schubert table, then the
   basis inverses), so their cost lands in their own spans;
4. calls the suite entry point ``cli.main(argv)`` with stdout captured and
   ``--jobs`` fan-out replaced by a serial map;
5. prints one JSON object: the spans, size counters, and a digest of what
   the CLI would have printed.

Each ``snf`` and ``determinant`` call runs under a ``signal.setitimer``
deadline: what is left of BUDGET seconds (the workload's kill timeout),
counted from the tracer's start.  A call that overruns, or comes after the
budget is spent, counts in ``timeouts`` and returns a value the suite reports
as a mismatch, so the run goes on instead of stalling, and a traced
invocation runs about as long as the untraced one, kill timeout included.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import signal
import sys
import time

LAYERS = ("permutations", "hasse", "schubert", "operators", "snf", "chains", "cli")

# (layer module, function, span name).  The span name is the per-layer
# metric name without its "_s" suffix.
TARGETS = (
    ("permutations", "permutations_by_rank", "permutations.enumerate"),
    ("permutations", "weak_covers_up", "permutations.covers"),
    ("permutations", "strong_covers_up", "permutations.covers"),
    ("hasse", "build_hasse", "hasse.build"),
    ("hasse", "w0_symmetry_check", "hasse.w0_check"),
    ("hasse", "diagram_to_dot", "hasse.emit"),
    ("hasse", "diagram_to_json", "hasse.emit"),
    ("hasse", "weighted_path_count", "hasse.path_dp"),
    ("hasse", "layer_matrix", "hasse.layer_matrix"),
    ("schubert", "_schubert_table", "schubert.table"),
    ("schubert", "basis_matrix_inverse", "schubert.basis_inverse"),
    ("schubert", "apply_nabla", "schubert.apply"),
    ("schubert", "apply_delta", "schubert.apply"),
    ("schubert", "expand_in_padded_schubert_basis", "schubert.expand"),
    ("operators", "differential_layer_matrix", "operators.differential_layer"),
    ("operators", "nabla_action_chunk", "operators.suite"),
    ("operators", "delta_action_chunk", "operators.suite"),
    ("operators", "path_identities_chunk", "operators.suite"),
    ("operators", "macdonald_chunk", "operators.suite"),
    ("operators", "commutator_check", "operators.suite"),
    ("snf", "snf", "snf.snf"),
    ("snf", "determinant", "snf.det"),
    ("chains", "um_layer_matrix", "chains.layer"),
    ("chains", "dm_layer_matrix", "chains.layer"),
    ("chains", "construct_B", "chains.basis"),
)

# calls bounded by the invocation's deadline, with the value returned on overrun
DEADLINED = {"snf.snf": (), "snf.det": 0}


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout


def layer_modules() -> dict:
    """The layer modules themselves.  ``from bruhatops import snf`` would give
    the function that the package namespace exports under the same name."""
    return {name: importlib.import_module(f"bruhatops.{name}") for name in LAYERS}


def resolve_targets(modules: dict) -> list[tuple[str, object]]:
    """(span name, original callable) per target, after checking that each is
    a plain function, possibly behind ``lru_cache``, defined in its layer."""
    out = []
    for layer, attr, span in TARGETS:
        fn = getattr(modules[layer], attr)
        inner = getattr(fn, "__wrapped__", fn)
        if not inspect.isfunction(inner) or inner.__module__ != f"bruhatops.{layer}":
            raise TypeError(f"bruhatops.{layer}.{attr} is not a function of that module")
        out.append((span, fn))
    return out


class Tracer:
    """Spans in memory: [name, start, end, parent index]."""

    def __init__(self, deadline: float):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.deadline = deadline  # perf_counter time
        self.timeouts = 0
        self.sizes: dict[str, int] = {}
        self.results: dict[str, dict] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in DEADLINED:
                left = self.deadline - time.perf_counter()
                if left <= 0:
                    self.timeouts += 1
                    return DEADLINED[name]
            self._note_input(name, args)
            with self.span(name):
                if name not in DEADLINED:
                    result = fn(*args, **kwargs)
                else:
                    try:
                        signal.setitimer(signal.ITIMER_REAL, left)
                        try:
                            result = fn(*args, **kwargs)
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    except CallTimeout:
                        self.timeouts += 1
                        return DEADLINED[name]
            self._note_result(name, args, result)
            return result

        return traced

    def _bump(self, key: str, value: int) -> None:
        self.sizes[key] = max(self.sizes.get(key, 0), value)

    def _note_input(self, name: str, args) -> None:
        if name in ("snf.snf", "snf.det"):
            mat = args[0]
            self._bump(f"{name}_max_dim", max(len(mat), len(mat[0]) if mat else 0))
            if name == "snf.snf":
                bits = max((abs(x).bit_length() for row in mat for x in row), default=0)
                self._bump("snf.input_max_bits", bits)

    def _note_result(self, name: str, args, result) -> None:
        # cached functions: count each distinct result once per process
        if name == "permutations.enumerate":
            self.results.setdefault("vertices", {})[args] = sum(len(s) for s in result)
        elif name == "hasse.build":
            self.results.setdefault("edges", {})[args] = len(result.edges)
        elif name == "schubert.table":
            self.results.setdefault("terms", {})[args] = sum(len(p.terms) for p in result.values())
        elif name == "schubert.basis_inverse":
            self._bump("schubert.basis_inverse_max_dim", len(result))

    def counters(self) -> dict[str, int]:
        out = dict(self.sizes)
        out["permutations.vertices"] = max(self.results.get("vertices", {0: 0}).values())
        out["hasse.edges"] = sum(self.results.get("edges", {}).values())
        out["schubert.table_terms"] = sum(self.results.get("terms", {}).values())
        return out


def install(tracer: Tracer, modules: dict) -> None:
    """Replace each target in every bruhatops namespace that holds it, so
    calls through ``from .x import f`` bindings are traced too."""
    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "bruhatops"]
    for span, fn in resolve_targets(modules):
        traced = tracer.wrap(span, fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, attr, traced)


def warm_calls(args, m: dict) -> list:
    """Cached layer functions the suite will use, lowest layer first."""
    if getattr(args, "n", None) is None:
        return []
    n = args.n
    calls = [(m["permutations"].permutations_by_rank, (n,))]
    suite = getattr(args, "suite", None)
    if args.command == "hasse":
        diagrams = [(args.order, args.weights)]
    else:
        diagrams = {
            "nabla-action": [("weak", "nabla")],
            "delta-action": [("strong", "code")],
            "macdonald": [("weak", "nabla")],
            "path-identities": [("strong", "code"), ("weak", "nabla")],
            "w0-symmetry": [("weak", "nabla"), ("strong", "code"), ("strong", "chevalley")],
            "snf": [("strong", "code"), ("weak", "nabla")],
        }.get(suite, [])
    calls += [(m["hasse"].build_hasse, (n, order, weights)) for order, weights in diagrams]
    if suite in ("nabla-action", "delta-action", "sl2", "macdonald", "path-identities"):
        calls.append((m["schubert"]._schubert_table, (n,)))
    if suite in ("nabla-action", "delta-action", "sl2"):
        top = m["permutations"].num_inversions_max(n)
        calls += [(m["schubert"].basis_matrix_inverse, (n, k)) for k in range(top + 1)]
    return calls


def summarize(stdout: bytes) -> dict:
    """What the output gate compares: a digest of the whole stdout, and for
    ``verify`` reports the verdict and the total of their ``checked``."""
    summary = {"sha256": hashlib.sha256(stdout).hexdigest(), "ok": None, "checked": None}
    try:
        payload = json.loads(stdout)
    except ValueError:
        return summary
    if isinstance(payload, dict) and isinstance(payload.get("reports"), list):
        summary["ok"] = payload.get("ok") is True
        summary["checked"] = sum(int(r.get("checked", 0)) for r in payload["reports"])
    return summary


def run(src: str, argv: list[str], budget: float) -> dict:
    tracer = Tracer(time.perf_counter() + budget)
    sys.path.insert(0, src)
    with tracer.span("cli.import"):
        cli = importlib.import_module("bruhatops.cli")
    if not cli.__file__.startswith(src):
        raise ImportError(f"bruhatops imported from {cli.__file__}, not from {src}")
    modules = layer_modules()
    install(tracer, modules)
    signal.signal(signal.SIGALRM, _alarm)
    cli._pmap = lambda fn, items, jobs: [fn(item) for item in items]

    args = cli._build_parser().parse_args(argv)
    for fn, fn_args in warm_calls(args, modules):
        fn(*fn_args)
    buf = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return {
        "rc": rc,
        **summarize(buf.getvalue().encode()),
        "timeouts": tracer.timeouts,
        "counters": tracer.counters(),
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1], json.loads(sys.argv[2]), float(sys.argv[3]))))
