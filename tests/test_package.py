"""Package layout: submodule names, the import layering, and the benchmark
tracer's layer targets."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bruhatops

REPO = Path(__file__).resolve().parent.parent


def _run_probe(probe, *argv):
    """Run ``python -c probe argv...`` on this checkout's package."""
    src = str(REPO / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_submodules_are_not_shadowed():
    import bruhatops.schubert as schubert_module
    import bruhatops.snf as snf_module

    assert inspect.ismodule(schubert_module)
    assert inspect.ismodule(snf_module)
    assert schubert_module.__name__ == "bruhatops.schubert"
    assert snf_module.__name__ == "bruhatops.snf"


def test_tracer_targets_resolve():
    # perfbench/tracer.py wraps these layer functions under --trace 1; each
    # must stay a plain function defined in its own module
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = tracer.layer_modules()
    src = REPO / "src" / "bruhatops"
    assert all(Path(m.__file__).resolve().parent == src for m in modules.values())
    resolved = tracer.resolve_targets(modules)
    assert len(resolved) == len(tracer.TARGETS)


def _package_imports(tree):
    """(import node, enclosing function or None) for every import of a
    bruhatops module: relative imports and absolute ``bruhatops`` ones."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                if any(alias.name.split(".")[0] == "bruhatops" for alias in child.names):
                    out.append((child, func))
            elif isinstance(child, ast.ImportFrom):
                if child.level or (child.module or "").split(".")[0] == "bruhatops":
                    out.append((child, func))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else func)

    visit(tree, None)
    return out


def _imported_modules(node):
    """The package submodules an import names: snf for ``from .snf import
    x``, ``from bruhatops.snf import x`` and ``import bruhatops.snf``; snf and
    hasse for ``from . import snf, hasse``; "" for ``import bruhatops``."""
    if isinstance(node, ast.Import):
        return {".".join(alias.name.split(".")[1:2]) for alias in node.names}
    parts = (node.module or "").split(".")[0 if node.level else 1 :]
    if parts and parts[0]:
        return {parts[0]}
    return {alias.name for alias in node.names}


def test_import_layering():
    # snf is the linear-algebra core beneath every other module, and every
    # layer module imports the package at module level, where the import
    # graph is visible; the CLI imports per command (next test)
    src = REPO / "src" / "bruhatops"
    for path in sorted(src.glob("*.py")):
        imports = _package_imports(ast.parse(path.read_text(), str(path)))
        if path.name == "snf.py":
            assert imports == [], f"snf.py imports a package module on line {imports[0][0].lineno}"
        if path.name == "chains.py":
            # the chain suites run on snf alone: no diagram, table or CLI
            for node, _ in imports:
                assert _imported_modules(node) == {"snf"}, f"chains.py:{node.lineno} imports past snf"
        if path.name == "cli.py":
            continue
        for node, func in imports:
            assert func is None, f"{path.name}:{node.lineno}: package import inside {func}()"


# the layer modules a fresh process holds after ``import bruhatops.cli`` and
# one CLI run: no command compiles a module it does not run
DIAGRAM_LAYERS = ["chains", "hasse", "permutations", "snf"]
COMMAND_LAYERS = [
    ((), []),
    (("--help",), []),
    (("verify", "--suite", "chains-basis", "--M", "2,1"), ["chains", "snf"]),
    (("verify", "--suite", "chains-snf", "--M", "2,1"), ["chains", "snf"]),
    (("verify", "--suite", "chains-det", "--M", "2,1"), ["chains", "snf"]),
    (("verify", "--suite", "snf", "--n", "3"), DIAGRAM_LAYERS),
    (("verify", "--suite", "w0-symmetry", "--n", "3"), DIAGRAM_LAYERS),
    (("hasse", "--n", "3", "--order", "strong", "--weights", "code"), DIAGRAM_LAYERS),
    (("verify", "--suite", "sl2", "--n", "3"), sorted([*DIAGRAM_LAYERS, "operators", "schubert"])),
    (("schubert", "--perm", "312"), ["chains", "permutations", "schubert", "snf"]),
]
LAYER_PROBE = """
import contextlib, io, sys
import bruhatops.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(sys.argv[1:])
loaded = {name.split(".")[1] for name in sys.modules if name.startswith("bruhatops.")}
print(" ".join(sorted(loaded - {"cli"})))
"""


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS, ids=[" ".join(a) or "import" for a, _ in COMMAND_LAYERS])
def test_each_command_loads_only_its_layers(argv, layers):
    assert _run_probe(LAYER_PROBE, *argv).split() == layers


def test_cli_import_skips_dataclasses_and_inspect():
    # both cost every CLI start about 12-15 ms of imports
    probe = "import sys, bruhatops.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _run_probe(probe) == "[]"


def test_exports_are_consistent():
    # each submodule's __all__ names what it defines, and the package's lazy
    # table re-exports only names that its submodules declare public, each
    # resolving to the submodule's own object
    src = REPO / "src" / "bruhatops"
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"bruhatops.{path.stem}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{path.name}: __all__ names undefined {missing}"
    for stem, names in bruhatops._EXPORTS.items():
        module = importlib.import_module(f"bruhatops.{stem}")
        assert getattr(bruhatops, stem) is module
        undeclared = [name for name in names if name not in module.__all__]
        assert undeclared == [], f"bruhatops re-exports {undeclared} outside {stem}.__all__"
        for name in names:
            assert getattr(bruhatops, name) is getattr(module, name), name
    # no name is exported by two submodules
    assert sorted(bruhatops.__all__) == sorted(n for names in bruhatops._EXPORTS.values() for n in names)
    assert {"schubert", "snf"}.isdisjoint(bruhatops.__all__)


def test_each_mutant_text_occurs_once_in_the_package():
    # tests/mutants.py applies each mutant to a copy of the tree; a text
    # that is gone or repeated would make its mutant vacuous or ambiguous,
    # and each test it names must still exist
    from mutants import MUTANTS, occurrences

    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert occurrences(mutant.text) == 1, mutant.name
        assert (REPO / mutant.path).read_text().count(mutant.text) == 1, mutant.name
        for test in mutant.kills:
            path, *names = test.split("::")
            source = (REPO / path).read_text()
            for name in names:
                assert re.search(rf"^\s*(def|class) {name.split('[')[0]}\b", source, flags=re.M), test
