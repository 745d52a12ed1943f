"""Package layout: submodule names and the benchmark tracer's layer targets."""

import importlib.util
import inspect
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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
