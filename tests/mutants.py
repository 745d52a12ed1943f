"""A table of mutants of the package, and a script that checks the tests kill
each one.

Each mutant names a file under ``src/``, an exact text there, its
replacement, and the tests that must fail once it is applied.  For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the mutant to the copy, and runs pytest there
on the named tests.  A mutant is killed when every named test fails.  The
working tree is never written.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

It exits 1 when a mutant survives.  pytest does not collect this file;
``tests/test_package.py`` checks that each mutant's text occurs exactly once
in ``src/``, so the table cannot rot silently.  A change that adds a
certificate adds its mutant here.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the repository
    text: str
    replacement: str
    kills: tuple[str, ...]  # test ids that must fail


MUTANTS = (
    Mutant(
        "delta reads step k-1",
        "src/bruhatops/operators.py",
        "s = k if up else k - 1",
        "s = k - 1 if up else k - 1",
        (
            "tests/test_operators.py::TestActionStepsAgainstPerPermutationRoute::test_every_raised_strong_weight_fails_the_commutator",
            "tests/test_operators.py::TestActionCertificates::test_certified_report_equals_the_direct_route",
        ),
    ),
    Mutant(
        "code weight without its factor 2",
        "src/bruhatops/hasse.py",
        "else 1 + 2 * m if code else",
        "else 1 + m if code else",
        (
            "tests/test_hasse.py::TestBuildHasse::test_index_arithmetic_matches_cover_oracle",
            "tests/test_hasse.py::TestStreamedSteps::test_steps_on_demand_equal_the_oracle",
        ),
    ),
    Mutant(
        "snf reports D for a rank-deficient matrix",
        "src/bruhatops/snf.py",
        "return chain[:rank] + (0,) * (rows - rank)",
        "return chain",
        (
            "tests/test_snf.py::TestSmithForm::test_rank_deficient_examples",
            "tests/test_snf.py::TestSmithForm::test_low_rank_products_equal_minor_gcd_oracle",
        ),
    ),
    Mutant(
        "rising check without its zero-weight half",
        "src/bruhatops/operators.py",
        "if not wt or (r, c) <= last:",
        "if (r, c) <= last:",
        ("tests/test_operators.py::TestActionCertificates::test_repeated_place_or_zero_weight_takes_the_direct_route",),
    ),
    Mutant(
        "unreversed w0 flip",
        "src/bruhatops/snf.py",
        "found.pop((hi - c) * width + lo - r, None)",
        "found.pop(c * width + r, None)",
        (
            "tests/test_hasse.py::TestW0Symmetry::test_holds_up_to_n5",
            "tests/test_chains.py::TestLayerMatrices::test_sl2_commutator_on_the_box",
        ),
    ),
    Mutant(
        "divisibility chain shifted on the wrong side",
        "src/bruhatops/snf.py",
        "zip(chain + [0] * m, [1] * m + chain)",
        "zip(chain + [0] * m, chain + [1] * m)",
        (
            "tests/test_snf.py::TestSmithForm::test_divisibility_normalize",
            "tests/test_snf.py::TestSmithForm::test_merge_equals_pairwise_swaps_on_random_diagonals",
        ),
    ),
    Mutant(
        "weak builder's nabla weight p instead of p + 1",
        "src/bruhatops/hasse.py",
        "p + 1 if nabla else 1",
        "p if nabla else 1",
        (
            "tests/test_hasse.py::TestBuildHasse::test_index_arithmetic_matches_cover_oracle",
            "tests/test_operators.py::TestActionTheorems::test_nabla_action",
        ),
    ),
    Mutant(
        "basis determinant of the rows where the walk stands, whatever the rank",
        "src/bruhatops/chains.py",
        "rows = walk.rows if walk.at == k else _Walk(M).reach(k).rows",
        "rows = walk.rows",
        (
            "tests/test_chains.py::TestCertificate::test_calls_in_decreasing_rank_order",
            "tests/test_chains.py::TestCertificate::test_born_count_off_keeps_the_ranks_above_unproved",
        ),
    ),
    Mutant(
        "pair of strong weights encoded without its factor n",
        "src/bruhatops/hasse.py",
        "(1 + 2 * m) * n + j - i",
        "(1 + 2 * m) + j - i",
        ("tests/test_hasse.py::TestStreamedSteps::test_pair_weights_are_code_and_chevalley",),
    ),
    Mutant(
        "hard exit without its flush",
        "src/bruhatops/cli.py",
        "        sys.stdout.flush()\n        sys.stderr.flush()\n",
        "        pass\n",
        (
            "tests/test_cli.py::TestConsoleScript::test_spawn_matches_in_process[sl2]",
            "tests/test_cli.py::TestConsoleScript::test_spawn_matches_in_process[hasse-dot]",
        ),
    ),
)


def occurrences(text: str) -> int:
    """How often ``text`` occurs in the package sources."""
    return sum(path.read_text().count(text) for path in sorted((ROOT / "src").rglob("*.py")))


def failed_tests(output: str, ids: tuple[str, ...]) -> set[str]:
    """The named ids (a file, class or test, each a prefix of pytest's node
    ids) with a failed test among pytest's ``-rf`` lines."""
    failed = re.findall(r"^FAILED (\S+)", output, flags=re.M)
    return {i for i in ids if any(f == i or f.startswith(i + "::") or f.startswith(i + "[") for f in failed)}


def run(mutant: Mutant) -> tuple[bool, set[str], float]:
    """Apply ``mutant`` to a copy of the tree and run its tests there:
    (killed, the named tests that passed, seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.path
        source = target.read_text()
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: the text occurs {source.count(mutant.text)} times in {mutant.path}")
        target.write_text(source.replace(mutant.text, mutant.replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.kills],
            cwd=copy,
            capture_output=True,
            text=True,
        )
    survivors = set(mutant.kills) - failed_tests(proc.stdout, mutant.kills)
    return not survivors, survivors, time.perf_counter() - start


def main(names: list[str]) -> int:
    picked = [m for m in MUTANTS if not names or m.name in names]
    if names and len(picked) != len(names):
        raise SystemExit(f"unknown mutant among {names}; known: {[m.name for m in MUTANTS]}")
    start, surviving = time.perf_counter(), 0
    for mutant in picked:
        killed, survivors, seconds = run(mutant)
        surviving += not killed
        verdict = "killed" if killed else f"SURVIVES: {', '.join(sorted(survivors))} passed"
        print(f"{mutant.name}: {verdict} ({seconds:.1f} s)", flush=True)
    print(f"{len(picked) - surviving} of {len(picked)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if surviving else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
