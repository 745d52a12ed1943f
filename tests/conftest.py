"""Fixtures shared by the test modules."""

import functools
import importlib
import sys

import pytest

import bruhatops.chains as chains
import bruhatops.permutations as permutations
from bruhatops.hasse import WeightedHasseDiagram

# the chain certificate's caches, keyed by the profile (and the rank) alone
_CHAIN_CACHES = (chains._walk, chains._rank_det, chains._sl2_certificate)


def clear_chain_caches():
    """Forget the walk, the basis determinants and the sl2 certificate of
    every box; a test calls it after rebinding ``chains._um_step``,
    ``chains._dm_step`` or ``chains.determinant``, which those caches read."""
    for cached in _CHAIN_CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def fresh_chain_caches():
    """Each test starts and ends with no chain certificate cached."""
    clear_chain_caches()
    yield
    clear_chain_caches()


@pytest.fixture
def validated_calls(monkeypatch):
    """Every argument of ``permutations.validated`` from here on, as seen
    through each package module's own binding."""
    calls = []
    real = permutations.validated

    def spy(w):
        calls.append(tuple(w))
        return real(w)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bruhatops" and hasattr(module, "validated"):
            monkeypatch.setattr(module, "validated", spy)
    return calls


@pytest.fixture
def no_schubert_table(monkeypatch):
    """Building the Schubert polynomial table fails from here on, through
    each package module's own binding, and the operators read the table of
    S_u(1) from a fresh, empty cache, so that no value computed before the
    test can hide a use of the polynomial table.  The CLI reads S_u(1) of
    one permutation, which has no cache."""
    schubert_module = importlib.import_module("bruhatops.schubert")

    def refuse(n):
        raise AssertionError(f"the Schubert polynomial table of S_{n} was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bruhatops" and hasattr(module, "_schubert_table"):
            monkeypatch.setattr(module, "_schubert_table", refuse)
    fresh = functools.lru_cache(maxsize=None)(schubert_module._specialization_table.__wrapped__)
    monkeypatch.setattr(importlib.import_module("bruhatops.operators"), "_specialization_table", fresh)


@pytest.fixture
def bump_raising_step(monkeypatch):
    """``bump(n, k, triple)`` adds ``triple`` to step k of a rebuilt
    strong/code diagram of S_n, which ``operators.build_hasse`` returns from
    then on; every other diagram is built as usual."""
    operators = importlib.import_module("bruhatops.operators")
    real = operators.build_hasse

    def bump(n, k, triple):
        g = real(n, "strong", "code")
        steps = g._steps[:k] + (g._steps[k] + (triple,),) + g._steps[k + 1 :]
        broken = WeightedHasseDiagram(n, "strong", "code", g.ranks, steps)
        monkeypatch.setattr(
            operators, "build_hasse", lambda m, o, w: broken if (m, o, w) == (n, "strong", "code") else real(m, o, w)
        )

    return bump


@pytest.fixture
def split_lowering_triple(monkeypatch):
    """``split(at)`` writes the first triple (r, c, w) of the chain lowering
    step out of rank ``at`` as the two triples (r, c, w - 1) and (r, c, 1),
    which ``chains._dm_step`` returns from then on.  The step is the same
    map, so the sl2 relation still holds, but its triples are no longer the
    mirror of the raising step's, so only the mirror scan fails."""
    real = chains._dm_step

    def split(at):
        def perturbed(M, k):
            step = real(M, k)
            if k == at:
                (r, c, w), *rest = step
                step = ((r, c, w - 1), (r, c, 1), *rest)
            return step

        monkeypatch.setattr(chains, "_dm_step", perturbed)
        clear_chain_caches()

    return split
