"""Fixtures shared by the test modules."""

import importlib
import sys

import pytest

import bruhatops.chains as chains
import bruhatops.permutations as permutations

# the chain certificate's caches, keyed by the profile (and the rank) alone
_CHAIN_CACHES = (chains._walk, chains._rank_det, chains._sl2_holds)


def clear_chain_caches():
    """Forget the walk, the basis determinants and the sl2 verdict of every
    box; a test calls it after rebinding ``chains._um_step``,
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
    each package module's own binding.  S_u(1) comes from the integer
    recursion, which keeps no cache, so no value computed before the test
    can hide a use of the polynomial table."""

    def refuse(n):
        raise AssertionError(f"the Schubert polynomial table of S_{n} was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bruhatops" and hasattr(module, "_schubert_table"):
            monkeypatch.setattr(module, "_schubert_table", refuse)


@pytest.fixture
def no_whole_diagram(monkeypatch):
    """Building a whole cover diagram or the whole of S_n by rank fails from
    here on, through each package module's own binding of ``build_hasse``
    and ``permutations_by_rank``, so only steps and ranks made on demand
    can be read."""

    def refuse(*args):
        raise AssertionError(f"a whole diagram or enumeration was built: {args}")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bruhatops":
            for attr in ("build_hasse", "permutations_by_rank"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)


@pytest.fixture
def bump_raising_step(monkeypatch):
    """``bump(n, k, triple)`` adds ``triple`` to step k of strong/code on
    S_n as ``hasse._step``, the one step builder, makes it from then on, so
    every reader of that step sees it; every other step is made as usual.
    The bumped step is a tuple of triples, which every reader takes as a
    step.  No diagram built meanwhile stays cached after the test."""
    hasse = importlib.import_module("bruhatops.hasse")
    real = hasse._step

    def bump(n, k, triple):
        def step(m, order, weights, j):
            made = real(m, order, weights, j)
            return tuple(made) + (triple,) if (m, order, weights, j) == (n, "strong", "code", k) else made

        monkeypatch.setattr(hasse, "_step", step)

    yield bump
    hasse.build_hasse.cache_clear()


@pytest.fixture
def raise_weight(monkeypatch):
    """``raise_(n, order, weights, k, t)`` raises by one the weight of triple
    t of step k of that diagram of S_n, as ``hasse._step``, the one step
    builder, makes it from then on, as a tuple of triples; every other step
    is made as usual.  A later call replaces the earlier raise, and no
    diagram built before the call or during the test stays cached."""
    hasse = importlib.import_module("bruhatops.hasse")
    real = hasse._step

    def raise_(n, order, weights, k, t):
        def step(*key):
            made = real(*key)
            if key != (n, order, weights, k):
                return made
            made = tuple(made)
            r, c, wt = made[t]
            return made[:t] + ((r, c, wt + 1),) + made[t + 1 :]

        monkeypatch.setattr(hasse, "_step", step)
        hasse.build_hasse.cache_clear()

    yield raise_
    hasse.build_hasse.cache_clear()


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
