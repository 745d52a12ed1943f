"""Keep the docstring examples honest."""

import doctest

import pytest

from bruhatops import chains, cli, hasse, operators, permutations, schubert, snf

MODULES = [chains, cli, hasse, operators, permutations, schubert, snf]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
