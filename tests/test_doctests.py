"""Run the doctest examples embedded in module docstrings.

Keeps the inline examples in the documentation honest: if a docstring
example drifts from the implementation, the suite fails.
"""

import doctest

import pytest

import repro.topology.addresses
import repro.util.units
from tests import _metrics

MODULES_WITH_EXAMPLES = [
    repro.util.units,
    _metrics,
    repro.topology.addresses,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_EXAMPLES, ids=lambda m: m.__name__
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"{module.__name__} lost its doctest examples"
