"""Self-test of the figure registry: the unbroken build violates no shape
predicate, and every mutant build violates the predicate named for it.

The CI ``figures`` job runs this file (about 40 s; it lives outside
the tier-1 ``testpaths``).  The simulated-clock figures and their mutants
also run in tier-1, from ``tests/test_protection.py``,
``tests/test_pipeline_latency.py`` and ``tests/test_baselines.py``, and so
does Fig. 6's untimed shard pass (``tests/test_fig6_shards.py``).
"""

import pytest

import figures


@pytest.mark.parametrize("entry", figures.REGISTRY, ids=lambda entry: entry.key)
def test_unbroken_build_holds_and_every_mutant_violates_its_predicate(entry):
    assert figures.self_test(entry) == []


def test_every_figure_names_a_mutant():
    assert len(figures.REGISTRY) >= 8
    assert all(entry.mutants for entry in figures.REGISTRY)
