"""Shared fixtures: the named instances and small enumerated pools.

Every ``hypothesis`` test runs under one profile: a fixed seed, no example
database and no deadline, so that each run draws the same examples.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from gpea import boolean, chain, fig1, product
from gpea.catalog import enumerate_gpeas

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fig1_algebra():
    return fig1()


@pytest.fixture(scope="session")
def catalog_instances():
    """The named instances the workbench ships with, all validated."""
    return [
        ("chain0", chain(0)),
        ("chain1", chain(1)),
        ("chain2", chain(2)),
        ("chain3", chain(3)),
        ("fig1", fig1()),
        ("boolean2", boolean(2)),
        ("chain1xchain2", product(chain(1), chain(2))),
    ]


@pytest.fixture(scope="session")
def enumerated_by_size():
    """Representatives of every isomorphism class at sizes 1 through 4."""
    return {n: enumerate_gpeas(n) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="session")
def small_pool(catalog_instances, enumerated_by_size):
    """Catalog plus enumerated representatives, labeled, for sweeps."""
    pool = list(catalog_instances)
    for n, algebras in enumerated_by_size.items():
        pool.extend((f"n{n}#{i}", g) for i, g in enumerate(algebras))
    return pool
