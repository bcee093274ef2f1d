import tempfile

import pytest
from hypothesis import configuration, settings

from zetamax import dickman, dirichlet, sums

# Fixed examples and no example database keep runs repeatable.  Hypothesis
# still caches the constants it reads from local source files; that cache
# goes to a temporary directory removed at exit, not to ./.hypothesis/.
settings.register_profile("zetamax", derandomize=True, database=None, deadline=None)
settings.load_profile("zetamax")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="zetamax-hypothesis-")
configuration.set_hypothesis_home_dir(_hypothesis_home.name)


@pytest.fixture(scope="session")
def table60():
    """Shared rho table on [0, 60] at tol 1e-12 (the acceptance-grade table)."""
    return dickman.build_rho_table(60.0, 1e-12)


@pytest.fixture(scope="session")
def table12():
    return dickman.build_rho_table(12.0, 1e-12)


@pytest.fixture(scope="session")
def chi5():
    return dirichlet.build_character_table(5)


@pytest.fixture(scope="session")
def chi7():
    return dirichlet.build_character_table(7)


@pytest.fixture(scope="session")
def chi101():
    return dirichlet.build_character_table(101)


@pytest.fixture
def parallel_blocks(monkeypatch):
    """Long sums run in parallel whatever the machine's CPU count; the list
    gets one entry per block that does: "pool" for a block submitted to the
    block pool (`sums.ordered_map`), "halves" for a block split between the
    calling thread and a helper (`sums.split_map`)."""
    monkeypatch.setattr(sums.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pool = sums._executor()
    in_halves = sums._in_halves
    blocks = []

    class Counting:
        def submit(self, fn, block):
            blocks.append("pool")
            return pool.submit(fn, block)

    def counting_halves(fill, n):
        blocks.append("halves")
        in_halves(fill, n)

    monkeypatch.setattr(sums, "_pool", [Counting()])
    monkeypatch.setattr(sums, "_in_halves", counting_halves)
    return blocks
