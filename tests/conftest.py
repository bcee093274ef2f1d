import tempfile
import warnings

import pytest
from hypothesis import configuration, settings

from zetamax import dickman, dirichlet, sums

# When a Hypothesis test fails, its pytest plugin writes the failing example
# as a patch through libcst, whose first import warns through
# mypy_extensions.  pyproject turns every DeprecationWarning into an error,
# so that import would end the run in INTERNALERROR, with no falsifying
# example printed.  Importing libcst once here, that warning ignored, leaves
# the later import nothing to warn about.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

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
    gets "pool" for every block submitted to the block pool
    (`sums.ordered_map`)."""
    monkeypatch.setattr(sums.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pool = sums._executor()
    blocks = []

    class Counting:
        def submit(self, fn, *args):
            blocks.append("pool")
            return pool.submit(fn, *args)

    monkeypatch.setattr(sums, "_pool", [Counting()])
    return blocks
