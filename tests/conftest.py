import random
import warnings

import pytest

from helpers import all_relations, random_digraph

# Hypothesis reports a failing example through ``hypothesis.extra._patching``,
# whose ``libcst`` import (when installed) can raise a DeprecationWarning; the
# filters in pyproject.toml make that an error that aborts the whole session.
# Import it once here, with DeprecationWarning ignored for that import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def suite_n4_loopfree():
    """All 4096 loop-free digraphs on 4 vertices."""
    return all_relations(4, loops=False)


@pytest.fixture(scope="session")
def suite_n3_loops():
    """All 512 digraphs on 3 vertices, loops included."""
    return all_relations(3, loops=True)


@pytest.fixture(scope="session")
def suite_small_loopfree():
    """All loop-free digraphs on 1..3 vertices (combine with the n=4 suite
    for full n <= 4 coverage)."""
    out = []
    for n in range(1, 4):
        out.extend(all_relations(n, loops=False))
    return out


@pytest.fixture(scope="session")
def random_digraphs_1000():
    """1000 seeded loop-free random digraphs, n <= 30, arc probability 0.2."""
    rng = random.Random(0xD16A)
    return [random_digraph(rng, rng.randint(1, 30), 0.2) for _ in range(1000)]
