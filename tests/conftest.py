import itertools
import time

import pytest

from starsalem import StarTree, factor_coxeter
from starsalem.cyclotomic import default_table

GRID_MAX_A2 = 25


@pytest.fixture(scope="session")
def grid_data():
    """Factorizations of every strictly ordered triple with a2 <= 25.

    Computed once; the elapsed factoring time is kept so the acceptance
    suite can assert its runtime budget.
    """
    table = default_table()
    start = time.perf_counter()
    factorizations = {}
    for arms in itertools.combinations(range(2, GRID_MAX_A2 + 1), 3):
        factorizations[arms] = factor_coxeter(StarTree(arms))
    elapsed = time.perf_counter() - start
    return {"factorizations": factorizations, "factor_seconds": elapsed, "table": table}
