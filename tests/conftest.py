"""Shared fixtures."""

import pytest

from superjac import characters, cyclo

_SUM_CACHES = (characters._histogram, characters._lifted_sum,
               characters._hd_power, cyclo.cyclo)


@pytest.fixture
def fresh_sum_caches():
    """Empty the Gauss-sum memos and the ring cache before and after the
    test: a test starts with nothing kept, and a histogram it poisons
    does not leak into later tests."""
    for memo in _SUM_CACHES:
        memo.cache_clear()
    yield
    for memo in _SUM_CACHES:
        memo.cache_clear()
