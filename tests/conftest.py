import sys

import pytest


def _clear_kslab_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("kslab.") and module is not None:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def cold_kslab_caches():
    """Every ``lru_cache`` of the kslab modules is cleared before and after
    the test, so that no result computed outside it is reused, and none
    computed inside it (say, under a monkeypatched mutant) outlives it.
    The fixture's value clears them again."""
    _clear_kslab_caches()
    yield _clear_kslab_caches
    _clear_kslab_caches()
