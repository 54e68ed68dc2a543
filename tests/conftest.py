import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_collector():
    # cli.main freezes the collector on its way out, which suits a process
    # that is about to exit; the suite calls it in process, so hand the
    # frozen objects back after each test instead of piling them up
    yield
    gc.unfreeze()
