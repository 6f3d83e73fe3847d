"""Set-up shared by the tests under ``tests/`` and ``bench/``."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def predictions_cache_home(tmp_path_factory):
    """Point ``XDG_CACHE_HOME``, and with it the parse cache of
    :func:`aldet.formats.read_predictions_jsonl` and
    :func:`aldet.formats.load_dataset`, at a directory of this session, so
    that a test run never writes to the user's home. One directory for the
    whole session: a file read by several tests, or by several examples of a
    property, is read from the cache as well as parsed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield
